//! `ftd bank-info` end to end, through the `ftd` binary: one report,
//! whose served-load line says whether the load `ftd serve` runs accepts
//! the file and whose exit code is the full decode's; `--mapped` is a
//! usage error.

use std::process::Command;

use fault_trajectory::prelude::*;
use fault_trajectory::serve::{
    synthetic_circuit_bank, SectionTable, SECTION_DICTIONARY, SECTION_TRAJECTORIES,
};

/// Runs `ftd bank-info ARGS...`; returns its exit code and the report's
/// one served-load line.
fn bank_info(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftd"))
        .arg("bank-info")
        .args(args)
        .output()
        .expect("ftd runs");
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    let served: Vec<&str> = report
        .lines()
        .filter(|l| l.starts_with("served load: "))
        .collect();
    assert!(served.len() <= 1, "two served loads in:\n{report}");
    (out.status.code().expect("ftd exits"), served.concat())
}

#[test]
fn bank_info_reports_the_served_load_and_exits_with_the_full_decode() {
    let dir = std::env::temp_dir().join(format!("ftd_bank_info_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tv = TestVector::pair(0.5, 2.0);
    let bytes = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap().to_bytes();
    let table = SectionTable::parse(&bytes).unwrap();
    let traj = *table.locate(SECTION_TRAJECTORIES).unwrap().unwrap();
    let dict = *table.locate(SECTION_DICTIONARY).unwrap().unwrap();
    let holds = format!(
        "served load: ok, a served shard holds {} bytes (its trajectory section)",
        traj.len
    );
    // (file, byte flipped, exit code, served-load line prefix, and a
    // word it must name). The served load never reads the dictionary.
    let (ok, failed) = ("served load: ok, ", "served load: FAILED: ");
    let dict_byte = dict.offset + dict.len / 2;
    let traj_byte = traj.offset + traj.len - 1;
    for (name, flip, code, prefix, names) in [
        ("intact", None, 0, holds.as_str(), ""),
        ("dict", Some(dict_byte), 1, ok, ""),
        ("traj", Some(traj_byte), 1, failed, "trajectories"),
    ] {
        let mut file = bytes.clone();
        if let Some(at) = flip {
            file[at] ^= 0x01;
        }
        let path = dir.join(format!("{name}.ftb"));
        std::fs::write(&path, file).unwrap();
        let (got, line) = bank_info(&[path.to_str().unwrap()]);
        assert_eq!(got, code, "{name}: {line}");
        assert!(
            line.starts_with(prefix) && line.contains(names),
            "{name}: {line}"
        );
    }
    let intact = dir.join("intact.ftb");
    assert_eq!(bank_info(&["--mapped", intact.to_str().unwrap()]).0, 2);
    std::fs::remove_dir_all(&dir).ok();
}
