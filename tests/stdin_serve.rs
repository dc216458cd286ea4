//! Stdin `ftd serve` end to end, through the `ftd` binary:
//!
//! * it answers what it has read before it blocks for more: a client
//!   that writes a few requests and waits for their answers, with stdin
//!   still open, gets every one of them — byte for byte what
//!   `ftd diagnose --requests` prints for the same lines;
//! * its stats sinks (`--stats-file` and an in-band `!stats` line)
//!   print the Prometheus text exposition and never change an answer.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fault_trajectory::prelude::*;
use fault_trajectory::serve::{synthetic_circuit_bank, synthetic_queries};

/// A scratch directory `<tmp>/<tag>_<pid>` holding `shards/cut.ftb`, and
/// 8 request lines for CUT `cut` near its trajectories.
fn cut_fixture(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("{tag}_{}", std::process::id()));
    let shards = dir.join("shards");
    std::fs::create_dir_all(&shards).unwrap();
    let tv = TestVector::pair(0.5, 2.0);
    let bank = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
    bank.save(shards.join("cut.ftb")).unwrap();
    // Shortest round-trip floats parse back to the same coordinates.
    let requests = synthetic_queries(bank.trajectory_set(), 8, 7)
        .iter()
        .map(|q| {
            let coords: Vec<String> = q.coords().iter().map(f64::to_string).collect();
            format!("cut {}\n", coords.join(" "))
        })
        .collect();
    (dir, requests)
}

#[test]
fn stdin_serve_answers_before_blocking_on_an_open_pipe() {
    let (dir, requests) = cut_fixture("ftd_stdin_serve");
    let shards = dir.join("shards");
    let bank_path = shards.join("cut.ftb");
    let requests_path = dir.join("requests.txt");
    std::fs::write(&requests_path, &requests).unwrap();

    let ftd = env!("CARGO_BIN_EXE_ftd");
    let mut server = Command::new(ftd)
        .arg("serve")
        .arg("--banks")
        .arg(&shards)
        .args(["--batch", "4", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ftd serve starts");
    let mut stdin = server.stdin.take().expect("piped stdin");
    stdin.write_all(requests.as_bytes()).unwrap();
    stdin.flush().unwrap();

    // A reader thread, so a server that never answers fails the test
    // at the deadline instead of hanging it.
    let stdout = server.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut answers: Vec<String> = Vec::new();
    while answers.len() < 8 {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => answers.push(line),
            Err(_) => {
                server.kill().ok();
                server.wait().ok();
                panic!(
                    "{} of 8 answers within 10 s while stdin stays open",
                    answers.len()
                );
            }
        }
    }
    drop(stdin);
    assert!(server.wait().unwrap().success(), "serve exits 0 at EOF");

    let reference = Command::new(ftd)
        .arg("diagnose")
        .arg("--bank")
        .arg(&bank_path)
        .arg("--requests")
        .arg(&requests_path)
        .output()
        .expect("ftd diagnose runs");
    assert!(reference.status.success());
    let expected: Vec<String> = String::from_utf8(reference.stdout)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(answers, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_sinks_print_prometheus_and_leave_answers_alone() {
    let (dir, requests) = cut_fixture("ftd_stdin_stats");
    let shards = dir.join("shards");
    // `!stats` is an in-band control line, not a request.
    let mut lines: Vec<&str> = requests.lines().collect();
    lines.insert(4, "!stats");
    let input_path = dir.join("input.txt");
    std::fs::write(&input_path, lines.join("\n") + "\n").unwrap();
    let stats_path = dir.join("stats.prom");

    let serve = |extra: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ftd"))
            .arg("serve")
            .arg("--banks")
            .arg(&shards)
            .args(["--batch", "3", "--workers", "2"])
            .args(extra)
            .stdin(std::fs::File::open(&input_path).unwrap())
            .output()
            .expect("ftd serve runs");
        assert!(out.status.success(), "serve exits 0");
        out
    };
    let plain = serve(&[]);
    // --stats-every rewrites the file on batch boundaries too.
    let metered = serve(&[
        "--stats-file".as_ref(),
        stats_path.as_os_str(),
        "--stats-every".as_ref(),
        "3".as_ref(),
    ]);
    assert_eq!(metered.stdout, plain.stdout, "metrics changed the answers");
    assert_eq!(String::from_utf8(plain.stdout).unwrap().lines().count(), 8);

    let stderr = String::from_utf8(metered.stderr).unwrap();
    assert!(
        stderr.contains("# TYPE serve_requests_total counter\n"),
        "!stats printed no exposition:\n{stderr}"
    );
    let file = std::fs::read_to_string(&stats_path).unwrap();
    let served = file
        .lines()
        .find_map(|l| l.strip_prefix("serve_requests_total "))
        .expect("the file counts served requests");
    assert_eq!(served, "8");
    let tmp = dir.join("stats.prom.tmp");
    assert!(!tmp.exists(), "the atomic write left {}", tmp.display());
    std::fs::remove_dir_all(&dir).ok();
}
