//! Stdin `ftd serve` answers what it has read before it blocks for
//! more: a client that writes a few requests and waits for their
//! answers, with stdin still open, gets every one of them — byte for
//! byte what `ftd diagnose --requests` prints for the same lines.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fault_trajectory::prelude::*;
use fault_trajectory::serve::{synthetic_circuit_bank, synthetic_queries};

#[test]
fn stdin_serve_answers_before_blocking_on_an_open_pipe() {
    let dir = std::env::temp_dir().join(format!("ftd_stdin_serve_{}", std::process::id()));
    let shards = dir.join("shards");
    std::fs::create_dir_all(&shards).unwrap();
    let tv = TestVector::pair(0.5, 2.0);
    let bank = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
    let bank_path = shards.join("cut.ftb");
    bank.save(&bank_path).unwrap();
    // Shortest round-trip floats parse back to the same coordinates.
    let requests: String = synthetic_queries(bank.trajectory_set(), 8, 7)
        .iter()
        .map(|q| {
            let coords: Vec<String> = q.coords().iter().map(f64::to_string).collect();
            format!("cut {}\n", coords.join(" "))
        })
        .collect();
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
