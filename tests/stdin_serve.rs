//! Stdin `ftd serve` end to end, through the `ftd` binary:
//!
//! * it answers what it has read before it blocks for more: a client
//!   that writes a few requests and waits for their answers, with stdin
//!   still open, gets every one of them — byte for byte what
//!   `ftd diagnose --requests` prints for the same lines;
//! * its stats sinks (`--stats-file` and an in-band `!stats` line)
//!   print the Prometheus text exposition and never change an answer,
//!   and the refresh tick rewrites the stats file while stdin is open;
//! * a line it cannot serve ends it with exit 1, after every line before
//!   it is answered: a bad coordinate names its line, and a line with no
//!   newline within the read cap is refused without being echoed.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fault_trajectory::prelude::*;
use fault_trajectory::serve::net::{FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
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
        .args(["--max-inflight", "4", "--workers", "2"])
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
            .args(["--max-inflight", "3", "--workers", "2"])
            .args(extra)
            .stdin(std::fs::File::open(&input_path).unwrap())
            .output()
            .expect("ftd serve runs");
        assert!(out.status.success(), "serve exits 0");
        out
    };
    let plain = serve(&[]);
    let metered = serve(&["--stats-file".as_ref(), stats_path.as_os_str()]);
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

/// Runs `cmd` to its exit and collects its output, failing the test,
/// rather than hanging it, if the process outlives 30 s.
fn output_within_deadline(cmd: &mut Command) -> std::process::Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftd starts");
    fn drain(mut pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).ok();
            bytes
        })
    }
    let stdout = drain(child.stdout.take().expect("piped stdout"));
    let stderr = drain(child.stderr.take().expect("piped stderr"));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("ftd still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    std::process::Output {
        status,
        stdout: stdout.join().unwrap(),
        stderr: stderr.join().unwrap(),
    }
}

/// Reads `stdout` on a thread, so a server that never answers fails the
/// caller at its deadline instead of hanging it.
fn line_reader(stdout: std::process::ChildStdout) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

#[test]
fn a_bad_line_ends_serving_after_the_lines_before_it_are_answered() {
    let (dir, requests) = cut_fixture("ftd_stdin_bad_line");
    let shards = dir.join("shards");
    let good: Vec<&str> = requests.lines().collect();
    let first_five = dir.join("first_five.txt");
    std::fs::write(&first_five, good[..5].join("\n") + "\n").unwrap();
    let mut lines = good.clone();
    lines.insert(5, "cut 0.5 oops");
    let input = dir.join("input.txt");
    std::fs::write(&input, lines.join("\n") + "\n").unwrap();

    let ftd = env!("CARGO_BIN_EXE_ftd");
    let out = output_within_deadline(
        Command::new(ftd)
            .arg("serve")
            .arg("--banks")
            .arg(&shards)
            .args(["--workers", "2"])
            .stdin(std::fs::File::open(&input).unwrap()),
    );
    let reference = Command::new(ftd)
        .arg("diagnose")
        .arg("--bank")
        .arg(shards.join("cut.ftb"))
        .arg("--requests")
        .arg(&first_five)
        .output()
        .expect("ftd diagnose runs");
    assert!(reference.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(reference.stdout).unwrap(),
        "the five lines before the bad one are answered"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("request line 6: bad signature coordinate `oops`"),
        "{stderr}"
    );
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_line_longer_than_the_read_cap_is_refused_without_an_echo() {
    let (dir, _) = cut_fixture("ftd_stdin_long_line");
    let input = dir.join("long.txt");
    // A CUT id and one 2 MiB coordinate token, and no newline.
    let mut line = b"cut ".to_vec();
    line.resize(2 << 20, b'7');
    std::fs::write(&input, &line).unwrap();
    let out = output_within_deadline(
        Command::new(env!("CARGO_BIN_EXE_ftd"))
            .arg("serve")
            .arg("--banks")
            .arg(dir.join("shards"))
            .stdin(std::fs::File::open(&input).unwrap()),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let cap = FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize;
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.len() < 4096, "{} bytes of stderr", stderr.len());
    assert!(
        stderr.contains(&format!("request line 1: no newline within the {cap}-byte")),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_refresh_tick_rewrites_the_stats_file_while_stdin_is_open() {
    let (dir, requests) = cut_fixture("ftd_stdin_tick");
    let stats_path = dir.join("stats.prom");
    let mut server = Command::new(env!("CARGO_BIN_EXE_ftd"))
        .arg("serve")
        .arg("--banks")
        .arg(dir.join("shards"))
        .arg("--stats-file")
        .arg(&stats_path)
        .args(["--refresh-ms", "1", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ftd serve starts");
    let mut stdin = server.stdin.take().expect("piped stdin");
    let four: Vec<&str> = requests.lines().take(4).collect();
    stdin
        .write_all((four.join("\n") + "\n").as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    let answers = line_reader(server.stdout.take().expect("piped stdout"));

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut answered = 0;
    let mut counted: Option<String> = None;
    while counted.as_deref() != Some("4") {
        if Instant::now() >= deadline {
            server.kill().ok();
            server.wait().ok();
            panic!(
                "{answered} answers, stats file counts {counted:?}, within 10 s with stdin open"
            );
        }
        while answers.try_recv().is_ok() {
            answered += 1;
        }
        if answered == 4 {
            counted = std::fs::read_to_string(&stats_path).ok().and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("serve_requests_total ").map(String::from))
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stdin);
    assert!(server.wait().unwrap().success(), "serve exits 0 at EOF");
    std::fs::remove_dir_all(&dir).ok();
}
