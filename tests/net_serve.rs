//! Integration tests for the TCP serving tier: byte-identity against
//! the in-process oracle across worker counts and pipeline depths,
//! bounded-memory backpressure, graceful drain and its deadline, and
//! per-connection fault isolation.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fault_trajectory::prelude::*;
use fault_trajectory::serve::net::{
    decode_frame, decode_response, decode_text_frame, encode_request, encode_response,
    encode_text_frame, fetch_stats, frame_name, response_line, run_loadgen, LoadgenConfig,
    NetConfig, NetServer, NetSummary, ShutdownHandle, FRAME_ERROR, FRAME_HEADER_LEN,
    FRAME_RESPONSE, MAX_FRAME_PAYLOAD,
};
use fault_trajectory::serve::{
    synthetic_circuit_bank, synthetic_queries, BankStore, DiagnosisRequest, EngineConfig,
    MetricsRegistry,
};
use proptest::prelude::*;

/// An in-memory two-CUT store plus a mixed request stream over both
/// CUTs — including one request for a CUT that does not exist, so the
/// per-request error path is part of every identity check.
fn store_and_requests() -> (Arc<BankStore>, Vec<DiagnosisRequest>) {
    let store = Arc::new(BankStore::in_memory(EngineConfig::default()));
    let tv = TestVector::pair(0.5, 2.0);
    let a = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
    let b = synthetic_circuit_bank(3, 10.0, 9, &tv).unwrap();
    let qa = synthetic_queries(a.trajectory_set(), 24, 11);
    let qb = synthetic_queries(b.trajectory_set(), 24, 12);
    let dim = a.trajectory_set().dim();
    store.insert_bank("a", a).unwrap();
    store.insert_bank("b", b).unwrap();
    let mut requests: Vec<DiagnosisRequest> = Vec::new();
    for (sa, sb) in qa.iter().zip(&qb) {
        requests.push(DiagnosisRequest::new("a", sa.clone()));
        requests.push(DiagnosisRequest::new("b", sb.clone()));
    }
    requests.push(DiagnosisRequest::new(
        "missing",
        Signature::new(vec![0.0; dim]),
    ));
    (store, requests)
}

/// The oracle: what the stdin front-end would print for `requests`,
/// straight off the store.
fn reference_lines(store: &BankStore, requests: &[DiagnosisRequest]) -> Vec<String> {
    requests
        .iter()
        .map(|req| response_line(&req.cut_id, &store.diagnose(req)))
        .collect()
}

struct Server {
    addr: String,
    shutdown: ShutdownHandle,
    join: thread::JoinHandle<NetSummary>,
}

impl Server {
    fn spawn(store: Arc<BankStore>, registry: &Arc<MetricsRegistry>, config: NetConfig) -> Server {
        let server = NetServer::bind("127.0.0.1:0", store, registry, config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let shutdown = server.shutdown_handle();
        let join = thread::spawn(move || server.run().unwrap());
        Server {
            addr,
            shutdown,
            join,
        }
    }

    fn stop(self) -> NetSummary {
        self.shutdown.shutdown();
        self.join.join().unwrap()
    }
}

/// Reads complete frames off a raw socket until EOF.
fn read_frames(stream: &mut TcpStream) -> Vec<(u16, Vec<u8>)> {
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut frames = Vec::new();
    loop {
        while let Some((kind, payload, consumed)) = decode_frame(&rbuf).unwrap() {
            frames.push((kind, payload.to_vec()));
            rbuf.drain(..consumed);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
    assert!(rbuf.is_empty(), "trailing partial frame from the server");
    frames
}

#[test]
fn tcp_responses_byte_identical_across_workers_and_depths() {
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests);
    let error_lines = expected.iter().filter(|l| l.contains("\terror\t")).count() as u64;
    for workers in [1usize, 2, 8] {
        let registry = Arc::new(MetricsRegistry::new());
        let server = Server::spawn(
            Arc::clone(&store),
            &registry,
            NetConfig {
                workers,
                refresh_interval: Duration::ZERO,
                ..NetConfig::default()
            },
        );
        for depth in [1usize, 8, 64] {
            let report = run_loadgen(
                &server.addr,
                &requests,
                &LoadgenConfig {
                    connections: 1,
                    depth,
                    total: 0,
                    capture: true,
                },
            )
            .unwrap();
            assert_eq!(report.responses, requests.len() as u64);
            assert_eq!(report.error_lines, error_lines);
            assert_eq!(
                report.lines.as_deref(),
                Some(&expected[..]),
                "workers={workers} depth={depth}"
            );
        }
        let summary = server.stop();
        assert_eq!(summary.served, 3 * requests.len() as u64);
        assert_eq!(summary.errors, 3 * error_lines);
        assert_eq!(summary.protocol_errors, 0);
    }

    // A pipeline far deeper than the server's in-flight budget, over
    // many passes of the list: the server stops reading mid-write, and
    // the one-thread client must still finish with every line in order.
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(
        Arc::clone(&store),
        &registry,
        NetConfig {
            workers: 2,
            max_inflight: 8,
            write_highwater: 4096,
            refresh_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    );
    let total = 100 * requests.len();
    let report = run_loadgen(
        &server.addr,
        &requests,
        &LoadgenConfig {
            connections: 1,
            depth: 4096,
            total,
            capture: true,
        },
    )
    .unwrap();
    let cycled: Vec<String> = expected.iter().cycle().take(total).cloned().collect();
    assert_eq!(report.lines.as_deref(), Some(&cycled[..]), "depth 4096");
    assert_eq!(report.error_lines, 100 * error_lines);
    let stalls = registry
        .snapshot()
        .counter("net_backpressure_stalls_total")
        .unwrap_or(0);
    assert!(stalls > 0, "the server never stopped reading");
    assert_eq!(server.stop().served, total as u64);
}

#[test]
fn multi_connection_loadgen_answers_every_request() {
    let (store, requests) = store_and_requests();
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(Arc::clone(&store), &registry, NetConfig::default());
    let total = requests.len() * 4;
    let report = run_loadgen(
        &server.addr,
        &requests,
        &LoadgenConfig {
            connections: 4,
            depth: 16,
            total,
            capture: false,
        },
    )
    .unwrap();
    assert_eq!(report.connections, 4);
    assert_eq!(report.responses, total as u64);
    // The stream cycles the request list, so each connection's share
    // holds exactly one error request per pass.
    assert_eq!(report.error_lines, 4);
    let stats = fetch_stats(&server.addr).unwrap();
    assert!(
        stats.contains("net_requests_total"),
        "stats frame missing net metrics:\n{stats}"
    );
    let summary = server.stop();
    assert_eq!(summary.served, total as u64);
    assert_eq!(summary.accepted, 5, "four loadgen conns + one stats conn");
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("net_connections_accepted_total"), Some(5));
    assert_eq!(snapshot.counter("net_connections_closed_total"), Some(5));
    assert_eq!(snapshot.gauge("net_active_connections"), Some(0));
    assert_eq!(snapshot.counter("net_requests_total"), Some(total as u64));
    assert!(snapshot.counter("net_bytes_in_total").unwrap() > 0);
    assert!(snapshot.counter("net_bytes_out_total").unwrap() > 0);
    let wire = snapshot.histogram("net_request_wire_us").unwrap();
    assert_eq!(wire.count, total as u64);
}

#[test]
fn backpressure_bounds_memory_against_a_reader_that_never_reads() {
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(
        Arc::clone(&store),
        &registry,
        NetConfig {
            workers: 2,
            max_inflight: 8,
            write_highwater: 4096,
            refresh_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    );
    // Far more request bytes than the server is allowed to buffer
    // (8 in flight + 4 KiB unsent): the server must stop reading and
    // leave the rest in kernel buffers / the blocked writer below.
    let passes = 3000usize;
    let total = passes * requests.len();
    let stream = TcpStream::connect(&server.addr).unwrap();
    let mut writer_stream = stream.try_clone().unwrap();
    let reqs = requests.clone();
    let writer = thread::spawn(move || {
        for _ in 0..passes {
            for req in &reqs {
                writer_stream.write_all(&encode_request(req)).unwrap();
            }
        }
        writer_stream.shutdown(Shutdown::Write).unwrap();
    });
    // Withhold all reads until the server has visibly stalled.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stalls = registry
            .snapshot()
            .counter("net_backpressure_stalls_total")
            .unwrap_or(0);
        if stalls > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never reported a backpressure stall"
        );
        thread::sleep(Duration::from_millis(10));
    }
    // Now drain: every request must still be answered, in order.
    let mut stream = stream;
    let frames = read_frames(&mut stream);
    writer.join().unwrap();
    assert_eq!(frames.len(), total);
    for (i, (kind, payload)) in frames.iter().enumerate() {
        assert_eq!(*kind, FRAME_RESPONSE, "frame {i} was {}", frame_name(*kind));
        let (_, line) = decode_response(payload).unwrap();
        assert_eq!(line, expected[i % expected.len()], "response {i}");
    }
    let summary = server.stop();
    assert_eq!(summary.served, total as u64);
    assert!(
        registry
            .snapshot()
            .counter("net_backpressure_stalls_total")
            .unwrap()
            > 0
    );
}

#[test]
fn read_buffer_holds_at_most_one_frame_beyond_the_parser() {
    // A client that streams requests while it reads its responses. The
    // server parses only `max_inflight` requests ahead of the pool, so
    // whatever it reads beyond that waits undecoded in the connection's
    // read buffer: that must stay within one maximal frame plus one
    // read chunk, leaving the rest in the kernel, where TCP pushes back.
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests[..1]).remove(0);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(
        Arc::clone(&store),
        &registry,
        NetConfig {
            workers: 2,
            refresh_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    );
    let frame = encode_request(&requests[0]);
    let frame_len = frame.len() as u64;
    let count = (8 << 20) / frame.len() + 1;
    let stream = TcpStream::connect(&server.addr).unwrap();
    let mut writer_stream = stream.try_clone().unwrap();
    let writer = thread::spawn(move || {
        let burst = frame.repeat(1024);
        let mut left = count;
        while left > 0 {
            let n = left.min(1024);
            writer_stream.write_all(&burst[..n * frame.len()]).unwrap();
            left -= n;
        }
        writer_stream.shutdown(Shutdown::Write).unwrap();
    });
    let mut reader_stream = stream;
    let reader = thread::spawn(move || read_frames(&mut reader_stream));

    let bound = (FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD as usize + 16 * 1024) as u64;
    let mut worst = 0u64;
    while !reader.is_finished() {
        // The snapshot reads `net_bytes_in_total` before
        // `net_requests_total` (names in order), so a sample may
        // understate the backlog but never overstate it.
        let snapshot = registry.snapshot();
        let bytes_in = snapshot.counter("net_bytes_in_total").unwrap_or(0);
        let parsed = snapshot.counter("net_requests_total").unwrap_or(0);
        worst = worst.max(bytes_in.saturating_sub(parsed * frame_len));
        thread::sleep(Duration::from_millis(1));
    }
    writer.join().unwrap();
    let frames = reader.join().unwrap();
    assert_eq!(frames.len(), count);
    for (i, (kind, payload)) in frames.iter().enumerate() {
        assert_eq!(*kind, FRAME_RESPONSE, "frame {i} was {}", frame_name(*kind));
        let (_, line) = decode_response(payload).unwrap();
        assert_eq!(line, expected, "response {i}");
    }
    assert!(
        worst <= bound,
        "{worst} bytes read but not parsed, over the {bound}-byte bound"
    );
    assert_eq!(server.stop().served, count as u64);
}

#[test]
fn graceful_drain_answers_everything_accepted() {
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(Arc::clone(&store), &registry, NetConfig::default());
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    for req in &requests {
        stream.write_all(&encode_request(req)).unwrap();
    }
    // Shutdown lands while the pipeline is full: the drain must answer
    // every accepted request before the connection closes.
    server.shutdown.shutdown();
    stream.shutdown(Shutdown::Write).unwrap();
    let frames = read_frames(&mut stream);
    let lines: Vec<String> = frames
        .iter()
        .map(|(kind, payload)| {
            assert_eq!(*kind, FRAME_RESPONSE);
            decode_response(payload).unwrap().1
        })
        .collect();
    assert_eq!(lines, expected);
    let summary = server.join.join().unwrap();
    assert_eq!(summary.served, requests.len() as u64);
    assert_eq!(summary.accepted, 1);
    // A connection after the drain began must be refused.
    assert!(TcpStream::connect(&server.addr).is_err());
}

#[test]
fn bad_frame_kills_only_its_connection() {
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(Arc::clone(&store), &registry, NetConfig::default());

    // Connection A stays healthy throughout.
    let mut healthy = TcpStream::connect(&server.addr).unwrap();
    healthy.write_all(&encode_request(&requests[0])).unwrap();

    // Connection B sends a good request, then a corrupt frame.
    let mut corrupt = TcpStream::connect(&server.addr).unwrap();
    corrupt.write_all(&encode_request(&requests[1])).unwrap();
    let mut bad = encode_request(&requests[2]);
    let last = bad.len() - 1;
    bad[last] ^= 0x40; // payload corruption: checksum must catch it
    corrupt.write_all(&bad).unwrap();
    let frames = read_frames(&mut corrupt);
    assert_eq!(frames.len(), 2, "good response, then the error frame");
    assert_eq!(frames[0].0, FRAME_RESPONSE);
    assert_eq!(decode_response(&frames[0].1).unwrap().1, expected[1]);
    assert_eq!(frames[1].0, FRAME_ERROR);
    let detail = decode_text_frame(&frames[1].1).unwrap();
    assert!(detail.contains("checksum"), "{detail}");

    // Connection A is unaffected — before and after B's demise.
    healthy.write_all(&encode_request(&requests[3])).unwrap();
    healthy.shutdown(Shutdown::Write).unwrap();
    let frames = read_frames(&mut healthy);
    let lines: Vec<String> = frames
        .iter()
        .map(|(kind, payload)| {
            assert_eq!(*kind, FRAME_RESPONSE);
            decode_response(payload).unwrap().1
        })
        .collect();
    assert_eq!(lines, vec![expected[0].clone(), expected[3].clone()]);

    let summary = server.stop();
    assert_eq!(summary.protocol_errors, 1);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("net_protocol_errors_total"), Some(1));
    // The labeled variant attributes peer (by IP — ports are ephemeral
    // and would make label cardinality unbounded) and kind.
    let prometheus = snapshot.to_prometheus();
    assert!(
        prometheus.contains("net_protocol_errors_total{peer=\"127.0.0.1\"")
            && prometheus.contains("kind=\"checksum\""),
        "missing labeled protocol error:\n{prometheus}"
    );
}

#[test]
fn a_peer_that_half_closes_mid_frame_gets_its_whole_frames_answered() {
    let (store, requests) = store_and_requests();
    let expected = reference_lines(&store, &requests);
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(Arc::clone(&store), &registry, NetConfig::default());

    // Two whole request frames and the first half of a third, then the
    // half-close. The kernel delivers the bytes before the FIN.
    let mut peer = TcpStream::connect(&server.addr).unwrap();
    let mut bytes = encode_request(&requests[0]);
    bytes.extend_from_slice(&encode_request(&requests[1]));
    let third = encode_request(&requests[2]);
    bytes.extend_from_slice(&third[..third.len() / 2]);
    peer.write_all(&bytes).unwrap();
    peer.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = read_frames(&mut peer)
        .iter()
        .map(|(kind, payload)| {
            assert_eq!(*kind, FRAME_RESPONSE);
            decode_response(payload).unwrap().1
        })
        .collect();
    assert_eq!(
        lines,
        expected[..2],
        "exactly the two whole frames, then EOF"
    );

    // The server still answers a connection opened afterwards.
    let mut next = TcpStream::connect(&server.addr).unwrap();
    next.write_all(&encode_request(&requests[3])).unwrap();
    next.shutdown(Shutdown::Write).unwrap();
    let frames = read_frames(&mut next);
    assert_eq!(frames.len(), 1);
    assert_eq!(decode_response(&frames[0].1).unwrap().1, expected[3]);
    server.stop();
}

#[test]
fn loadgen_names_what_a_misbehaving_server_sent() {
    let (_, requests) = store_and_requests();
    let mut corrupt = encode_response("a\tR1\t10\t0.5\tR1", false);
    *corrupt.last_mut().unwrap() ^= 0x40;
    let cases = [
        (
            encode_text_frame(FRAME_ERROR, "no such thing"),
            "bad error frame: server reported: no such thing",
        ),
        (corrupt, "bad response frame: checksum mismatch"),
        (Vec::new(), "loadgen read after 0 of 1 responses"),
    ];
    for (reply, want) in cases {
        // A stand-in server: takes the request stream up to the
        // client's half-close, sends `reply`, and closes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.read_to_end(&mut Vec::new()).unwrap();
            stream.write_all(&reply).unwrap();
        });
        let config = LoadgenConfig {
            connections: 1,
            depth: 1,
            total: 1,
            capture: true,
        };
        let err = run_loadgen(&addr, &requests, &config).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        server.join().unwrap();
    }
}

#[test]
fn loadgen_finishes_a_pipeline_whose_replies_outgrow_the_socket_buffers() {
    // The server stops reading at 8 requests in flight or 4 KiB of
    // unsent replies, and the client stamps its whole depth in one
    // round. Each reply here is long: a request for a CUT the store does
    // not hold, under a 4 000-byte id, is answered with an error line
    // that names the id twice. So the server stops reading long before
    // the client has written its depth, and the client must read while
    // its write is unfinished.
    let store = Arc::new(BankStore::in_memory(EngineConfig::default()));
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(
        store,
        &registry,
        NetConfig {
            workers: 2,
            max_inflight: 8,
            write_highwater: 4096,
            refresh_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    );
    let requests = vec![DiagnosisRequest::new(
        "x".repeat(4000),
        Signature::new(vec![0.0, 0.0]),
    )];
    let total = 6000;
    let addr = server.addr.clone();
    let (done, outcome) = std::sync::mpsc::channel();
    let client = thread::spawn(move || {
        let config = LoadgenConfig {
            connections: 1,
            depth: total,
            total,
            capture: false,
        };
        done.send(run_loadgen(&addr, &requests, &config)).ok();
    });
    let report = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("loadgen finished within 60 s")
        .unwrap();
    client.join().unwrap();
    assert_eq!(report.responses, total as u64);
    assert_eq!(report.error_lines, total as u64);
    assert!(
        registry
            .snapshot()
            .counter("net_backpressure_stalls_total")
            .unwrap_or(0)
            > 0,
        "the server never stopped reading"
    );
    assert_eq!(server.stop().served, total as u64);
}

#[test]
fn drain_deadline_force_closes_an_idle_peer() {
    let (store, _) = store_and_requests();
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::spawn(
        store,
        &registry,
        NetConfig {
            refresh_interval: Duration::ZERO,
            drain_deadline: Duration::from_millis(200),
            ..NetConfig::default()
        },
    );
    // An idle peer that never sends a byte and never closes: only the
    // deadline ends the drain. The drain adopts it from the accept
    // backlog if the loop has not accepted it yet.
    let mut idle = TcpStream::connect(&server.addr).unwrap();
    let started = Instant::now();
    let summary = server.stop();
    let took = started.elapsed();
    assert!(
        took >= Duration::from_millis(150) && took < Duration::from_secs(5),
        "drain took {took:?}, deadline was 200ms"
    );
    assert_eq!(summary.accepted, 1);
    assert_eq!(registry.snapshot().gauge("net_active_connections"), Some(0));
    assert!(read_frames(&mut idle).is_empty(), "closed without a frame");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request round-trips through the wire encoding.
    #[test]
    fn request_frames_roundtrip(
        name_seed in 0usize..1_000_000,
        coords in proptest::collection::vec(-1.0e6f64..1.0e6, 1..24),
    ) {
        let req = DiagnosisRequest::new(format!("cut-{name_seed}"), Signature::new(coords));
        let frame = encode_request(&req);
        let (kind, payload, consumed) = decode_frame(&frame).unwrap().unwrap();
        prop_assert_eq!(kind, fault_trajectory::serve::net::FRAME_REQUEST);
        prop_assert_eq!(consumed, frame.len());
        let back = fault_trajectory::serve::net::decode_request(payload).unwrap();
        prop_assert_eq!(back, req);
    }

    /// A single corrupted byte anywhere in a frame never yields the
    /// original frame back (FNV-1a is injective per byte step, so any
    /// flip perturbs the checksum).
    #[test]
    fn corrupted_request_frames_never_decode_to_the_original(
        coords in proptest::collection::vec(-100.0f64..100.0, 1..8),
        byte_seed in 0usize..10_000,
        flip_seed in 1usize..256,
    ) {
        let flip = flip_seed as u8;
        let req = DiagnosisRequest::new("cut", Signature::new(coords));
        let frame = encode_request(&req);
        let pos = byte_seed % frame.len();
        let mut bad = frame.clone();
        bad[pos] ^= flip;
        // Rejected (Err) or left waiting for more bytes (Ok(None)) are
        // both safe; only a full decode back to the original is a bug.
        if let Ok(Some((kind, payload, _))) = decode_frame(&bad) {
            let identical = kind == fault_trajectory::serve::net::FRAME_REQUEST
                && fault_trajectory::serve::net::decode_request(payload)
                    .is_ok_and(|back| back == req);
            prop_assert!(!identical, "byte {pos} flip {flip:#x} passed undetected");
        }
    }
}
