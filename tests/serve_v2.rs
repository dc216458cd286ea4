//! Acceptance tests for the sectioned bank format, the sharded
//! `BankStore`, and the persistent-pool serving front-end:
//!
//! * a bank with a `MultiFaultSection` round-trips its
//!   `MultiFaultDictionary` byte-identically;
//! * per-section single-byte corruption is detected *and attributed* to
//!   the section it hit; unknown sections are skipped losslessly;
//! * `BankStore` routing over two CUTs and `ServeHandle` at worker
//!   counts 1, 2, and 8 serve exactly the per-bank engine's top-1
//!   prefix (`DiagnosisEngine::diagnose_topk(sig, 1)`), whose verdict,
//!   ambiguity set and response line are the per-bank linear scan's
//!   (`DiagnosisEngine::diagnose_linear`).

use std::sync::Arc;

use fault_trajectory::core::Diagnosis;
use fault_trajectory::faults::all_pairs;
use fault_trajectory::prelude::*;
use fault_trajectory::serve::{
    checksum, diagnose_on, response_line, synthetic_queries, ContainerBuilder, FileGen,
    SectionTable, ServeResult,
};

/// The paper CUT's bank at quality factor `q`, with the exhaustive
/// pair-fault dictionary attached as a multi-fault section.
fn paper_bank_with_multifault(q: f64) -> TrajectoryBank {
    let bench = tow_thomas_normalized(q).expect("benchmark builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(40.0, 20.0));
    let grid = FrequencyGrid::log_space(0.01, 100.0, 11);
    let dict = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .expect("dictionary builds");
    let mfd = MultiFaultDictionary::build(
        &bench.circuit,
        &all_pairs(&universe)[..40],
        &bench.input,
        &bench.probe,
        &grid,
    )
    .expect("multi-fault dictionary builds");
    TrajectoryBank::build(dict, &TestVector::pair(0.6, 1.6)).with_multifault(mfd)
}

#[test]
fn multifault_dictionary_round_trips_byte_identically() {
    let bank = paper_bank_with_multifault(1.0);
    let bytes = bank.to_bytes();
    let back = TrajectoryBank::from_bytes(&bytes).expect("container loads");
    assert_eq!(back, bank);
    assert_eq!(
        back.multifault_dictionary().expect("section decoded"),
        bank.multifault_dictionary().unwrap(),
    );
    // Byte-identical re-encode: save/load/save yields the same file.
    assert_eq!(back.to_bytes(), bytes);
    // The bytes themselves are pinned, so a change to what both the
    // writer and the reader do cannot pass as a round trip.
    assert_eq!(bytes.len(), 9_034);
    assert_eq!(checksum(&bytes), 0x9859_9091_191b_c58c);

    // And through disk, like a deployment would.
    let path = std::env::temp_dir().join("serve_v2_multifault.ftb");
    bank.save(&path).expect("saves");
    let loaded = TrajectoryBank::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_bytes(), bytes);
}

#[test]
fn per_section_corruption_is_attributed_to_the_right_section() {
    use fault_trajectory::serve::CodecError;

    let bytes = paper_bank_with_multifault(1.0).to_bytes();
    let sections: Vec<(u16, usize, usize)> = SectionTable::parse(&bytes)
        .expect("container parses")
        .entries()
        .iter()
        .map(|e| (e.kind, e.offset, e.len))
        .collect();
    assert_eq!(sections.len(), 3, "dictionary, trajectories, multifault");

    for &(kind, offset, len) in &sections {
        // Flip a byte near the start, middle, and end of the payload.
        for pos in [offset, offset + len / 2, offset + len - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            let err =
                TrajectoryBank::from_bytes(&corrupt).expect_err("corruption must be detected");
            match err {
                CodecError::SectionChecksumMismatch { kind: hit, .. } => {
                    assert_eq!(
                        hit, kind,
                        "flip at byte {pos} attributed to section {hit}, expected {kind}"
                    );
                }
                other => panic!("expected SectionChecksumMismatch, got {other}"),
            }
        }
    }
}

#[test]
fn unknown_sections_are_skipped_losslessly() {
    let bank = paper_bank_with_multifault(1.0);
    let bytes = bank.to_bytes();
    let table = SectionTable::parse(&bytes).expect("container parses");

    // Rebuild the container with an unknown section spliced between the
    // known ones — a future format extension this reader predates.
    let mut builder = ContainerBuilder::new();
    for (i, e) in table.entries().iter().enumerate() {
        if i == 1 {
            builder.push_section(0x7abc, b"from-the-future".to_vec());
        }
        builder.push_section(e.kind, e.payload(&bytes).to_vec());
    }
    builder.push_section(0x7abd, Vec::new());
    let extended = builder.finish();

    let back = TrajectoryBank::from_bytes(&extended).expect("unknown sections skip");
    assert_eq!(back, bank, "skipping must not perturb the decoded bank");
    // Required sections must still be required: a container holding
    // only the unknown sections fails loudly.
    let mut builder = ContainerBuilder::new();
    builder.push_section(0x7abc, b"nothing useful".to_vec());
    assert!(TrajectoryBank::from_bytes(&builder.finish()).is_err());
}

#[test]
fn store_routing_and_pool_match_per_bank_batches_at_1_2_8_workers() {
    // Two genuinely different CUTs (Q factors) in one shard directory.
    let dir = std::env::temp_dir().join("serve_v2_acceptance_shards");
    std::fs::create_dir_all(&dir).expect("shard dir");
    let bank_q1 = paper_bank_with_multifault(1.0);
    let bank_q2 = paper_bank_with_multifault(2.0);
    bank_q1.save(dir.join("q1.ftb")).expect("saves q1");
    bank_q2.save(dir.join("q2.ftb")).expect("saves q2");

    // A mixed request stream interleaving both CUTs.
    let sig_q1 = synthetic_queries(bank_q1.trajectory_set(), 17, 100);
    let sig_q2 = synthetic_queries(bank_q2.trajectory_set(), 17, 200);
    let mut requests: Vec<DiagnosisRequest> = Vec::new();
    for (a, b) in sig_q1.iter().zip(&sig_q2) {
        requests.push(DiagnosisRequest::new("q1", a.clone()));
        requests.push(DiagnosisRequest::new("q2", b.clone()));
    }

    // Reference: the per-bank linear scan (full rankings), and the
    // per-bank top-1 prefix every served request must equal.
    let engine_q1 = DiagnosisEngine::new(bank_q1.into_trajectory_set(), EngineConfig::default());
    let engine_q2 = DiagnosisEngine::new(bank_q2.into_trajectory_set(), EngineConfig::default());
    let mut reference = Vec::with_capacity(requests.len());
    let mut served_ref = Vec::with_capacity(requests.len());
    for (sa, sb) in sig_q1.iter().zip(&sig_q2) {
        reference.push(engine_q1.diagnose_linear(sa));
        reference.push(engine_q2.diagnose_linear(sb));
        served_ref.push(engine_q1.diagnose_topk(sa, 1));
        served_ref.push(engine_q2.diagnose_topk(sb, 1));
    }

    for workers in [1usize, 2, 8] {
        let store = Arc::new(BankStore::open(&dir, EngineConfig::default()).expect("store opens"));
        assert_eq!(store.loaded_count(), 0, "shards load lazily");
        let mut handle = ServeHandle::new(Arc::clone(&store), workers);
        // Pipeline several sub-batches to exercise reassembly.
        for chunk in requests.chunks(9) {
            handle.submit(chunk.to_vec());
        }
        let drained: Vec<Diagnosis> = handle
            .drain()
            .into_iter()
            .flatten()
            .map(|r| r.expect("request serves"))
            .collect();
        assert_eq!(
            drained, served_ref,
            "pooled front-end diverged from the per-bank top-1 prefix at {workers} workers"
        );
        for ((req, got), full) in requests.iter().zip(&drained).zip(&reference) {
            assert_eq!(
                got.best(),
                full.best(),
                "verdict drift at {workers} workers"
            );
            assert_eq!(got.ambiguity_set(), full.ambiguity_set());
            assert_eq!(
                response_line(&req.cut_id, &Ok(got.clone())),
                response_line(&req.cut_id, &Ok(full.clone())),
                "served line diverged from the per-bank linear scan at {workers} workers"
            );
        }
        assert_eq!(
            store.loaded_count(),
            2,
            "both shards resident after serving"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_and_full_loads_diagnose_byte_identically() {
    // Property: for banks of varying shape (with/without multifault,
    // varying Q), the engine the store serves a shard with
    // (`DiagnosisEngine::open`, trajectory section only) and one built
    // over the fully loaded bank return bit-identical diagnoses on
    // every path.
    let dir = std::env::temp_dir().join("serve_v2_served_parity");
    std::fs::create_dir_all(&dir).expect("dir");
    for (name, bank) in [
        ("q1", paper_bank_with_multifault(1.0)),
        ("q2", paper_bank_with_multifault(2.0)),
        ("plain", {
            let with_mfd = paper_bank_with_multifault(0.8);
            TrajectoryBank::build(with_mfd.dictionary().clone(), with_mfd.test_vector())
        }),
    ] {
        let path = dir.join(format!("{name}.ftb"));
        bank.save(&path).expect("saves");

        let full = TrajectoryBank::load(&path).expect("full load");
        let full = DiagnosisEngine::new(full.into_trajectory_set(), EngineConfig::default());
        let (served, shard) =
            DiagnosisEngine::open(&path, EngineConfig::default()).expect("served load");
        assert_eq!(
            shard.generation(),
            FileGen::probe(&path).expect("stat"),
            "the served load records the file generation"
        );

        for q in &synthetic_queries(bank.trajectory_set(), 23, 42) {
            let want = full.diagnose_linear(q);
            assert_eq!(
                want,
                served.diagnose_linear(q),
                "linear diverged on `{name}`"
            );
            assert_eq!(
                want,
                full.diagnose(q),
                "full-load index diverged on `{name}`"
            );
            assert_eq!(
                want,
                served.diagnose(q),
                "served index diverged on `{name}`"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_open_defers_corruption_outside_the_hot_section() {
    // The served load reads only the trajectory section: damage to the
    // dictionary or multi-fault payload must not stop diagnosis (which
    // only needs the trajectories), while the full load the offline
    // tools use still detects it and attributes it to the section it
    // hit and the file. Damage to the trajectory section, or a
    // coordinate no checksum can catch, stops the served load.
    let bank = paper_bank_with_multifault(1.0);
    let bytes = bank.to_bytes();
    let sections: Vec<(u16, usize, usize)> = SectionTable::parse(&bytes)
        .expect("container parses")
        .entries()
        .iter()
        .map(|e| (e.kind, e.offset, e.len))
        .collect();
    let reference = DiagnosisEngine::new(bank.trajectory_set().clone(), EngineConfig::default());
    let queries = synthetic_queries(bank.trajectory_set(), 9, 77);

    let dir = std::env::temp_dir().join("serve_v2_mapped_lazy_corruption");
    std::fs::create_dir_all(&dir).expect("dir");
    for &(kind, offset, len) in &sections {
        let mut corrupt = bytes.clone();
        corrupt[offset + len / 2] ^= 0x40;
        let path = dir.join(format!("kind{kind}.ftb"));
        std::fs::write(&path, &corrupt).expect("writes");

        if kind == fault_trajectory::serve::SECTION_TRAJECTORIES {
            // The damaged region still decodes, so the open succeeds;
            // the checksum comparison every engine load runs before
            // serving attributes the damage, and the engine refuses
            // the shard.
            let (mapped, _) = MappedBank::open(&path).expect("the damaged region still decodes");
            let err = mapped
                .verify_trajectory_payload()
                .expect_err("deferred verification detects damage");
            assert!(err.to_string().contains("trajectories"), "got: {err}");
            let err = DiagnosisEngine::open(&path, EngineConfig::default())
                .expect_err("engine must refuse the damaged shard");
            assert!(err.to_string().contains("trajectories"), "got: {err}");
            continue;
        }
        let (engine, _) = DiagnosisEngine::open(&path, EngineConfig::default())
            .expect("the served load never reads the damaged section");
        assert_eq!(
            engine.trajectory_set(),
            bank.trajectory_set(),
            "trajectories unaffected"
        );
        for q in &queries {
            assert_eq!(engine.diagnose(q), reference.diagnose(q));
        }
        let err = TrajectoryBank::load(&path).expect_err("the full load detects damage");
        let msg = err.to_string();
        let name = fault_trajectory::serve::section_name(kind);
        assert!(msg.contains(name), "`{name}` missing from: {msg}");
        assert!(
            msg.contains(&format!("kind{kind}.ftb")),
            "path missing from: {msg}"
        );
    }

    // A NaN last coordinate, re-framed so every checksum holds: only the
    // content validation can refuse it, and both served paths must.
    let mut nan = ContainerBuilder::new();
    for &(kind, offset, len) in &sections {
        let mut payload = bytes[offset..offset + len].to_vec();
        if kind == fault_trajectory::serve::SECTION_TRAJECTORIES {
            payload[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        }
        nan.push_section(kind, payload);
    }
    let path = dir.join("nan.ftb");
    std::fs::write(&path, nan.finish()).expect("writes");
    let (shard, _) = MappedBank::open(&path).expect("the frame is sound");
    shard
        .verify_trajectory_payload()
        .expect("every checksum holds");
    let named = |msg: String| msg.contains("nan.ftb") && msg.contains("finite");
    let err = DiagnosisEngine::open(&path, EngineConfig::default())
        .expect_err("a NaN coordinate must not serve");
    assert!(named(err.to_string()), "got: {err}");
    let store = BankStore::open(&dir, EngineConfig::default()).expect("store opens");
    let err = store
        .engine("nan")
        .expect_err("the store must refuse it too");
    assert!(named(err.to_string()), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_shard_budget_serves_three_shard_stream_identically_to_unbounded() {
    // The headline out-of-core property: a store whose memory budget
    // holds only the largest single shard's trajectory section must
    // serve a mixed-CUT stream over three shards byte-identically to an
    // unbounded store, across random interleavings and worker counts —
    // eviction may only cost reloads, never answers.
    let dir = std::env::temp_dir().join("serve_v2_out_of_core_shards");
    std::fs::create_dir_all(&dir).expect("shard dir");
    let cuts = ["q08", "q10", "q20"];
    let banks = [
        paper_bank_with_multifault(0.8),
        paper_bank_with_multifault(1.0),
        paper_bank_with_multifault(2.0),
    ];
    let mut budget = 0u64;
    for (cut, bank) in cuts.iter().zip(&banks) {
        let path = dir.join(format!("{cut}.ftb"));
        bank.save(&path).expect("saves");
        let (mapped, _) = MappedBank::open(&path).expect("opens");
        budget = budget.max(mapped.resident_bytes());
    }

    let unbounded = BankStore::open(&dir, EngineConfig::default()).expect("unbounded store");
    let tight_config = StoreConfig {
        mem_budget: Some(budget),
        ..StoreConfig::new(EngineConfig::default())
    };

    // Random interleavings, direct store path: results never differ.
    let mut state = 0x243f_6a88u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let per_cut: Vec<Vec<Signature>> = banks
        .iter()
        .enumerate()
        .map(|(i, b)| synthetic_queries(b.trajectory_set(), 20, 300 + i as u64))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let tight = BankStore::open_with(&dir, tight_config)
        .expect("tight store")
        .with_metrics(&registry);
    let mut cursors = [0usize; 3];
    let mut served = 0usize;
    while served < 60 {
        let pick = next() % 3;
        let i = &mut cursors[pick];
        if *i == per_cut[pick].len() {
            continue;
        }
        let req = DiagnosisRequest::new(cuts[pick], per_cut[pick][*i].clone());
        *i += 1;
        served += 1;
        let want = diagnose_on(&unbounded.engine(&req.cut_id).expect("unbounded"), &req)
            .expect("unbounded serves");
        let got =
            diagnose_on(&tight.engine(&req.cut_id).expect("tight"), &req).expect("tight serves");
        assert_eq!(got, want, "eviction changed an answer (request {served})");
        assert!(
            tight.resident_bytes() <= budget,
            "budget exceeded: {} > {budget}",
            tight.resident_bytes()
        );
    }
    let evictions = registry
        .snapshot()
        .counter("store_shard_evictions_total")
        .unwrap_or(0);
    assert!(evictions > 0, "a one-shard budget must evict");

    // Through the pooled front-end at 1, 2, and 8 workers.
    let mut requests: Vec<DiagnosisRequest> = Vec::new();
    for i in 0..per_cut[0].len() {
        for (cut, sigs) in cuts.iter().zip(&per_cut) {
            requests.push(DiagnosisRequest::new(*cut, sigs[i].clone()));
        }
    }
    let reference: Vec<Diagnosis> = requests
        .iter()
        .map(|r| {
            diagnose_on(&unbounded.engine(&r.cut_id).expect("unbounded"), r)
                .expect("unbounded serves")
        })
        .collect();
    for workers in [1usize, 2, 8] {
        let registry = Arc::new(MetricsRegistry::new());
        let store = Arc::new(
            BankStore::open_with(&dir, tight_config)
                .expect("store")
                .with_metrics(&registry),
        );
        let mut handle = ServeHandle::new(Arc::clone(&store), workers);
        for chunk in requests.chunks(7) {
            handle.submit(chunk.to_vec());
        }
        let drained: Vec<Diagnosis> = handle
            .drain()
            .into_iter()
            .flatten()
            .map(|r| r.expect("request serves"))
            .collect();
        assert_eq!(
            drained, reference,
            "tight-budget pool diverged from unbounded at {workers} workers"
        );
        assert!(
            store.resident_bytes() <= budget,
            "budget exceeded under pool"
        );
        let evictions = registry
            .snapshot()
            .counter("store_shard_evictions_total")
            .unwrap_or(0);
        assert!(evictions > 0, "the pool at {workers} workers never evicted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper CUT's bank at quality factor `q` with a dense dictionary
/// (201 grid points, the paper's ±40% in 10% steps) and no multi-fault
/// section, so the trajectory section is the file's last section and
/// starts well past its first half.
fn dense_paper_bank(q: f64) -> TrajectoryBank {
    let bench = tow_thomas_normalized(q).expect("benchmark builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(0.01, 100.0, 201);
    let dict = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .expect("dictionary builds");
    TrajectoryBank::build(dict, &TestVector::pair(0.6, 1.6))
}

#[test]
fn loaded_shard_survives_in_place_truncation_and_rewrite() {
    // A loaded shard is an owned, checksummed copy of its trajectory
    // section. Truncating the file in place must not change a loaded
    // answer or fault the process; a refresh then attributes the damaged
    // file to every request for its CUT while the other CUT serves on;
    // and a valid bank written back in place serves after the next
    // refresh.
    let dir = std::env::temp_dir().join("serve_v2_in_place_rewrite");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("shard dir");
    let bank_a = dense_paper_bank(1.0);
    let bank_b = dense_paper_bank(2.0);
    let bank_c = dense_paper_bank(1.5);
    let path_a = dir.join("a.ftb");
    bank_a.save(&path_a).expect("saves a");
    bank_b.save(dir.join("b.ftb")).expect("saves b");
    // The truncation below cuts the file in half; the trajectory section
    // starts more than a page past the cut, so none of it survives.
    let bytes_a = bank_a.to_bytes();
    let traj = *SectionTable::parse(&bytes_a)
        .expect("container parses")
        .locate(fault_trajectory::serve::SECTION_TRAJECTORIES)
        .expect("unique")
        .expect("present");
    assert!(traj.offset >= bytes_a.len() / 2 + 4096, "{traj:?}");

    let queries_a = synthetic_queries(bank_a.trajectory_set(), 12, 500);
    let queries_b = synthetic_queries(bank_b.trajectory_set(), 12, 501);
    let requests: Vec<DiagnosisRequest> = queries_a
        .iter()
        .zip(&queries_b)
        .flat_map(|(a, b)| {
            [
                DiagnosisRequest::new("a", a.clone()),
                DiagnosisRequest::new("b", b.clone()),
            ]
        })
        .collect();
    // The per-bank top-1 answers a request must receive, with "a"
    // served by `bank_for_a`.
    let engine_b = DiagnosisEngine::new(bank_b.into_trajectory_set(), EngineConfig::default());
    let reference = |bank_for_a: &TrajectoryBank| -> Vec<Diagnosis> {
        let set = bank_for_a.trajectory_set().clone();
        let engine_a = DiagnosisEngine::new(set, EngineConfig::default());
        requests
            .iter()
            .map(|r| {
                let engine = if r.cut_id == "a" {
                    &engine_a
                } else {
                    &engine_b
                };
                engine.diagnose_topk(&r.signature, 1)
            })
            .collect()
    };

    // A long stat interval: only `refresh` looks at the files.
    let config = StoreConfig {
        min_stat_interval: std::time::Duration::from_secs(3600),
        ..StoreConfig::new(EngineConfig::default())
    };
    let store = Arc::new(BankStore::open_with(&dir, config).expect("store opens"));
    let mut handle = ServeHandle::new(Arc::clone(&store), 2);
    let serve_both = |handle: &mut ServeHandle| -> (Vec<ServeResult>, Vec<ServeResult>) {
        handle.submit(requests.clone());
        let pooled = handle.drain_one().expect("batch completes");
        (requests.iter().map(|r| store.diagnose(r)).collect(), pooled)
    };
    let all_ok = |results: Vec<ServeResult>| -> Vec<Diagnosis> {
        results
            .into_iter()
            .map(|r| r.expect("request serves"))
            .collect()
    };

    let expected = reference(&bank_a);
    let (direct, pooled) = serve_both(&mut handle);
    assert_eq!(all_ok(direct), expected);
    assert_eq!(all_ok(pooled), expected);
    let engine_a = store.engine("a").expect("a is loaded");
    let linear: Vec<Diagnosis> = queries_a
        .iter()
        .map(|q| engine_a.diagnose_linear(q))
        .collect();

    // Truncate the loaded shard in place: same inode, half its bytes.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path_a)
        .expect("opens for writing")
        .set_len(bytes_a.len() as u64 / 2)
        .expect("truncates");
    let (direct, pooled) = serve_both(&mut handle);
    assert_eq!(
        all_ok(direct),
        expected,
        "truncation changed a stored answer"
    );
    assert_eq!(
        all_ok(pooled),
        expected,
        "truncation changed a pooled answer"
    );
    let linear_after: Vec<Diagnosis> = queries_a
        .iter()
        .map(|q| engine_a.diagnose_linear(q))
        .collect();
    assert_eq!(
        linear_after, linear,
        "the loaded copy must not see the file"
    );

    // A refresh sees the new generation, fails to reload it, and every
    // request for "a" is the attributed failure; "b" still serves.
    let summary = store.refresh();
    assert_eq!((summary.probed, summary.reloaded), (2, 1), "{summary:?}");
    let damaged = FileGen::probe(&path_a).expect("stat");
    let (direct, pooled) = serve_both(&mut handle);
    for results in [direct, pooled] {
        for ((req, got), want) in requests.iter().zip(results).zip(&expected) {
            match (req.cut_id.as_str(), got) {
                ("a", Err(err)) => {
                    assert!(
                        matches!(&err, StoreError::Bank { generation: Some(g), .. } if *g == damaged),
                        "{err:?}"
                    );
                    let msg = err.to_string();
                    assert!(msg.contains("a.ftb"), "path missing from: {msg}");
                    assert!(
                        msg.contains(&damaged.to_string()),
                        "generation missing from: {msg}"
                    );
                }
                ("b", Ok(got)) => assert_eq!(&got, want),
                (cut, got) => panic!("unexpected answer for `{cut}`: {got:?}"),
            }
        }
    }

    // Write a valid, different bank back in place: after the next
    // refresh it serves.
    std::fs::write(&path_a, bank_c.to_bytes()).expect("rewrites in place");
    let summary = store.refresh();
    assert_eq!(summary.reloaded, 1, "{summary:?}");
    let expected_c = reference(&bank_c);
    assert_ne!(expected_c, expected, "the rewrite must change answers");
    let (direct, pooled) = serve_both(&mut handle);
    assert_eq!(all_ok(direct), expected_c);
    assert_eq!(all_ok(pooled), expected_c);
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_open_refuses_hostile_headers_within_the_file_length() {
    // Three hostile headers: a file shorter than the header, a section
    // count of u32::MAX (a 77 GB table), and a table entry declaring a
    // payload past the end of the file. Each must be an attributed
    // `Truncated` error that compares the declared size with the file's
    // length — the reader checks every declared size against the file
    // before it sizes a buffer, so it never allocates more than the
    // file holds (a reader that allocated first would abort here).
    use fault_trajectory::serve::CodecError;

    let bytes = paper_bank_with_multifault(1.0).to_bytes();
    let table_end = 22 + 3 * 18;
    let mut huge_count = bytes.clone();
    huge_count[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    // The trajectory entry (the second) declares u64::MAX / 2 payload
    // bytes; the table checksum is recomputed so the length check is
    // what refuses it.
    let mut past_eof = bytes.clone();
    past_eof[22 + 18 + 2..22 + 18 + 10].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    let mut covered = past_eof[10..14].to_vec();
    covered.extend_from_slice(&past_eof[22..table_end]);
    past_eof[14..22].copy_from_slice(&checksum(&covered).to_le_bytes());

    let dir = std::env::temp_dir().join("serve_v2_hostile_headers");
    std::fs::create_dir_all(&dir).expect("dir");
    for (name, file, declared) in [
        ("short", bytes[..16].to_vec(), Some(22)),
        ("count", huge_count, Some(22 + 18 * u32::MAX as usize)),
        ("entry", past_eof, None),
    ] {
        let path = dir.join(format!("{name}.ftb"));
        std::fs::write(&path, &file).expect("writes");
        let err = MappedBank::open(&path).expect_err("hostile header must not open");
        match &err {
            CodecError::InFile { path: p, source } => {
                assert_eq!(p, &path);
                match **source {
                    CodecError::Truncated { needed, available } => {
                        assert_eq!(available, file.len(), "{name}: {err}");
                        assert!(needed > available, "{name}: {err}");
                        if let Some(declared) = declared {
                            assert_eq!(needed, declared, "{name}: {err}");
                        }
                    }
                    ref other => panic!("{name}: expected Truncated, got {other:?}"),
                }
            }
            other => panic!("{name}: expected an attributed error, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("{name}.ftb")), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_load_error_names_the_failing_shard() {
    let dir = std::env::temp_dir().join("serve_v2_load_error_test");
    std::fs::create_dir_all(&dir).expect("dir");
    let path = dir.join("broken.ftb");
    // A structurally valid header with a corrupt body.
    let mut bytes = paper_bank_with_multifault(1.0).to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).expect("writes");

    let err = TrajectoryBank::load(&path).expect_err("corrupt shard must not load");
    let msg = err.to_string();
    assert!(msg.contains("broken.ftb"), "path missing from: {msg}");
    assert!(msg.contains("multifault"), "section missing from: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_directory_named_like_a_shard_is_neither_listed_nor_routed() {
    let dir = std::env::temp_dir().join(format!("serve_v2_shard_dir_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("sub.ftb")).expect("shard dir");
    paper_bank_with_multifault(1.0)
        .save(dir.join("x.ftb"))
        .expect("saves");
    let store = BankStore::open(&dir, EngineConfig::default()).expect("opens");
    assert_eq!(store.cut_ids(), vec!["x".to_string()]);
    let request = DiagnosisRequest::new("sub", Signature::new(vec![0.0, 0.0]));
    assert!(
        matches!(store.diagnose(&request), Err(StoreError::UnknownCut(_))),
        "a directory was routed as a shard"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_replaces_the_file_atomically() {
    use std::io::Read;
    // A reader that opened the shard before a save keeps reading the old
    // file to its end: the save writes `<path>.tmp` and renames it over
    // the path instead of truncating the file in place.
    let dir = std::env::temp_dir().join(format!("serve_v2_atomic_save_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dir");
    let path = dir.join("cut.ftb");
    let old = paper_bank_with_multifault(1.0);
    let new = paper_bank_with_multifault(2.0);
    old.save(&path).expect("saves the old bank");
    let mut held = std::fs::File::open(&path).expect("opens");
    new.save(&path).expect("saves the new bank");

    let mut read = Vec::new();
    held.read_to_end(&mut read).expect("reads the held handle");
    assert!(
        read == old.to_bytes(),
        "the held handle saw the file change under it"
    );
    assert_eq!(TrajectoryBank::load(&path).expect("loads"), new);
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "the temporary file was left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
