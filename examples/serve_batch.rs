//! The full serving lifecycle: build a trajectory bank, persist it,
//! reload it, and answer 100 noisy observations through the indexed
//! diagnosis engine, each checked against the linear scan — then serve
//! the same observations through the sharded `BankStore` + persistent
//! `ServeHandle` worker pool and check that the pool serves the
//! engine's top-1 prefix, whose verdict, ambiguity set and response
//! line are the full ranking's.
//!
//! ```sh
//! cargo run --release --example serve_batch
//! ```

use fault_trajectory::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- offline phase: simulate once, persist the artifacts --------
    let bench = tow_thomas_normalized(1.0)?;
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let dict = FaultDictionary::build(
        &bench.circuit,
        &universe,
        &bench.input,
        &bench.probe,
        &FrequencyGrid::log_space(0.01, 100.0, 41),
    )?;
    let tv = TestVector::pair(0.6, 1.6);
    let bank = TrajectoryBank::build(dict, &tv);

    let path = std::env::temp_dir().join("serve_batch_example.ftb");
    bank.save(&path)?;
    println!(
        "saved bank: {} trajectories / {} segments, {} bytes at {}",
        bank.trajectory_set().len(),
        bank.trajectory_set().total_segments(),
        std::fs::metadata(&path)?.len(),
        path.display()
    );

    // ---- online phase: load, index, serve ---------------------------
    let loaded = TrajectoryBank::load(&path)?;
    assert_eq!(loaded, bank, "disk round trip is lossless");
    let engine = DiagnosisEngine::new(loaded, EngineConfig::default());

    // 100 unknown faults, off the dictionary grid, with 0.1 dB of
    // instrument noise on every measured magnitude.
    let noise = MeasurementNoise::new(0.1);
    let mut rng = StdRng::seed_from_u64(2005);
    let mut faults = Vec::new();
    let mut observations = Vec::new();
    for _ in 0..100 {
        let fault = engine
            .bank()
            .expect("heap engine keeps its bank")
            .dictionary()
            .universe()
            .sample_unknown(&mut rng, 5.0);
        let faulty = fault.apply(&bench.circuit)?;
        let clean = measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv)?;
        let noisy = Signature::new(
            clean
                .coords()
                .iter()
                .map(|&db| noise.perturb(db, &mut rng))
                .collect::<Vec<f64>>(),
        );
        faults.push(fault);
        observations.push(noisy);
    }

    let started = std::time::Instant::now();
    let verdicts: Vec<_> = observations.iter().map(|s| engine.diagnose(s)).collect();
    let elapsed = started.elapsed();

    // The index must agree with the exhaustive linear scan.
    for (sig, verdict) in observations.iter().zip(&verdicts) {
        assert_eq!(verdict, &engine.diagnose_linear(sig), "index is exact");
    }

    let mut top1 = 0;
    let mut in_set = 0;
    for (fault, verdict) in faults.iter().zip(&verdicts) {
        top1 += (verdict.best().component == fault.component()) as usize;
        in_set += verdict.ambiguity_set().contains(&fault.component()) as usize;
    }
    println!(
        "diagnosed {} noisy observations in {elapsed:.2?}: {top1}% top-1, {in_set}% within the ambiguity set",
        verdicts.len()
    );

    // ---- sharded front-end: same bank behind a CUT-id route ---------
    let store = std::sync::Arc::new(fault_trajectory::serve::BankStore::in_memory(
        EngineConfig::default(),
    ));
    store.insert_bank(
        "tow-thomas",
        engine.bank().expect("heap engine keeps its bank").clone(),
    )?;
    let mut handle = ServeHandle::new(store, 4);
    handle.submit(
        observations
            .iter()
            .map(|sig| DiagnosisRequest::new("tow-thomas", sig.clone()))
            .collect(),
    );
    let pooled: Vec<_> = handle
        .drain()
        .remove(0)
        .into_iter()
        .collect::<Result<_, _>>()?;
    assert_eq!(pooled.len(), verdicts.len());
    for ((sig, served), full) in observations.iter().zip(&pooled).zip(&verdicts) {
        assert_eq!(
            served,
            &engine.diagnose_topk(sig, 1),
            "persistent pool serves the top-1 prefix"
        );
        assert_eq!(
            served.best(),
            full.best(),
            "same verdict as the full ranking"
        );
        assert_eq!(served.ambiguity_set(), full.ambiguity_set());
        assert_eq!(
            fault_trajectory::serve::response_line("tow-thomas", &Ok(served.clone())),
            fault_trajectory::serve::response_line("tow-thomas", &Ok(full.clone())),
            "same response line as the full ranking"
        );
    }
    println!(
        "re-served the batch through BankStore + a {}-worker persistent pool: identical verdicts",
        handle.worker_count()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
