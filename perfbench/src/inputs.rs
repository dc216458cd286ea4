//! The circuits, banks and requests the workloads run on.
//!
//! Banks depend only on the workload; everything random — which CUT a
//! request targets, the simulated off-grid fault, the traced GA replay's
//! seed — comes from the run's `--seed`.

use std::path::Path;

use ft_circuit::{rlc_ladder_lowpass, tow_thomas_normalized, Benchmark};
use ft_core::{measure_signature, TestVector};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
use ft_numerics::FrequencyGrid;
use ft_serve::net::encode_request;
use ft_serve::{response_line, BankStore, DiagnosisRequest, EngineConfig, TrajectoryBank};
use rand::rngs::StdRng;
use rand::Rng;

/// `build-bank`'s dictionary grid and test vector.
const GRID_POINTS: usize = 41;
const TEST_VECTOR: (f64, f64) = (0.6, 1.6);

/// Smallest simulated deviation, as `ftd diagnose --random` draws them.
const MIN_FAULT_PCT: f64 = 5.0;

/// One circuit under test: its netlist package, fault universe and
/// dictionary grid, and the shard id it is served under.
#[derive(Debug, Clone)]
pub struct Cut {
    pub id: String,
    pub bench: Benchmark,
    pub universe: FaultUniverse,
    pub grid: FrequencyGrid,
}

impl Cut {
    fn new(id: impl Into<String>, bench: Benchmark, step_pct: f64) -> Cut {
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(40.0, step_pct));
        let grid = FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, GRID_POINTS);
        Cut {
            id: id.into(),
            bench,
            universe,
            grid,
        }
    }

    /// Fault-simulates the dictionary (the offline phase's first step).
    pub fn dictionary(&self) -> FaultDictionary {
        let b = &self.bench;
        FaultDictionary::build(&b.circuit, &self.universe, &b.input, &b.probe, &self.grid)
            .expect("library circuits simulate on their own grid")
    }
}

pub fn test_vector() -> TestVector {
    TestVector::pair(TEST_VECTOR.0, TEST_VECTOR.1)
}

/// `fleet_tcp`'s 256 paper-size Tow-Thomas CUTs, Q log-spaced 0.5 → 8.
pub fn fleet_cuts() -> Vec<Cut> {
    (0..256)
        .map(|i| {
            let q = 0.5 * 16f64.powf(i as f64 / 255.0);
            let bench = tow_thomas_normalized(q).expect("normalized Tow-Thomas builds");
            Cut::new(format!("tt{i:03}"), bench, 10.0)
        })
        .collect()
}

/// `dense_serve`'s two simulated ladders at 0.25% deviation steps.
pub fn dense_cuts() -> Vec<Cut> {
    [9usize, 7]
        .iter()
        .map(|&order| {
            let bench = rlc_ladder_lowpass(order).expect("ladder orders 1-9 build");
            Cut::new(format!("ladder{order}"), bench, 0.25)
        })
        .collect()
}

/// The paper's CUT (normalized Tow-Thomas, Q = 1) at `build-bank`'s
/// grid: what the traced GA replay searches.
pub fn paper_cut() -> Cut {
    Cut::new(
        "paper",
        tow_thomas_normalized(1.0).expect("paper CUT builds"),
        10.0,
    )
}

/// Encodes `bank` as format v3 and writes it to `<dir>/<id>.ftb`.
pub fn save_bank(dir: &Path, id: &str, bank: &TrajectoryBank) -> std::io::Result<Vec<u8>> {
    let bytes = bank.to_bytes();
    std::fs::write(dir.join(format!("{id}.ftb")), &bytes)?;
    Ok(bytes)
}

/// One request: the wire frame, the routed request, the simulated
/// fault's component and the oracle's response line.
#[derive(Debug, Clone)]
pub struct Request {
    pub request: DiagnosisRequest,
    pub frame: Vec<u8>,
    pub truth: String,
    pub expected: String,
}

impl Request {
    /// Whether `line` names the simulated fault's component as best.
    pub fn verdict_hit(&self, line: &str) -> bool {
        line.split('\t').nth(1) == Some(self.truth.as_str())
    }
}

/// Simulates `count` off-grid single faults, each on a CUT drawn
/// uniformly from `cuts`, measured at each CUT's test vector, with the
/// oracle line rendered from the linear scan over `oracle`'s shards.
pub fn simulate_requests(
    cuts: &[(Cut, TestVector)],
    oracle: &BankStore,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let (cut, tv) = &cuts[rng.gen_range(0..cuts.len())];
            let fault = cut.universe.sample_unknown(rng, MIN_FAULT_PCT);
            let b = &cut.bench;
            let faulty = fault.apply(&b.circuit).expect("universe faults apply");
            let signature = measure_signature(&faulty, &b.circuit, &b.input, &b.probe, tv)
                .expect("faulty library circuits simulate");
            let request = DiagnosisRequest::new(cut.id.clone(), signature);
            let engine = oracle.engine(&cut.id).expect("oracle shard present");
            let expected = response_line(&cut.id, &Ok(engine.diagnose_linear(&request.signature)));
            Request {
                frame: encode_request(&request),
                request,
                truth: fault.component().to_string(),
                expected,
            }
        })
        .collect()
}

/// An in-memory store of heap engines over `banks` — the oracle side.
pub fn oracle_store(banks: &[(String, TrajectoryBank)]) -> BankStore {
    let store = BankStore::in_memory(EngineConfig::default());
    for (id, bank) in banks {
        store
            .insert_bank(id, bank.clone())
            .expect("valid shard ids");
    }
    store
}
