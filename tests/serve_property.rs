//! Property-based tests for the serving layer: bank codec round-trips,
//! corruption detection, indexed-vs-linear diagnosis agreement, and
//! served (top-1) response lines against the full ranking's — including
//! at the hard probes: far from every trajectory, and exactly
//! equidistant from two.

use fault_trajectory::core::{FaultTrajectory, TrajectorySet};
use fault_trajectory::prelude::*;
use fault_trajectory::serve::{response_line, synthetic_trajectory_set, SegmentIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a deliberately awkward trajectory set from a seed: ragged
/// point counts per trajectory and a quarter of the steps held in
/// place, so zero-length (degenerate) segments are common — the shapes
/// most likely to expose box/tie-break corner cases in the index.
fn jagged_set_from_seed(seed: u64, components: usize, dim: usize) -> TrajectorySet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trajectories = Vec::with_capacity(components);
    for c in 0..components {
        // Odd point count, symmetric grid: trajectories must contain
        // the 0% (origin) point.
        let half = rng.gen_range(1..7i64);
        let n_pts = (2 * half + 1) as usize;
        let devs: Vec<f64> = (-half..=half)
            .map(|i| i as f64 * (20.0 / half as f64))
            .collect();
        let mut cur: Vec<f64> = (0..dim).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let mut points = Vec::with_capacity(n_pts);
        for _ in 0..n_pts {
            points.push(Signature::new(cur.clone()));
            if rng.gen_bool(0.75) {
                for x in cur.iter_mut() {
                    *x += rng.gen_range(-2.0..2.0);
                }
            }
        }
        trajectories.push(FaultTrajectory::new(format!("C{c}"), devs, points));
    }
    // One probed frequency per signature dimension so any `dim` is a
    // valid multiple of the test-vector length.
    TrajectorySet::new(
        TestVector::new((1..=dim).map(|i| i as f64).collect()),
        trajectories,
    )
}

/// `set` with every trajectory translated so its 0% point sits at the
/// origin, as the golden circuit anchors every trajectory of a real
/// bank: at the origin every trajectory is at distance 0.
fn anchored_at_origin(set: &TrajectorySet) -> TrajectorySet {
    let trajectories = set
        .trajectories()
        .iter()
        .map(|t| {
            let zero = t
                .deviations_pct()
                .iter()
                .position(|&d| d == 0.0)
                .expect("jagged trajectories hold a 0% point");
            let at = t.points()[zero].coords().to_vec();
            let points = t
                .points()
                .iter()
                .map(|p| {
                    Signature::new(
                        p.coords()
                            .iter()
                            .zip(&at)
                            .map(|(x, o)| x - o)
                            .collect::<Vec<f64>>(),
                    )
                })
                .collect();
            FaultTrajectory::new(t.component(), t.deviations_pct().to_vec(), points)
        })
        .collect();
    TrajectorySet::new(set.test_vector().clone(), trajectories)
}

/// `set` plus a mirror image, across the plane where coordinate 0 is
/// zero, of the trajectory nearest to `probe`, which lies on that plane.
/// Negation is exact, so the twin's distance to `probe` equals the
/// original's bit for bit: the two tie at rank 1, and the first-wins
/// rule ranks the original (the lower index) first.
fn with_mirrored_nearest(set: &TrajectorySet, probe: &Signature) -> TrajectorySet {
    assert_eq!(probe.coords()[0], 0.0, "the probe lies on the mirror plane");
    let dists = LinearScan.best_per_trajectory(set, probe);
    let ti = (0..dists.len()).fold(0, |b, i| if dists[i].0 < dists[b].0 { i } else { b });
    let t = &set.trajectories()[ti];
    let points = t
        .points()
        .iter()
        .map(|p| {
            let mut c = p.coords().to_vec();
            c[0] = -c[0];
            Signature::new(c)
        })
        .collect();
    let mut trajectories = set.trajectories().to_vec();
    trajectories.push(FaultTrajectory::new(
        format!("{}'", t.component()),
        t.deviations_pct().to_vec(),
        points,
    ));
    let twinned = TrajectorySet::new(set.test_vector().clone(), trajectories);
    let tied = LinearScan.best_per_trajectory(&twinned, probe);
    assert_eq!(tied[ti], tied[set.len()], "the twin ties bit for bit");
    twinned
}

/// A point `1e3` from the origin in a random direction: far from every
/// trajectory, so no trajectory is found first.
fn far_probe(rng: &mut StdRng, dim: usize) -> Signature {
    let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    Signature::new(v.iter().map(|x| x / norm * 1e3).collect::<Vec<f64>>())
}

/// Builds a small but structurally varied bank from a seed: random
/// component names, deviation grid, dictionary grid, probe type, and
/// response data — no circuit simulation, so hundreds of cases stay
/// cheap.
fn bank_from_seed(seed: u64) -> TrajectoryBank {
    use fault_trajectory::faults::dictionary::DictionaryEntry;

    let mut rng = StdRng::seed_from_u64(seed);
    let all_names = ["R1", "R2", "R3", "C1", "C2", "L1", "Rfb"];
    let n_comp = rng.gen_range(1..5usize);
    let components: Vec<String> = all_names[..n_comp].iter().map(|s| s.to_string()).collect();
    let dev_grid = DeviationGrid::new(
        [20.0, 40.0, 50.0][rng.gen_range(0..3usize)],
        [5.0, 10.0][rng.gen_range(0..2usize)],
    );
    let universe = FaultUniverse::new(&components, dev_grid);

    let n_freq = rng.gen_range(2..12usize);
    let grid = if rng.gen_bool(0.5) {
        FrequencyGrid::log_space(0.01, 100.0, n_freq)
    } else {
        FrequencyGrid::lin_space(0.5, 90.0, n_freq)
    };
    let golden: Vec<f64> = (0..n_freq).map(|_| rng.gen_range(-60.0..10.0)).collect();
    let entries: Vec<DictionaryEntry> = universe
        .faults()
        .iter()
        .map(|f| {
            let mags: Vec<f64> = (0..n_freq).map(|_| rng.gen_range(-60.0..10.0)).collect();
            DictionaryEntry::new(f.clone(), mags)
        })
        .collect();
    let probe = if rng.gen_bool(0.5) {
        Probe::node("out")
    } else {
        Probe::differential("outp", "outn")
    };
    let dict = fault_trajectory::faults::FaultDictionary::from_parts(
        grid,
        golden,
        entries,
        universe,
        "V1".to_string(),
        probe,
    );
    TrajectoryBank::build(dict, &TestVector::pair(0.6, 1.6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `save` then `load` yields an equal bank, and re-encoding the
    /// loaded bank reproduces the original bytes exactly.
    #[test]
    fn bank_codec_round_trip(seed in 0i64..1_000_000) {
        let bank = bank_from_seed(seed as u64);
        let bytes = bank.to_bytes();
        let back = TrajectoryBank::from_bytes(&bytes).expect("round trip decodes");
        prop_assert!(back == bank, "decoded bank differs for seed {seed}");
        prop_assert_eq!(bytes, back.to_bytes());
    }

    /// Flipping any single byte of the container is detected.
    #[test]
    fn bank_codec_detects_single_byte_corruption(
        seed in 0i64..1_000_000, pos01 in 0.0f64..1.0, bit in 0i64..8
    ) {
        let bytes = bank_from_seed(seed as u64).to_bytes();
        let pos = ((pos01 * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        prop_assert!(
            TrajectoryBank::from_bytes(&corrupt).is_err(),
            "flip of bit {bit} at byte {pos} went undetected (seed {seed})"
        );
    }

    /// The shard reader's decode is indistinguishable from the full
    /// load: same trajectory set, bit-identical diagnoses, and the
    /// served engine holds the set in packed storage.
    #[test]
    fn mapped_view_matches_heap_decode(
        seed in 0i64..1_000_000, x in -9.0f64..9.0, y in -9.0f64..9.0
    ) {
        let bank = bank_from_seed(seed as u64);
        let path = std::env::temp_dir().join(format!("serve_property_mapped_{seed}.ftb"));
        bank.save(&path).expect("saves");
        let heap = DiagnosisEngine::load(&path, EngineConfig::default()).expect("heap load");
        let mapped =
            DiagnosisEngine::load_mapped(&path, EngineConfig::default()).expect("mapped load");
        std::fs::remove_file(&path).ok();
        prop_assert!(
            mapped.trajectory_set().is_packed(),
            "a set read from a file is packed (seed {seed})"
        );
        prop_assert!(mapped.trajectory_set() == heap.trajectory_set());
        let sig = Signature::new(vec![x, y]);
        prop_assert!(heap.diagnose(&sig) == mapped.diagnose(&sig));
        prop_assert!(heap.diagnose_linear(&sig) == mapped.diagnose_linear(&sig));
    }

    /// The spatial index agrees with the exhaustive linear scan — same
    /// distances, same deviations, same ranking — on random signatures
    /// against random synthetic banks, at a point far from every
    /// trajectory, and on the axis `x = 0` once the nearest trajectory
    /// there has a mirror twin that ties it. These banks' trajectories
    /// hold at most a dozen segments, so the four index properties draw
    /// leaf sizes of 1–16: at the default (16) each trajectory would be
    /// one leaf and the search would never prune.
    #[test]
    fn indexed_diagnosis_matches_linear(
        seed in 0i64..1_000_000,
        components in 2usize..24,
        points in 1usize..6,
        leaf in 1usize..17,
        x in -9.0f64..9.0, y in -9.0f64..9.0
    ) {
        let set = synthetic_trajectory_set(components, points, 2, seed as u64);
        let on_axis = Signature::new(vec![0.0, y]);
        let twinned = with_mirrored_nearest(&set, &on_axis);
        let far = far_probe(&mut StdRng::seed_from_u64(seed as u64), 2);
        for (set, probes) in [(set, vec![Signature::new(vec![x, y]), far]), (twinned, vec![on_axis])] {
            let index = SegmentIndex::with_leaf_size(&set, leaf);
            let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
            for sig in &probes {
                let linear = diagnoser.diagnose(sig);
                let indexed = diagnoser.diagnose_with(&index, sig);
                prop_assert!(
                    linear == indexed,
                    "divergence at {sig} for seed {seed}: {:?} vs {:?}",
                    linear.best(), indexed.best()
                );
            }
        }
    }

    /// The flat index stays bit-identical to the linear scan on ragged
    /// banks full of zero-length segments, down to dimension 1 and at
    /// every leaf size.
    #[test]
    fn flat_index_is_bit_identical_on_degenerate_banks(
        seed in 0i64..1_000_000,
        components in 1usize..12,
        dim in 1usize..4,
        leaf in 1usize..17,
    ) {
        let set = jagged_set_from_seed(seed as u64, components, dim);
        let index = SegmentIndex::with_leaf_size(&set, leaf);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x9e37_79b9);
        for _ in 0..8 {
            let sig = Signature::new(
                (0..dim).map(|_| rng.gen_range(-12.0..12.0)).collect::<Vec<f64>>(),
            );
            prop_assert_eq!(
                index.best_per_trajectory(&set, &sig),
                LinearScan.best_per_trajectory(&set, &sig),
                "flat drift for seed {} at {}", seed, sig
            );
        }
    }

    /// The early-terminating top-k search returns exactly the oracle's
    /// (truncated full ranking) answer, which is always a prefix of the
    /// full `(distance, trajectory)` ranking; whenever the early exit
    /// fires the prefix is strict.
    #[test]
    fn topk_is_a_prefix_of_the_full_ranking(
        seed in 0i64..1_000_000,
        components in 2usize..16,
        k in 1usize..6,
        leaf in 1usize..17,
    ) {
        let set = jagged_set_from_seed(seed as u64, components, 2);
        let index = SegmentIndex::with_leaf_size(&set, leaf);
        let ratio = DiagnoserConfig::default().ambiguity_ratio;
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x5151_5151);
        for _ in 0..6 {
            let sig = Signature::new(vec![
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-12.0..12.0),
            ]);
            let (got, _stats) = index.query_topk(&sig, k, ratio);
            let oracle = LinearScan.topk_per_trajectory(&set, &sig, k, ratio);
            prop_assert_eq!(&got, &oracle, "oracle drift for seed {} at {}", seed, sig);
            let mut full: Vec<(usize, f64, f64)> = LinearScan
                .best_per_trajectory(&set, &sig)
                .iter()
                .enumerate()
                .map(|(ti, &(d, dev))| (ti, d, dev))
                .collect();
            full.sort_by(|a, b| {
                a.1.partial_cmp(&b.1).expect("finite distances").then(a.0.cmp(&b.0))
            });
            prop_assert_eq!(&got.ranked[..], &full[..got.ranked.len()]);
            if got.early_exit {
                prop_assert!(got.ranked.len() < set.len());
            }
        }
    }

    /// A served answer — the index's top-1 early-exit search — renders
    /// the same response line as the linear full ranking, on ragged
    /// banks with ties and zero-length segments: at random signatures,
    /// at an exact trajectory vertex, at the origin, far from every
    /// trajectory, and on the plane `x0 = 0`. On the bank anchored at
    /// the origin, every distance there is 0, so the whole set is
    /// ambiguous and the search cannot exit early. On the plane, a third
    /// bank adds a mirror twin of the nearest trajectory, so the two tie
    /// at rank 1 and the first-wins rule picks the served winner.
    #[test]
    fn served_top1_line_matches_the_full_ranking(
        seed in 0i64..1_000_000,
        components in 1usize..12,
        dim in 1usize..4,
        leaf in 1usize..17,
    ) {
        let raw = jagged_set_from_seed(seed as u64, components, dim);
        let anchored = anchored_at_origin(&raw);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x7e57_0001);
        let mut on_plane: Vec<f64> = (0..dim).map(|_| rng.gen_range(-12.0..12.0)).collect();
        on_plane[0] = 0.0;
        let on_plane = Signature::new(on_plane);
        let twinned = with_mirrored_nearest(&raw, &on_plane);
        for (set, is_anchored) in [(raw, false), (anchored, true), (twinned, false)] {
            let index = SegmentIndex::with_leaf_size(&set, leaf);
            let on = set.view(rng.gen_range(0..set.len()));
            let vertex = on.point(rng.gen_range(0..on.point_count())).to_vec();
            let mut probes = vec![
                Signature::new(vec![0.0; dim]),
                Signature::new(vertex),
                far_probe(&mut rng, dim),
                on_plane.clone(),
            ];
            for _ in 0..6 {
                probes.push(Signature::new(
                    (0..dim).map(|_| rng.gen_range(-12.0..12.0)).collect::<Vec<f64>>(),
                ));
            }
            let n = set.len();
            let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
            for (i, sig) in probes.iter().enumerate() {
                let served = diagnoser.diagnose_topk(&index, sig, 1);
                if is_anchored && i == 0 {
                    prop_assert_eq!(served.ambiguity_set().len(), n, "origin not all-ambiguous");
                }
                prop_assert_eq!(
                    response_line("cut", &Ok(served)),
                    response_line("cut", &Ok(diagnoser.diagnose(sig))),
                    "served line drift for seed {} at {}", seed, sig
                );
            }
        }
    }
}

/// End-to-end on the real CUT: bank round-trips through disk and the
/// indexed engine reproduces the linear path byte-for-byte on the
/// repro circuit.
#[test]
fn paper_bank_round_trip_and_indexed_agreement() {
    let bench = tow_thomas_normalized(1.0).expect("benchmark builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let dict = FaultDictionary::build(
        &bench.circuit,
        &universe,
        &bench.input,
        &bench.probe,
        &FrequencyGrid::log_space(0.01, 100.0, 21),
    )
    .expect("dictionary builds");
    let tv = TestVector::pair(0.6, 1.6);
    let bank = TrajectoryBank::build(dict, &tv);

    let path = std::env::temp_dir().join("serve_property_paper_bank.ftb");
    bank.save(&path).expect("saves");
    let engine = DiagnosisEngine::load(&path, EngineConfig::default()).expect("loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(engine.bank(), Some(&bank));

    // Diagnose every ±25% single fault, indexed vs linear.
    let mut observations = Vec::new();
    let mut expected = Vec::new();
    for comp in &bench.fault_set {
        for pct in [-25.0, 25.0] {
            let fault = ParametricFault::from_percent(comp.clone(), pct);
            let faulty = fault.apply(&bench.circuit).expect("applies");
            let sig = measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv)
                .expect("measures");
            expected.push(engine.diagnose_linear(&sig));
            observations.push(sig);
        }
    }
    let indexed: Vec<_> = observations.iter().map(|s| engine.diagnose(s)).collect();
    assert_eq!(indexed, expected, "indexed path must be byte-identical");

    // The diagnosis itself remains sound: the true component is always
    // in the ambiguity set.
    let per_component = bench.fault_set.iter().flat_map(|c| [c, c]);
    for (comp, verdict) in per_component.zip(&indexed) {
        assert!(
            verdict.ambiguity_set().contains(&comp.as_str()),
            "{comp} missing from its own ambiguity set"
        );
    }
}
