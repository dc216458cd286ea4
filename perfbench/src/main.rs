//! The repository benchmark: two workloads over the serving layers,
//! measured end to end, plus a traced run that times each layer's
//! public calls, the offline layers' included. See README.md for the
//! workloads, metrics and noise rules.
//!
//! ```text
//! perfbench --workload fleet_tcp|dense_serve --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the result object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`).

mod dense;
mod fleet;
mod inputs;
mod offline;
mod serving;
mod trace;
mod util;

use std::path::PathBuf;

use trace::Tracer;
use util::{Metrics, NoiseWitness};

/// End-to-end metrics every workload reports, with their units.
/// Wall-clock throughput and build times are printed but not gated: on
/// a shared host they move with hypervisor steal (see README.md).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("intersections", "count"),
    ("accuracy", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("net.decode_ns", "ns"),
    ("net.encode_ns", "ns"),
    ("net.loop_ns", "ns"),
    ("net.bytes_in_per_req", "bytes"),
    ("net.bytes_out_per_req", "bytes"),
    ("net.wire_us_mean", "us"),
    ("net.rtt_p99_us", "us"),
    ("net.rtt_samples", "count"),
    ("net.csw_per_req", "count"),
    ("pool.hop_ns", "ns"),
    ("pool.worker_self_ns", "ns"),
    ("pool.batch_mean", "count"),
    ("pool.jobs_per_req", "count"),
    ("pool.latency_us_mean", "us"),
    ("store.resolve_ns", "ns"),
    ("store.stats_per_req", "count"),
    ("store.load_us", "us"),
    ("bank.open_us", "us"),
    ("bank.verify_us", "us"),
    ("bank.bytes", "bytes"),
    ("codec.encode_ms", "ms"),
    ("index.query_ns", "ns"),
    ("index.nodes_per_query", "count"),
    ("index.segments_per_query", "count"),
    ("index.build_us", "us"),
    ("core.validate_us", "us"),
    ("engine.diagnose_ns", "ns"),
    ("core.rank_ns", "ns"),
    ("cli.format_ns", "ns"),
    ("obs.records_per_req", "count"),
    ("core.trajectories_us", "us"),
    ("core.fitness_us", "us"),
    ("core.materialize_ms", "ms"),
    ("core.scratch_hit_share", "share"),
    ("evolve.self_ms", "ms"),
    ("evolve.evaluations", "count"),
    ("evolve.duplicate_share", "share"),
    ("evolve.cpu_us_per_eval", "us"),
    ("faults.dictionary_ms", "ms"),
    ("faults.responses", "count"),
    ("circuit.fault_sweep_ms", "ms"),
    ("proc.cpu_us_per_req", "us"),
    ("host.steal_share", "share"),
    ("trace.overhead_share", "share"),
];

const WORKLOADS: [&str; 2] = ["fleet_tcp", "dense_serve"];

/// Where runs write their shard files, relative to the checkout root.
const WORKDIR: &str = ".bench_work";

/// Command-line options.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub report: Vec<String>,
    pub tracer: Option<Tracer>,
    pub witness: Option<NoiseWitness>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 35.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(WORKDIR).join(format!("{}-{}", o.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("work directory is creatable");
    let out = match o.workload.as_str() {
        "fleet_tcp" => fleet::run(&o, &dir),
        _ => dense::run(&o, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORKDIR); // only when no other run uses it

    for line in &out.report {
        println!("{line}");
    }
    if let Some(w) = &out.witness {
        println!("{}", w.report());
    }
    println!(
        "operations: {} attempted, {} failed (failed share {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let mut e2e = Metrics::default();
    for (name, unit) in END_TO_END {
        let (value, got) = out
            .e2e
            .0
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("{name} not measured"));
        assert_eq!(got, unit, "unit of {name}");
        e2e.put(name, value, unit);
    }
    for (name, (value, unit)) in &out.e2e.0 {
        println!("{:<16} {:>16.6} {unit}", name, value);
    }
    let metrics = if o.trace {
        let mut layers = Metrics::default();
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name);
            layers.put(name, value, unit);
        }
        if let Some(extra) = out
            .layers
            .0
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            panic!("per-layer metric {extra} is not declared");
        }
        if let Some(tr) = &out.tracer {
            print!("{}", tr.report());
            let path =
                PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", o.workload, o.seed));
            match tr.write_tsv(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written ({}): {e}", path.display()),
            }
        }
        for (name, (value, unit)) in &layers.0 {
            println!("{:<26} {:>16.3} {unit}", name, value);
        }
        println!(
            "tracing overhead: the traced replay ran {:.1}% slower than the same replay untraced",
            100.0 * layers.get("trace.overhead_share")
        );
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        util::result_line(out.attempted.max(1), out.failed, &metrics)
    );
}
