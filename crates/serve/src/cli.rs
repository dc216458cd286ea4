//! The `ftd` command-line front end.
//!
//! The subcommands mirror the serving lifecycle:
//!
//! * `ftd build-bank` — offline phase: simulate the paper CUT's fault
//!   dictionary, materialise trajectories, persist the bank.
//! * `ftd diagnose` — online phase: load a bank, simulate observed
//!   signatures for requested or random faults (or read pre-measured
//!   signatures with `--requests`), answer each with the linear scan.
//! * `ftd serve` — the sharded front end: a directory of banks keyed by
//!   CUT id, served by a persistent worker pool from one event loop,
//!   over stdin/stdout (request lines in, diagnoses out) or over TCP.
//! * `ftd gen-requests` — mint a deterministic request file near a
//!   bank's trajectories (smoke tests, load generators).
//! * `ftd bank-info` — inspect a bank container: format version,
//!   section table with per-section payload bytes and checksum status,
//!   whether the served load accepts it, entry counts.
//! * `ftd bench-scan-vs-index` — measure the spatial index against the
//!   linear scan on a production-scale synthetic bank.
//!
//! Argument parsing is hand-rolled (the environment is offline; no
//! `clap`). Errors print to stderr; exit codes are `0` success, `1`
//! runtime failure, `2` usage error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_circuit::{tow_thomas_normalized, Probe};
use ft_core::{
    ambiguity_groups, measure_signature, Diagnoser, DiagnoserConfig, Diagnosis, GeometryOptions,
    LinearScan, SegmentQuery, Signature, TestVector,
};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse, MeasurementNoise, ParametricFault};
use ft_numerics::FrequencyGrid;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bank::TrajectoryBank;
use crate::codec::{peek_version, section_name, SectionTable, BANK_VERSION};
use crate::engine::{DiagnosisEngine, EngineConfig};
use crate::index::SegmentIndex;
#[cfg(unix)]
use crate::net::{install_signal_drain, serve_stdin, NetServer};
use crate::net::{parse_request_line, NetConfig};
use crate::obs::MetricsRegistry;
use crate::store::{BankStore, DiagnosisRequest, StoreConfig};
use crate::synthetic::{synthetic_circuit_bank, synthetic_queries, synthetic_trajectory_set};

const USAGE: &str = "\
ftd — fault-trajectory diagnosis engine

USAGE:
  ftd build-bank [--out PATH] [--f1 W] [--f2 W] [--grid-points N] [--q Q]
  ftd diagnose --bank PATH [--fault COMP:PCT]... [--random N]
               [--noise-db S] [--seed N] [--q Q]
  ftd diagnose --bank PATH --requests FILE [--cut-id ID]
  ftd serve --banks DIR [--workers N] [--max-inflight N]
            [--mem-budget BYTES[K|M|G]] [--stat-interval-ms N]
            [--stats-file PATH] [--refresh-ms N]
            [--listen ADDR] [--write-highwater BYTES[K|M|G]]
  ftd loadgen --connect ADDR --requests FILE [--connections N]
            [--depth N] [--total N] [--out PATH] [--json PATH] [--stats]
  ftd gen-requests --bank PATH --cut-id ID [--count N] [--seed N]
  ftd bank-info PATH
  ftd bench-scan-vs-index [--components N] [--points N] [--dim D]
               [--queries N] [--seed N] [--leaf N]
               [--topk K] [--circuit-order N] [--segments N[,N...]]
               [--json PATH]
  ftd help | --help

SUBCOMMANDS:
  build-bank           Simulate the Tow-Thomas CUT's fault dictionary on
                       the stamp-split AC sweep engine, materialise the
                       fault trajectories at the test vector {--f1, --f2},
                       and persist the bank as format v3.
                       Deterministic: repeated runs are byte-identical
                       regardless of worker count.
  diagnose             Load a bank, measure signatures for the requested
                       (--fault R2:+25) and/or --random sampled unknown
                       faults on the same CUT, and diagnose each with the
                       exhaustive linear scan, printing the ranked table,
                       the accuracy, and how many verdicts resolve to a
                       single structural ambiguity group. With --requests
                       FILE, skip simulation and instead answer the
                       file's signature lines (the `serve` request
                       format; --cut-id keeps only matching lines),
                       printing one tab-separated diagnosis line per
                       request — byte-comparable with `serve` output.
                       Every diagnosis here ranks all trajectories
                       without the spatial index: this is the reference
                       that served answers are checked against.
  serve                Open a shard directory (<dir>/<cut-id>.ftb, loaded
                       lazily), route each request to its CUT's bank,
                       and answer in input order. One non-blocking
                       poll(2) event loop serves (unix only): by default
                       one connection, stdin/stdout — one request per
                       line, `CUT_ID X1 X2 ...`, one diagnosis line per
                       request; with --listen ADDR, TCP connections
                       speaking length-prefixed, checksummed
                       request/response frames instead, with the same
                       response lines. Every flag means the same in both
                       modes. Each pass over a connection's buffered
                       requests is one batch through a persistent pool
                       of --workers threads; results are byte-identical
                       at every worker count. Backpressure is bounded per
                       connection: --max-inflight requests with the pool
                       (default 128) and --write-highwater unsent bytes.
                       A shard load reads only its trajectory section, a
                       shard swaps in when its file changes on disk, and
                       --mem-budget caps resident shard bytes: each
                       shard is charged its trajectory section, and over
                       budget whole least-recently-used shards are
                       evicted (they reload on demand; results are
                       unchanged).
                       A batch resolves each shard as of its submission:
                       a shard confirmed within --stat-interval-ms N
                       before that is trusted, and any other is
                       stat(2)ed once per batch (default N: 0 on stdin,
                       so a request read after a shard's rename
                       completes is answered from the new file, and
                       --refresh-ms on TCP). Every --refresh-ms (default
                       1000; 0 disables) a tick re-checks every loaded
                       shard and rewrites --stats-file.
                       --stats-file writes serving metrics (counters,
                       gauges, latency histograms) as Prometheus text on
                       every tick and at exit, replacing the file
                       atomically; a `!stats` request line prints the
                       same text to stderr. Metrics never change
                       diagnosis output; on stdin without --stats-file
                       nothing is recorded at all (TCP always keeps live
                       metrics: a stats frame serves the exposition on
                       demand). Every request is answered by the index's
                       top-1 early-exit search, which stops once rank 1
                       and its ambiguity set are settled, so each line is
                       byte-identical to the full ranking's (`diagnose
                       --requests`). A request line that does not parse,
                       or has no newline within the 1 MiB read cap, ends
                       stdin serving with exit 1 once every line before
                       it is answered; a request the store cannot serve
                       is answered with an error line, and makes the
                       exit code 1 at EOF; a closed stdout ends serving
                       quietly. On TCP a bad frame ends only its
                       connection, and SIGINT/SIGTERM drains: stop
                       accepting, answer everything in flight, flush,
                       exit 0.
  loadgen              Drive pipelined request traffic from a requests
                       file (`gen-requests` format) at a --listen server
                       over --connections sockets with --depth requests
                       in flight each (any depth: a write the server
                       cannot take yet yields to a read), cycling the
                       file until --total requests (default: one pass).
                       Reports req/s and p50/p90/p99 latency to stderr,
                       optionally as JSON with --json; --out (single
                       connection) captures response lines in request
                       order for byte-exact comparison against `diagnose
                       --requests`; --stats prints the server's
                       Prometheus stats afterwards.
  gen-requests         Load a bank and print --count deterministic
                       request lines (signatures jittered around the
                       bank's trajectories) tagged with --cut-id.
  bank-info            Print a bank container's format version and
                       section table (type, payload bytes, checksum
                       status); then load it the way the server loads a
                       shard (trajectory section only) and report
                       whether that load succeeds and the bytes a served
                       shard holds (its trajectory section); then decode
                       every section and print entry counts. Exits 1
                       when the full decode fails.
  bench-scan-vs-index  Time the linear scan against the flat
                       SIMD-friendly index and the top-k
                       early-termination path (K from --topk, default 5)
                       on a synthetic bank, one query at a time, with
                       bit-identity self-checks on every path.
                       --segments N[,N...] sweeps bank sizes (e.g.
                       1000,10000,100000; trajectories are derived from
                       --points at 2*points segments each); --json PATH
                       writes the per-size timings as JSON. With
                       --circuit-order N the bank is *simulated*
                       (engine-built fault dictionary of an order-N RLC
                       ladder) instead of generated geometrically;
                       --points then sets the deviation count per branch
                       (max 320) and --dim is ignored.
";

/// Entry point for the `ftd` binary: parses `args` (without the program
/// name) and runs the requested subcommand.
///
/// Returns the process exit code.
pub fn main_from_args(args: Vec<String>) -> i32 {
    let (cmd, rest) = match args.split_first() {
        None => {
            eprint!("{USAGE}");
            return 2;
        }
        Some((cmd, rest)) => (cmd.as_str(), rest),
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        print!("{USAGE}");
        return 0;
    }
    let run = match cmd {
        "build-bank" => build_bank(rest),
        "diagnose" => diagnose(rest),
        "serve" => serve(rest),
        "loadgen" => loadgen(rest),
        "gen-requests" => gen_requests(rest),
        "bank-info" => bank_info(rest),
        "bench-scan-vs-index" => bench_scan_vs_index(rest),
        other => {
            eprintln!("ftd: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match run {
        Ok(()) => 0,
        Err(CliError::Usage(msg)) => {
            eprintln!("ftd: {msg}\n");
            eprint!("{USAGE}");
            2
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("ftd: {msg}");
            1
        }
    }
}

#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl std::fmt::Display) -> CliError {
    CliError::Runtime(msg.to_string())
}

/// Minimal flag cursor: `--flag value` pairs plus repeatable flags.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter() }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| usage(format!("{flag}: cannot parse `{raw}`")))
    }
}

/// Renders one serve-format diagnosis line: tab-separated CUT id, best
/// component, estimated deviation (%), distance (dB), and the ambiguity
/// set. Floats use Rust's shortest round-trip formatting, so two paths
/// that compute identical values render identical bytes — the property
/// the CI smoke `cmp`s `serve` output against `diagnose --requests`.
pub(crate) fn render_diagnosis_line(cut_id: &str, diagnosis: &Diagnosis) -> String {
    use std::fmt::Write;
    let best = diagnosis.best();
    // One buffer for the whole line: the two shortest-round-trip floats
    // rarely pass 24 bytes each, and the ambiguity set is a few names.
    let mut line = String::with_capacity(cut_id.len() + 4 * best.component.len() + 64);
    line.push_str(cut_id);
    line.push('\t');
    line.push_str(&best.component);
    write!(line, "\t{}\t{}\t", best.deviation_pct, best.distance)
        .expect("writing to a String cannot fail");
    for (i, component) in diagnosis.ambiguity_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(component);
    }
    line
}

/// Parses `COMP:PCT` fault specs (`R2:+25`, `C1:-12.5`, `R3:30%`).
fn parse_fault(spec: &str) -> Result<ParametricFault, CliError> {
    let (comp, pct) = spec
        .split_once(':')
        .ok_or_else(|| usage(format!("--fault expects COMP:PCT, got `{spec}`")))?;
    let pct: f64 = pct
        .trim_end_matches('%')
        .parse()
        .map_err(|_| usage(format!("--fault {spec}: bad percentage")))?;
    if comp.is_empty() || !pct.is_finite() || pct <= -100.0 {
        return Err(usage(format!("--fault {spec}: invalid fault")));
    }
    Ok(ParametricFault::from_percent(comp, pct))
}

fn build_bank(args: &[String]) -> Result<(), CliError> {
    let mut out = "bank.ftb".to_string();
    let mut f1 = 0.6f64;
    let mut f2 = 1.6f64;
    let mut grid_points = 41usize;
    let mut q = 1.0f64;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--out" => out = flags.value("--out")?.to_string(),
            "--f1" => f1 = flags.parse("--f1")?,
            "--f2" => f2 = flags.parse("--f2")?,
            "--grid-points" => grid_points = flags.parse("--grid-points")?,
            "--q" => q = flags.parse("--q")?,
            other => return Err(usage(format!("build-bank: unknown flag `{other}`"))),
        }
    }
    if !(f1.is_finite() && f2.is_finite() && f1 > 0.0 && f2 > f1) {
        return Err(usage("need 0 < --f1 < --f2"));
    }
    if grid_points < 2 {
        return Err(usage("--grid-points must be at least 2"));
    }

    let started = Instant::now();
    let bench = tow_thomas_normalized(q).map_err(runtime)?;
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, grid_points);
    let dict = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .map_err(runtime)?;
    let bank = TrajectoryBank::build(dict, &TestVector::pair(f1, f2));
    let written = bank.save(&out).map_err(runtime)?;

    println!(
        "built bank `{out}` (format v{BANK_VERSION}): {} faults x {} grid points, {} trajectories / {} segments at tv {}, {} bytes, {:.2?}",
        bank.dictionary().entries().len(),
        bank.dictionary().grid().len(),
        bank.trajectory_set().len(),
        bank.trajectory_set().total_segments(),
        bank.test_vector(),
        written,
        started.elapsed(),
    );
    Ok(())
}

fn diagnose(args: &[String]) -> Result<(), CliError> {
    let mut bank_path: Option<String> = None;
    let mut faults: Vec<ParametricFault> = Vec::new();
    let mut random = 0usize;
    let mut noise_db: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut q: Option<f64> = None;
    let mut requests_path: Option<String> = None;
    let mut cut_id: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--bank" => bank_path = Some(flags.value("--bank")?.to_string()),
            "--fault" => faults.push(parse_fault(flags.value("--fault")?)?),
            "--random" => random = flags.parse("--random")?,
            "--noise-db" => noise_db = Some(flags.parse("--noise-db")?),
            "--seed" => seed = Some(flags.parse("--seed")?),
            "--q" => q = Some(flags.parse("--q")?),
            "--requests" => requests_path = Some(flags.value("--requests")?.to_string()),
            "--cut-id" => cut_id = Some(flags.value("--cut-id")?.to_string()),
            other => return Err(usage(format!("diagnose: unknown flag `{other}`"))),
        }
    }
    let bank_path = bank_path.ok_or_else(|| usage("diagnose needs --bank PATH"))?;
    if let Some(requests_path) = requests_path {
        // Pre-measured signatures: every simulation flag would silently
        // do nothing, so passing any of them is an error, not a shrug.
        if !faults.is_empty() || random > 0 || noise_db.is_some() || seed.is_some() || q.is_some() {
            return Err(usage(
                "--requests reads pre-measured signatures; drop the simulation flags \
                 (--fault/--random/--noise-db/--seed/--q)",
            ));
        }
        return diagnose_requests(&bank_path, &requests_path, cut_id.as_deref());
    }
    if cut_id.is_some() {
        return Err(usage("--cut-id only applies with --requests"));
    }
    let noise_db = noise_db.unwrap_or(0.0);
    let seed = seed.unwrap_or(2005);
    let q = q.unwrap_or(1.0);
    if !(noise_db.is_finite() && noise_db >= 0.0) {
        return Err(usage("--noise-db must be non-negative"));
    }
    if faults.is_empty() && random == 0 {
        random = 8;
    }

    let bank = TrajectoryBank::load(&bank_path).map_err(runtime)?;
    println!(
        "loaded `{bank_path}`: {} trajectories / {} segments at tv {}",
        bank.trajectory_set().len(),
        bank.trajectory_set().total_segments(),
        bank.test_vector(),
    );

    // The bank stores responses, not the netlist; observations are
    // simulated on a rebuilt CUT, which must be the circuit the bank
    // was built from. Verify that by reproducing the bank's stored
    // golden response — a `--q` mismatch fails loudly here instead of
    // silently skewing every diagnosis.
    let bench = tow_thomas_normalized(q).map_err(runtime)?;
    let golden = ft_circuit::sweep(
        &bench.circuit,
        bank.dictionary().input(),
        bank.dictionary().probe(),
        bank.dictionary().grid(),
    )
    .map_err(runtime)?
    .magnitude_db();
    let drift = golden
        .iter()
        .zip(bank.dictionary().golden_db())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if drift > 1e-6 {
        return Err(runtime(format!(
            "bank golden response does not match the Q={q} CUT (max drift {drift:.3} dB); \
             was the bank built with a different --q?"
        )));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..random {
        faults.push(bank.dictionary().universe().sample_unknown(&mut rng, 5.0));
    }

    let tv = bank.test_vector().clone();
    let noise = MeasurementNoise::new(noise_db);
    let mut signatures = Vec::with_capacity(faults.len());
    for fault in &faults {
        let faulty = fault.apply(&bench.circuit).map_err(runtime)?;
        let mut sig = measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv)
            .map_err(runtime)?;
        if noise_db > 0.0 {
            sig = Signature::new(
                sig.coords()
                    .iter()
                    .map(|&x| noise.perturb(x, &mut rng))
                    .collect::<Vec<f64>>(),
            );
        }
        signatures.push(sig);
    }

    // The exhaustive linear scan, one signature at a time.
    let diagnoser = Diagnoser::new(bank.trajectory_set().clone(), DiagnoserConfig::default());
    let started = Instant::now();
    let results: Vec<Diagnosis> = signatures.iter().map(|s| diagnoser.diagnose(s)).collect();
    let elapsed = started.elapsed();

    let mut top1 = 0usize;
    let mut in_set = 0usize;
    println!("true fault      predicted            est.dev   distance  ambiguity set");
    for (fault, diagnosis) in faults.iter().zip(&results) {
        let best = diagnosis.best();
        let hit = best.component == fault.component();
        let set_hit = diagnosis.ambiguity_set().contains(&fault.component());
        top1 += hit as usize;
        in_set += set_hit as usize;
        println!(
            "{:<15} {:<20} {:>+7.1}%  {:>8.4}  {{{}}}{}",
            fault.to_string(),
            best.component,
            best.deviation_pct,
            best.distance,
            diagnosis.ambiguity_set().join(", "),
            if hit {
                ""
            } else if set_hit {
                "  (in set)"
            } else {
                "  MISS"
            },
        );
    }
    println!(
        "{}/{} top-1, {}/{} in ambiguity set, {:.2?} for the linear scan",
        top1,
        results.len(),
        in_set,
        results.len(),
        elapsed,
    );
    // How often the verdict already pins down a single structural
    // ambiguity group of the bank.
    let groups = ambiguity_groups(bank.trajectory_set(), 1e-6, &GeometryOptions::default());
    let resolved = results
        .iter()
        .filter(|d| groups.is_resolved(&d.ambiguity_set()))
        .count();
    println!(
        "{resolved}/{} verdicts resolved to a single structural ambiguity group",
        results.len(),
    );
    Ok(())
}

/// The `--requests` arm of `ftd diagnose`: the single-bank reference
/// path of the sharded server. Reads the request file, keeps the lines
/// whose CUT id matches `--cut-id` (all lines when omitted), ranks each
/// in full with the exhaustive linear scan ([`Diagnoser::diagnose`]),
/// and prints serve-format lines — so `cmp`-ing against the matching
/// slice of `ftd serve` output checks the served index's top-1 answers
/// against code that shares nothing with the index.
fn diagnose_requests(
    bank_path: &str,
    requests_path: &str,
    cut_id: Option<&str>,
) -> Result<(), CliError> {
    let bank = TrajectoryBank::load(bank_path).map_err(runtime)?;
    let text = std::fs::read_to_string(requests_path)
        .map_err(|e| runtime(format!("{requests_path}: {e}")))?;
    let mut kept: Vec<DiagnosisRequest> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(req) = parse_request_line(line, i + 1).map_err(runtime)? {
            if cut_id.is_none_or(|id| id == req.cut_id) {
                kept.push(req);
            }
        }
    }
    let diagnoser = Diagnoser::new(bank.trajectory_set().clone(), DiagnoserConfig::default());
    let dim = diagnoser.trajectory_set().dim();
    for req in &kept {
        if req.signature.dim() != dim {
            return Err(runtime(format!(
                "request for `{}` has dimension {}, bank `{bank_path}` serves dimension {dim}",
                req.cut_id,
                req.signature.dim(),
            )));
        }
    }
    let mut out = String::new();
    for req in &kept {
        let diagnosis = diagnoser.diagnose(&req.signature);
        out.push_str(&render_diagnosis_line(&req.cut_id, &diagnosis));
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// Parses a byte-count flag value: a plain integer, optionally suffixed
/// with `K`, `M`, or `G` (powers of 1024, case-insensitive).
fn parse_mem_budget(raw: &str) -> Result<u64, CliError> {
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'k' | b'K') => (&raw[..raw.len() - 1], 10u32),
        Some(b'm' | b'M') => (&raw[..raw.len() - 1], 20),
        Some(b'g' | b'G') => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| usage(format!("--mem-budget: expected BYTES[K|M|G], got `{raw}`")))?;
    n.checked_shl(shift)
        .filter(|_| n.leading_zeros() >= shift)
        .ok_or_else(|| usage(format!("--mem-budget `{raw}` overflows u64")))
}

fn serve(args: &[String]) -> Result<(), CliError> {
    let mut banks: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut mem_budget: Option<u64> = None;
    let mut stats_file: Option<String> = None;
    let mut stat_interval_ms: Option<u64> = None;
    let mut listen: Option<String> = None;
    let mut refresh_ms = 1000u64;
    let mut max_inflight = 128usize;
    let mut write_highwater = 1usize << 20;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--banks" => banks = Some(flags.value("--banks")?.to_string()),
            "--workers" => workers = Some(flags.parse("--workers")?),
            "--mem-budget" => mem_budget = Some(parse_mem_budget(flags.value("--mem-budget")?)?),
            "--stats-file" => stats_file = Some(flags.value("--stats-file")?.to_string()),
            "--stat-interval-ms" => stat_interval_ms = Some(flags.parse("--stat-interval-ms")?),
            "--listen" => listen = Some(flags.value("--listen")?.to_string()),
            "--refresh-ms" => refresh_ms = flags.parse("--refresh-ms")?,
            "--max-inflight" => max_inflight = flags.parse("--max-inflight")?,
            "--write-highwater" => {
                write_highwater = parse_mem_budget(flags.value("--write-highwater")?)?
                    .try_into()
                    .map_err(|_| usage("--write-highwater overflows usize"))?
            }
            other => return Err(usage(format!("serve: unknown flag `{other}`"))),
        }
    }
    let banks = banks.ok_or_else(|| usage("serve needs --banks DIR"))?;
    if max_inflight == 0 {
        return Err(usage("--max-inflight must be positive"));
    }
    if write_highwater == 0 {
        return Err(usage("--write-highwater must be positive"));
    }
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    if workers == 0 {
        return Err(usage("--workers must be positive"));
    }

    // Metrics exist only when a stats sink was asked for; otherwise the
    // noop registry attaches nothing anywhere and serving runs exactly
    // the uninstrumented code. Listen mode is the exception: the stats
    // frame serves live metrics on demand, so the registry is always on
    // there (the network round-trip dwarfs the counter costs).
    let registry = Arc::new(if stats_file.is_some() || listen.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::noop()
    });
    // TCP serving reloads changed shards from the periodic refresh
    // sweep, so its requests trust a shard confirmed within one refresh
    // interval; stdin serving trusts only a confirmation made after the
    // batch was submitted (one stat(2) per CUT per batch).
    let default_stat_interval = if listen.is_some() { refresh_ms } else { 0 };
    let store_config = StoreConfig {
        mem_budget,
        min_stat_interval: Duration::from_millis(stat_interval_ms.unwrap_or(default_stat_interval)),
        ..StoreConfig::new(EngineConfig::default())
    };
    let store = Arc::new(
        BankStore::open_with(&banks, store_config)
            .map_err(runtime)?
            .with_metrics(&registry),
    );
    let config = NetConfig {
        workers,
        max_inflight,
        write_highwater,
        refresh_interval: Duration::from_millis(refresh_ms),
        ..NetConfig::default()
    };
    if listen.is_none() {
        eprintln!(
            "serving shard directory `{banks}` ({} CUTs on disk) with {workers} workers, \
             {max_inflight} requests in flight{}",
            store.cut_ids().len(),
            match mem_budget {
                Some(b) => format!(", shard memory budget {b} bytes"),
                None => String::new(),
            },
        );
    }
    serve_loop(
        store,
        &registry,
        &config,
        listen.as_deref(),
        stats_file.as_deref(),
    )
}

/// Runs `ftd serve`'s one event loop: over TCP with `listen`, else over
/// stdin/stdout. `--stats-file` is rewritten on every refresh tick and at
/// exit, in both modes.
#[cfg(unix)]
fn serve_loop(
    store: Arc<BankStore>,
    registry: &Arc<MetricsRegistry>,
    config: &NetConfig,
    listen: Option<&str>,
    stats_file: Option<&str>,
) -> Result<(), CliError> {
    // A failed write on a tick shows again, as an error, at exit.
    let tick = || {
        if let Some(path) = stats_file {
            let _ = write_stats_file(path, registry);
        }
    };
    let started = Instant::now();
    let served = match listen {
        Some(addr) => {
            let cuts_on_disk = store.cut_ids().len();
            let server = NetServer::bind(addr, Arc::clone(&store), registry, config.clone())
                .map_err(runtime)?;
            let bound = server.local_addr().map_err(runtime)?;
            install_signal_drain(&server.shutdown_handle());
            eprintln!(
                "listening on {bound}: shard directory with {cuts_on_disk} CUTs on disk, \
                 {} workers, {} in-flight requests and {} unsent bytes per connection, \
                 shard refresh every {:?} (SIGINT/SIGTERM drains)",
                config.workers,
                config.max_inflight,
                config.write_highwater,
                config.refresh_interval,
            );
            server.run_with_tick(tick)
        }
        None => serve_stdin(Arc::clone(&store), registry, config, tick),
    };
    if let Some(path) = stats_file {
        write_stats_file(path, registry)?;
        eprintln!("wrote stats snapshot to `{path}`");
    }
    let summary = served.map_err(runtime)?;
    if listen.is_some() {
        eprintln!(
            "drained: {} connections accepted, {} requests served ({} error lines, \
             {} protocol errors) in {:.2?}",
            summary.accepted,
            summary.served,
            summary.errors,
            summary.protocol_errors,
            started.elapsed(),
        );
        return Ok(());
    }
    eprintln!(
        "served {} requests ({} errors) across {} loaded shards in {:.2?}",
        summary.served,
        summary.errors,
        store.loaded_count(),
        started.elapsed(),
    );
    if summary.errors > 0 {
        return Err(runtime(format!(
            "{} of {} requests failed",
            summary.errors, summary.served
        )));
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_loop(
    _: Arc<BankStore>,
    _: &Arc<MetricsRegistry>,
    _: &NetConfig,
    _: Option<&str>,
    _: Option<&str>,
) -> Result<(), CliError> {
    Err(runtime(
        "serve runs one poll(2) event loop, so it runs on unix only",
    ))
}

/// Writes a snapshot of `registry` to `path` as Prometheus text: into
/// `<path>.tmp`, then renamed over `path`, so a reader of the file (a
/// textfile collector, a script polling a live server) never sees it
/// empty or half-written.
fn write_stats_file(path: &str, registry: &MetricsRegistry) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, registry.snapshot().to_prometheus())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| runtime(format!("stats file {path}: {e}")))
}

/// The `ftd loadgen` subcommand: pipelined client traffic against a
/// `serve --listen` server, with latency percentiles and optional
/// byte-exact capture.
fn loadgen(args: &[String]) -> Result<(), CliError> {
    let mut connect: Option<String> = None;
    let mut requests_path: Option<String> = None;
    let mut config = crate::net::LoadgenConfig::default();
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut stats = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--connect" => connect = Some(flags.value("--connect")?.to_string()),
            "--requests" => requests_path = Some(flags.value("--requests")?.to_string()),
            "--connections" => config.connections = flags.parse("--connections")?,
            "--depth" => config.depth = flags.parse("--depth")?,
            "--total" => config.total = flags.parse("--total")?,
            "--out" => out = Some(flags.value("--out")?.to_string()),
            "--json" => json = Some(flags.value("--json")?.to_string()),
            "--stats" => stats = true,
            other => return Err(usage(format!("loadgen: unknown flag `{other}`"))),
        }
    }
    let connect = connect.ok_or_else(|| usage("loadgen needs --connect ADDR"))?;
    let requests_path = requests_path.ok_or_else(|| usage("loadgen needs --requests FILE"))?;
    if config.connections == 0 {
        return Err(usage("--connections must be positive"));
    }
    if config.depth == 0 {
        return Err(usage("--depth must be positive"));
    }
    if out.is_some() && config.connections != 1 {
        return Err(usage(
            "--out captures responses in request order, which needs --connections 1",
        ));
    }
    config.capture = out.is_some();
    let text = std::fs::read_to_string(&requests_path)
        .map_err(|e| runtime(format!("{requests_path}: {e}")))?;
    let mut requests: Vec<DiagnosisRequest> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(req) = parse_request_line(line, i + 1).map_err(runtime)? {
            requests.push(req);
        }
    }
    if requests.is_empty() {
        return Err(runtime(format!("{requests_path}: no request lines")));
    }
    let report = crate::net::run_loadgen(&connect, &requests, &config).map_err(runtime)?;
    if let (Some(path), Some(lines)) = (&out, &report.lines) {
        let mut body = lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| runtime(format!("{path}: {e}")))?;
    }
    eprintln!(
        "loadgen: {} requests over {} connections at depth {} in {:.3}s — \
         {:.0} req/s, latency p50 {:.0}us p90 {:.0}us p99 {:.0}us \
         ({} error lines, {} bytes out, {} bytes in)",
        report.requests,
        report.connections,
        report.depth,
        report.elapsed_s,
        report.rps,
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.error_lines,
        report.bytes_out,
        report.bytes_in,
    );
    if let Some(path) = &json {
        let body = format!(
            "{{\n  \"connections\": {},\n  \"depth\": {},\n  \"requests\": {},\n  \
             \"responses\": {},\n  \"error_lines\": {},\n  \"elapsed_s\": {},\n  \
             \"rps\": {},\n  \"p50_us\": {},\n  \"p90_us\": {},\n  \"p99_us\": {},\n  \
             \"bytes_out\": {},\n  \"bytes_in\": {}\n}}\n",
            report.connections,
            report.depth,
            report.requests,
            report.responses,
            report.error_lines,
            report.elapsed_s,
            report.rps,
            report.p50_us,
            report.p90_us,
            report.p99_us,
            report.bytes_out,
            report.bytes_in,
        );
        std::fs::write(path, body).map_err(|e| runtime(format!("{path}: {e}")))?;
    }
    if stats {
        print!("{}", crate::net::fetch_stats(&connect).map_err(runtime)?);
    }
    Ok(())
}

fn gen_requests(args: &[String]) -> Result<(), CliError> {
    let mut bank_path: Option<String> = None;
    let mut cut_id: Option<String> = None;
    let mut count = 16usize;
    let mut seed = 7u64;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--bank" => bank_path = Some(flags.value("--bank")?.to_string()),
            "--cut-id" => cut_id = Some(flags.value("--cut-id")?.to_string()),
            "--count" => count = flags.parse("--count")?,
            "--seed" => seed = flags.parse("--seed")?,
            other => return Err(usage(format!("gen-requests: unknown flag `{other}`"))),
        }
    }
    let bank_path = bank_path.ok_or_else(|| usage("gen-requests needs --bank PATH"))?;
    let cut_id = cut_id.ok_or_else(|| usage("gen-requests needs --cut-id ID"))?;
    if !crate::store::valid_cut_id(&cut_id) {
        return Err(usage(format!("gen-requests: invalid CUT id `{cut_id}`")));
    }
    if count == 0 {
        return Err(usage("--count must be positive"));
    }
    let bank = TrajectoryBank::load(&bank_path).map_err(runtime)?;
    let mut out = String::new();
    for sig in synthetic_queries(bank.trajectory_set(), count, seed) {
        out.push_str(&cut_id);
        for x in sig.coords() {
            out.push(' ');
            out.push_str(&x.to_string());
        }
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

fn bank_info(args: &[String]) -> Result<(), CliError> {
    let path = match args {
        [path] if !path.starts_with('-') => path,
        _ => return Err(usage("bank-info takes one PATH argument")),
    };
    let bytes = std::fs::read(path).map_err(|e| runtime(format!("{path}: {e}")))?;
    let version = peek_version(&bytes).map_err(|e| runtime(e.in_file(path)))?;
    println!("bank `{path}`: {} bytes, format v{version}", bytes.len());

    let table = SectionTable::parse(&bytes).map_err(|e| runtime(e.in_file(path)))?;
    println!("layout: sectioned, fixed-stride little-endian trajectory runs");
    println!("section table ({} sections):", table.entries().len());
    println!("  type  name          offset  payload_bytes  checksum");
    let mut bad_sections = 0usize;
    let mut payload_total = 0usize;
    for e in table.entries() {
        let ok = table.verify(&bytes, e).is_ok();
        bad_sections += usize::from(!ok);
        payload_total += e.len;
        println!(
            "  {:>4}  {:<12} {:>7} {:>13}  {}",
            e.kind,
            section_name(e.kind),
            e.offset,
            e.len,
            if ok { "ok" } else { "MISMATCH" },
        );
    }
    println!(
        "payload: {payload_total} bytes across {} sections, {} bytes of framing",
        table.entries().len(),
        bytes.len() - payload_total,
    );
    // What `ftd serve` reads of this file: the trajectory section alone.
    match DiagnosisEngine::open(path, EngineConfig::default()) {
        Ok((_, shard)) => println!(
            "served load: ok, a served shard holds {} bytes (its trajectory section)",
            shard.resident_bytes()
        ),
        Err(e) => println!("served load: FAILED: {e}"),
    }

    match TrajectoryBank::from_bytes(&bytes) {
        Ok(bank) => {
            let dict = bank.dictionary();
            println!(
                "dictionary: {} entries x {} grid points, input {}, probe {}",
                dict.entries().len(),
                dict.grid().len(),
                dict.input(),
                probe_str(dict.probe()),
            );
            let set = bank.trajectory_set();
            println!(
                "trajectories: {} trajectories / {} segments, dim {}, tv {}",
                set.len(),
                set.total_segments(),
                set.dim(),
                set.test_vector(),
            );
            match bank.multifault_dictionary() {
                Some(mfd) => println!(
                    "multifault: {} entries x {} grid points",
                    mfd.len(),
                    mfd.grid().len(),
                ),
                None => println!("multifault: absent"),
            }
            Ok(())
        }
        Err(e) => Err(runtime(format!(
            "decode failed ({bad_sections} bad sections): {e}"
        ))),
    }
}

fn probe_str(probe: &Probe) -> String {
    match probe {
        Probe::Node(n) => n.clone(),
        Probe::Differential(p, n) => format!("{p}-{n}"),
    }
}

/// One measured bank size of `ftd bench-scan-vs-index`: query-level
/// timings isolate the backend (`best_per_trajectory` / `query_topk`),
/// diagnose-level timings include candidate materialisation and
/// ranking, so the JSON records both.
struct BenchRow {
    segments: usize,
    trajectories: usize,
    dim: usize,
    queries: usize,
    topk: usize,
    flat_nodes: usize,
    build_flat_us: f64,
    linear_query_us: f64,
    flat_query_us: f64,
    topk_query_us: f64,
    linear_diagnose_us: f64,
    flat_diagnose_us: f64,
    topk_diagnose_us: f64,
    examined_frac: f64,
    early_exit_rate: f64,
}

/// Parses `--segments N[,N...]` into a list of target segment counts.
fn parse_segment_sizes(raw: &str) -> Result<Vec<usize>, CliError> {
    let sizes: Vec<usize> = raw
        .split(',')
        .map(|t| t.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| usage(format!("--segments: expected N[,N...], got `{raw}`")))?;
    if sizes.is_empty() || sizes.contains(&0) {
        return Err(usage("--segments sizes must be positive"));
    }
    Ok(sizes)
}

/// Timed rounds per path in `bench_one`. The paths are timed in
/// interleaved rounds — every path runs once per round, and the
/// fastest round per path is reported. The min is the standard
/// low-noise estimator on a shared machine, and the interleaving keeps
/// a slow window from landing on one path's whole sample while another
/// path gets a quiet machine, which would bias every reported ratio
/// (each path computes identical results every round, so only the
/// timing varies).
const BENCH_REPS: usize = 5;

/// Runs `f` once, returning its result and the per-query time in
/// microseconds.
fn time_once<T>(queries: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6 / queries.max(1) as f64)
}

/// Times every query path over one trajectory set, self-checking each
/// against the linear-scan oracle before any number is reported.
fn bench_one(
    set: &ft_core::TrajectorySet,
    queries: usize,
    seed: u64,
    leaf: usize,
    topk: usize,
) -> Result<BenchRow, CliError> {
    let qs = synthetic_queries(set, queries, seed.wrapping_add(1));

    let t = Instant::now();
    let flat = if leaf == 0 {
        SegmentIndex::build(set)
    } else {
        SegmentIndex::with_leaf_size(set, leaf)
    };
    let build_flat_us = t.elapsed().as_secs_f64() * 1e6;

    let diagnoser = Diagnoser::new(set.clone(), DiagnoserConfig::default());
    let ratio = diagnoser.config().ambiguity_ratio;

    // Time all paths in interleaved rounds (see `BENCH_REPS`), keeping
    // the fastest round per path; results are identical every round, so
    // the last round's are validated below.
    let mut linear_query_us = f64::INFINITY;
    let mut flat_query_us = f64::INFINITY;
    let mut topk_query_us = f64::INFINITY;
    let mut linear_diagnose_us = f64::INFINITY;
    let mut flat_diagnose_us = f64::INFINITY;
    let mut topk_diagnose_us = f64::INFINITY;
    let (mut lin_q, mut flat_q, mut topk_q) = (vec![], vec![], vec![]);
    let (mut lin_d, mut flat_d, mut topk_d): (Vec<Diagnosis>, Vec<_>, Vec<_>) =
        (vec![], vec![], vec![]);
    let mut examined = 0usize;
    let mut early = 0usize;
    for _ in 0..BENCH_REPS {
        // Query level: the raw backend, no candidate materialisation.
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| LinearScan.best_per_trajectory(set, q))
                .collect::<Vec<Vec<(f64, f64)>>>()
        });
        lin_q = r;
        linear_query_us = linear_query_us.min(t);
        examined = 0;
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| {
                    let (best, stats) = flat.query_stats(q);
                    examined += stats.segments_examined;
                    best
                })
                .collect::<Vec<_>>()
        });
        flat_q = r;
        flat_query_us = flat_query_us.min(t);
        early = 0;
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| {
                    let (ranking, stats) = flat.query_topk(q, topk, ratio);
                    early += stats.early_exit as usize;
                    ranking
                })
                .collect::<Vec<_>>()
        });
        topk_q = r;
        topk_query_us = topk_query_us.min(t);

        // Diagnose level: candidates, sort, ambiguity set — what
        // callers pay.
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| diagnoser.diagnose(q))
                .collect::<Vec<Diagnosis>>()
        });
        lin_d = r;
        linear_diagnose_us = linear_diagnose_us.min(t);
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| diagnoser.diagnose_with(&flat, q))
                .collect::<Vec<_>>()
        });
        flat_d = r;
        flat_diagnose_us = flat_diagnose_us.min(t);
        let (r, t) = time_once(qs.len(), || {
            qs.iter()
                .map(|q| diagnoser.diagnose_topk(&flat, q, topk))
                .collect::<Vec<_>>()
        });
        topk_d = r;
        topk_diagnose_us = topk_diagnose_us.min(t);
    }

    if flat_q != lin_q {
        return Err(runtime("indexed path diverged from the linear scan"));
    }
    let examined_frac = examined as f64 / (flat.len() * qs.len()) as f64;
    for (q, got) in qs.iter().zip(&topk_q) {
        if *got != LinearScan.topk_per_trajectory(set, q, topk, ratio) {
            return Err(runtime("top-k path diverged from the linear-scan oracle"));
        }
    }
    let early_exit_rate = early as f64 / qs.len() as f64;
    if flat_d != lin_d {
        return Err(runtime("indexed diagnosis diverged from the linear scan"));
    }
    for (full, cut) in lin_d.iter().zip(&topk_d) {
        if cut.best() != full.best() || cut.ambiguity_set() != full.ambiguity_set() {
            return Err(runtime(
                "top-k diagnosis changed the verdict or the ambiguity set",
            ));
        }
    }

    Ok(BenchRow {
        segments: set.total_segments(),
        trajectories: set.len(),
        dim: set.dim(),
        queries: qs.len(),
        topk,
        flat_nodes: flat.node_count(),
        build_flat_us,
        linear_query_us,
        flat_query_us,
        topk_query_us,
        linear_diagnose_us,
        flat_diagnose_us,
        topk_diagnose_us,
        examined_frac,
        early_exit_rate,
    })
}

fn print_bench_row(r: &BenchRow) {
    println!(
        "bank: {} trajectories x {} segments = {} segments, dim {}, {} flat nodes",
        r.trajectories,
        r.segments / r.trajectories,
        r.segments,
        r.dim,
        r.flat_nodes,
    );
    println!("  build: flat {:.1} ms", r.build_flat_us / 1e3);
    println!("  {} queries, results identical on every path", r.queries);
    let x = |a: f64, b: f64| a / b.max(1e-12);
    println!(
        "  query    linear scan : {:>9.1} us/query",
        r.linear_query_us
    );
    println!(
        "  query    flat index  : {:>9.1} us/query  ({:.1}x vs linear, \
         examined {:.1}% of segments)",
        r.flat_query_us,
        x(r.linear_query_us, r.flat_query_us),
        r.examined_frac * 100.0,
    );
    println!(
        "  query    flat top-{:<2} : {:>9.1} us/query  ({:.1}x vs linear, early exit on \
         {:.0}% of queries)",
        r.topk,
        r.topk_query_us,
        x(r.linear_query_us, r.topk_query_us),
        r.early_exit_rate * 100.0,
    );
    println!(
        "  diagnose linear      : {:>9.1} us/query",
        r.linear_diagnose_us
    );
    println!(
        "  diagnose flat        : {:>9.1} us/query  ({:.1}x vs linear)",
        r.flat_diagnose_us,
        x(r.linear_diagnose_us, r.flat_diagnose_us),
    );
    println!(
        "  diagnose flat top-{:<2} : {:>9.1} us/query  ({:.1}x vs linear)",
        r.topk,
        r.topk_diagnose_us,
        x(r.linear_diagnose_us, r.topk_diagnose_us),
    );
}

/// Serialises the measured rows as a self-describing JSON document
/// (hand-rolled; the vendored `serde` is a marker-only shim).
fn write_bench_json(path: &str, rows: &[BenchRow]) -> Result<(), CliError> {
    let mut s = String::from("{\n  \"bench\": \"scan-vs-index\",\n  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let x = |a: f64, b: f64| a / b.max(1e-12);
        s.push_str(&format!(
            "    {{\"segments\": {}, \"trajectories\": {}, \"dim\": {}, \"queries\": {}, \
             \"topk\": {}, \"flat_nodes\": {}, \"build_flat_us\": {:.1}, \
             \"linear_query_us\": {:.3}, \
             \"flat_query_us\": {:.3}, \"topk_query_us\": {:.3}, \
             \"flat_speedup_vs_linear\": {:.2}, \
             \"topk_speedup_vs_linear\": {:.2}, \
             \"linear_diagnose_us\": {:.3}, \"flat_diagnose_us\": {:.3}, \
             \"topk_diagnose_us\": {:.3}, \
             \"segments_examined_frac\": {:.4}, \"topk_early_exit_rate\": {:.4}}}{}\n",
            r.segments,
            r.trajectories,
            r.dim,
            r.queries,
            r.topk,
            r.flat_nodes,
            r.build_flat_us,
            r.linear_query_us,
            r.flat_query_us,
            r.topk_query_us,
            x(r.linear_query_us, r.flat_query_us),
            x(r.linear_query_us, r.topk_query_us),
            r.linear_diagnose_us,
            r.flat_diagnose_us,
            r.topk_diagnose_us,
            r.examined_frac,
            r.early_exit_rate,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).map_err(|e| runtime(format!("{path}: {e}")))
}

fn bench_scan_vs_index(args: &[String]) -> Result<(), CliError> {
    // Default shape: the paper-like CUT (a handful of components) with a
    // production-dense deviation sweep — 8 × 128 = 1024 segments.
    let mut components = 8usize;
    let mut points = 64usize;
    let mut dim = 2usize;
    let mut queries = 200usize;
    let mut seed = 7u64;
    let mut leaf = 0usize;
    let mut circuit_order = 0usize;
    let mut topk = 5usize;
    let mut segments: Option<Vec<usize>> = None;
    let mut json: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--components" => components = flags.parse("--components")?,
            "--points" => points = flags.parse("--points")?,
            "--dim" => dim = flags.parse("--dim")?,
            "--queries" => queries = flags.parse("--queries")?,
            "--seed" => seed = flags.parse("--seed")?,
            "--leaf" => leaf = flags.parse("--leaf")?,
            "--circuit-order" => circuit_order = flags.parse("--circuit-order")?,
            "--topk" => topk = flags.parse("--topk")?,
            "--segments" => segments = Some(parse_segment_sizes(flags.value("--segments")?)?),
            "--json" => json = Some(flags.value("--json")?.to_string()),
            other => {
                return Err(usage(format!(
                    "bench-scan-vs-index: unknown flag `{other}`"
                )));
            }
        }
    }
    if components == 0 || points == 0 || dim == 0 || queries == 0 {
        return Err(usage(
            "--components/--points/--dim/--queries must be positive",
        ));
    }
    if topk == 0 {
        return Err(usage("--topk must be at least 1"));
    }
    if segments.is_some() && circuit_order > 0 {
        return Err(usage(
            "--segments and --circuit-order are mutually exclusive",
        ));
    }

    if let Some(sizes) = segments {
        // Size sweep: trajectories are derived from the target segment
        // count at 2·points segments per trajectory (minimum 2), so the
        // actual count printed/recorded may round off the target.
        let mut rows = Vec::with_capacity(sizes.len());
        for &target in &sizes {
            let comp = ((target as f64 / (2.0 * points as f64)).round() as usize).max(2);
            let set = synthetic_trajectory_set(comp, points, dim, seed);
            println!("--- target {target} segments ---");
            let row = bench_one(&set, queries, seed, leaf, topk)?;
            print_bench_row(&row);
            rows.push(row);
        }
        if let Some(path) = json {
            write_bench_json(&path, &rows)?;
            println!("wrote {path}");
        }
        return Ok(());
    }

    let set = if circuit_order > 0 {
        if !(1..=9).contains(&circuit_order) {
            return Err(usage("--circuit-order must be in 1..=9"));
        }
        if points > 320 {
            return Err(usage(
                "--circuit-order mode supports --points up to 320 (deviation step >= 0.125%)",
            ));
        }
        // Simulated bank: one trajectory per ladder passive, 2·points
        // segments each (deviation step 40/points %), built through the
        // engine-backed offline pipeline.
        let step = 40.0 / points as f64;
        let bank = synthetic_circuit_bank(circuit_order, step, 41, &TestVector::pair(0.6, 1.6))
            .map_err(runtime)?;
        let set = bank.trajectory_set().clone();
        println!(
            "simulated order-{circuit_order} RLC-ladder bank: {} faults on a {}-point grid",
            bank.dictionary().entries().len(),
            bank.dictionary().grid().len(),
        );
        set
    } else {
        synthetic_trajectory_set(components, points, dim, seed)
    };
    let row = bench_one(&set, queries, seed, leaf, topk)?;
    print_bench_row(&row);
    if let Some(path) = json {
        write_bench_json(&path, &[row])?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServeHandle;

    #[test]
    fn fault_spec_parsing() {
        let f = parse_fault("R2:+25").unwrap();
        assert_eq!(f.component(), "R2");
        assert_eq!(f.percent(), 25.0);
        let f = parse_fault("C1:-12.5%").unwrap();
        assert_eq!(f.component(), "C1");
        assert_eq!(f.percent(), -12.5);
        assert!(parse_fault("R2").is_err());
        assert!(parse_fault(":25").is_err());
        assert!(parse_fault("R2:abc").is_err());
        assert!(parse_fault("R2:-100").is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        assert_eq!(main_from_args(vec!["--help".into()]), 0);
        assert_eq!(main_from_args(vec!["help".into()]), 0);
        assert_eq!(main_from_args(vec![]), 2);
        assert_eq!(main_from_args(vec!["frobnicate".into()]), 2);
        // `stats` is no subcommand: the stats file is the exposition.
        assert_eq!(main_from_args(vec!["stats".into(), "f".into()]), 2);
    }

    #[test]
    fn usage_errors_are_exit_2() {
        assert_eq!(
            main_from_args(vec!["diagnose".into()]), // missing --bank
            2
        );
        assert_eq!(
            main_from_args(vec!["build-bank".into(), "--bogus".into()]),
            2
        );
        assert_eq!(
            main_from_args(vec![
                "build-bank".into(),
                "--f1".into(),
                "2.0".into(),
                "--f2".into(),
                "1.0".into(),
            ]),
            2
        );
        // `diagnose` ranks each signature with the linear scan and the
        // bench times one query at a time, so no flag picks a path or a
        // thread count. A missing bank alone exits 1 and the bench
        // alone exits 0, so exit 2 means the flag itself was refused.
        let missing = "/nonexistent/bank.ftb";
        for args in [
            &["diagnose", "--bank", missing, "--linear"][..],
            &["diagnose", "--bank", missing, "--workers", "2"],
            &["bench-scan-vs-index", "--workers", "2"],
        ] {
            let argv = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(main_from_args(argv), 2, "{args:?}");
        }
    }

    #[test]
    fn missing_bank_file_is_exit_1() {
        assert_eq!(
            main_from_args(vec![
                "diagnose".into(),
                "--bank".into(),
                "/nonexistent/bank.ftb".into(),
            ]),
            1
        );
    }

    #[test]
    fn bench_subcommand_runs_small() {
        assert_eq!(
            main_from_args(vec![
                "bench-scan-vs-index".into(),
                "--components".into(),
                "8".into(),
                "--points".into(),
                "3".into(),
                "--queries".into(),
                "5".into(),
            ]),
            0
        );
    }

    #[test]
    fn bench_subcommand_runs_on_simulated_circuit_bank() {
        assert_eq!(
            main_from_args(vec![
                "bench-scan-vs-index".into(),
                "--circuit-order".into(),
                "2".into(),
                "--points".into(),
                "4".into(),
                "--queries".into(),
                "5".into(),
            ]),
            0
        );
        assert_eq!(
            main_from_args(vec![
                "bench-scan-vs-index".into(),
                "--circuit-order".into(),
                "12".into(),
            ]),
            2
        );
        // --points beyond the circuit-mode cap is a usage error, not a
        // silent clamp.
        assert_eq!(
            main_from_args(vec![
                "bench-scan-vs-index".into(),
                "--circuit-order".into(),
                "2".into(),
                "--points".into(),
                "1000".into(),
            ]),
            2
        );
    }

    #[test]
    fn serve_and_gen_requests_usage_errors() {
        // serve without --banks, with a bogus directory, no budget.
        assert_eq!(main_from_args(vec!["serve".into()]), 2);
        assert_eq!(
            main_from_args(vec![
                "serve".into(),
                "--banks".into(),
                "/nonexistent/shards".into(),
            ]),
            1
        );
        // Stdin and TCP serving run one loop: a parse pass is a batch,
        // capped by --max-inflight, and the refresh tick rewrites
        // --stats-file, so neither --batch nor --stats-every exists.
        for (flag, value) in [
            ("--max-inflight", "0"),
            ("--batch", "4"),
            ("--stats-every", "3"),
        ] {
            assert_eq!(
                main_from_args(vec![
                    "serve".into(),
                    "--banks".into(),
                    "/nonexistent/shards".into(),
                    flag.into(),
                    value.into(),
                ]),
                2,
                "serve {flag} {value}"
            );
        }
        // Serving always answers with the top-1 prefix; there is no
        // ranking-depth flag on either front end.
        for cmd in [["serve", "--banks"], ["diagnose", "--bank"]] {
            assert_eq!(
                main_from_args(vec![
                    cmd[0].into(),
                    cmd[1].into(),
                    "/tmp".into(),
                    "--topk".into(),
                    "3".into(),
                ]),
                2,
                "{} --topk must be an unknown flag",
                cmd[0]
            );
        }
        assert_eq!(main_from_args(vec!["gen-requests".into()]), 2);
        assert_eq!(
            main_from_args(vec![
                "gen-requests".into(),
                "--bank".into(),
                "/tmp/x.ftb".into(),
                "--cut-id".into(),
                "../evil".into(),
            ]),
            2
        );
        assert_eq!(main_from_args(vec!["bank-info".into()]), 2);
        assert_eq!(
            main_from_args(vec!["bank-info".into(), "/nonexistent/bank.ftb".into()]),
            1
        );
    }

    #[test]
    fn bank_info_reads_v3_and_refuses_every_other_version() {
        use crate::synthetic::synthetic_circuit_bank;
        use ft_core::TestVector;

        let dir = std::env::temp_dir().join("ftd_bank_info_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bank = synthetic_circuit_bank(2, 0.5, 7, &TestVector::pair(0.5, 2.0)).unwrap();
        let v3 = dir.join("v3.ftb");
        bank.save(&v3).unwrap();
        let arg = |p: &std::path::Path| p.display().to_string();
        assert!(bank_info(&[arg(&v3)]).is_ok());
        // Versions 1 and 2 (deleted formats) and 4 (unknown) are refused
        // with one message naming the file and the version. The version
        // field sits outside every checksum, so the rest of each
        // container is well formed.
        for version in [1u16, 2, 4] {
            let path = dir.join(format!("v{version}.ftb"));
            let mut bytes = std::fs::read(&v3).unwrap();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            let Err(CliError::Runtime(msg)) = bank_info(&[arg(&path)]) else {
                panic!("bank-info {path:?} must fail at runtime");
            };
            assert!(msg.contains(&format!("v{version}.ftb")), "{msg}");
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("reads v3 banks"), "{msg}");
            assert_eq!(main_from_args(vec!["bank-info".into(), arg(&path)]), 1);
        }
        // The migration subcommand is gone: an unknown subcommand.
        assert_eq!(
            main_from_args(vec!["reencode".into(), arg(&v3), arg(&v3)]),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_line_parsing() {
        assert!(parse_request_line("", 1).unwrap().is_none());
        assert!(parse_request_line("  # comment", 2).unwrap().is_none());
        let req = parse_request_line("cut-a 1.5 -2.25", 3).unwrap().unwrap();
        assert_eq!(req.cut_id, "cut-a");
        assert_eq!(req.signature.coords(), &[1.5, -2.25]);
        assert!(parse_request_line("cut-a", 4).is_err());
        assert!(parse_request_line("cut-a 1.0 oops", 5).is_err());
        assert!(parse_request_line("cut-a NaN", 6).is_err());
    }

    #[test]
    fn gen_requests_feeds_diagnose_requests() {
        let dir = std::env::temp_dir().join("ftd_cli_requests_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bank = dir.join("cut-a.ftb");
        let reqs = dir.join("reqs.txt");
        let bank_str = bank.to_string_lossy().to_string();
        assert_eq!(
            main_from_args(vec![
                "build-bank".into(),
                "--out".into(),
                bank_str.clone(),
                "--grid-points".into(),
                "21".into(),
            ]),
            0
        );
        // gen-requests prints to stdout; run its internals directly so
        // the test can capture the lines.
        let loaded = TrajectoryBank::load(&bank).unwrap();
        let mut text = String::new();
        for sig in synthetic_queries(loaded.trajectory_set(), 5, 3) {
            text.push_str("cut-a");
            for x in sig.coords() {
                text.push(' ');
                text.push_str(&x.to_string());
            }
            text.push('\n');
        }
        // A line for another CUT must be filtered out by --cut-id.
        text.push_str("cut-b 0.5 0.5\n");
        std::fs::write(&reqs, &text).unwrap();

        assert_eq!(
            main_from_args(vec![
                "diagnose".into(),
                "--bank".into(),
                bank_str.clone(),
                "--requests".into(),
                reqs.to_string_lossy().to_string(),
                "--cut-id".into(),
                "cut-a".into(),
            ]),
            0
        );
        // --requests excludes every simulation flag, including the ones
        // that would otherwise be silently ignored.
        for (flag, value) in [("--random", "3"), ("--q", "1.5"), ("--noise-db", "0.5")] {
            assert_eq!(
                main_from_args(vec![
                    "diagnose".into(),
                    "--bank".into(),
                    bank_str.clone(),
                    "--requests".into(),
                    reqs.to_string_lossy().to_string(),
                    flag.into(),
                    value.into(),
                ]),
                2,
                "{flag} must be rejected with --requests"
            );
        }
        // bank-info on the fresh bank exits 0.
        assert_eq!(main_from_args(vec!["bank-info".into(), bank_str]), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diagnose_requests_matches_store_routing() {
        // The acceptance wiring the CI smoke scripts in shell, pinned
        // here in-process: the store/pool path serves the single-bank
        // engine's top-1 prefix, and its serve-format lines equal the
        // linear scan's, which `diagnose --requests` prints.
        let dir = std::env::temp_dir().join("ftd_cli_serve_equiv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let tv = ft_core::TestVector::pair(0.5, 2.0);
        let bank = crate::synthetic::synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
        bank.save(dir.join("ladder.ftb")).unwrap();

        let store = Arc::new(
            BankStore::open(&dir, EngineConfig::default()).expect("shard directory opens"),
        );
        let requests: Vec<DiagnosisRequest> = synthetic_queries(bank.trajectory_set(), 9, 41)
            .into_iter()
            .map(|sig| DiagnosisRequest::new("ladder", sig))
            .collect();
        let mut handle = ServeHandle::new(store, 4);
        handle.submit(requests.clone());
        let pooled = handle.drain().remove(0);

        let set = TrajectoryBank::load(dir.join("ladder.ftb"))
            .expect("bank loads")
            .into_trajectory_set();
        let engine = DiagnosisEngine::new(set, EngineConfig::default());

        assert_eq!(pooled.len(), requests.len());
        for (req, pooled) in requests.iter().zip(&pooled) {
            let pooled = pooled.as_ref().expect("request served");
            let reference = &engine.diagnose_linear(&req.signature);
            assert_eq!(
                pooled,
                &engine.diagnose_topk(&req.signature, 1),
                "pooled path diverged"
            );
            assert_eq!(pooled.best(), reference.best(), "verdicts diverged");
            assert_eq!(pooled.ambiguity_set(), reference.ambiguity_set());
            assert_eq!(
                render_diagnosis_line(&req.cut_id, pooled),
                render_diagnosis_line(&req.cut_id, reference),
                "rendered lines diverged"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_diagnosis_line_bytes() {
        let at = |component: &str, distance: f64, deviation_pct: f64| ft_core::Candidate {
            component: component.into(),
            distance,
            deviation_pct,
        };
        // Ratio 1.5 around a best distance of 0.5: only R2 is inside.
        let one = Diagnosis::from_candidates(vec![at("C1", 3.0, -10.0), at("R2", 0.5, 25.0)], 1.5);
        assert_eq!(
            render_diagnosis_line("cut-7", &one),
            "cut-7\tR2\t25\t0.5\tR2"
        );
        // Three components within 1.5 × 0.25; shortest round-trip floats.
        let three = Diagnosis::from_candidates(
            vec![
                at("R1", 5.0, 40.0),
                at("R3", 0.25, 0.1 + 0.2),
                at("R5", 0.3, -4.0),
                at("C2", 0.375, 1e-3),
            ],
            1.5,
        );
        assert_eq!(
            render_diagnosis_line("q15", &three),
            "q15\tR3\t0.30000000000000004\t0.25\tR3,R5,C2"
        );
    }

    #[test]
    fn build_and_diagnose_round_trip() {
        let path = std::env::temp_dir().join("ftd_cli_test_bank.ftb");
        let path_str = path.to_string_lossy().to_string();
        assert_eq!(
            main_from_args(vec![
                "build-bank".into(),
                "--out".into(),
                path_str.clone(),
                "--grid-points".into(),
                "21".into(),
            ]),
            0
        );
        assert_eq!(
            main_from_args(vec![
                "diagnose".into(),
                "--bank".into(),
                path_str.clone(),
                "--fault".into(),
                "R2:+25".into(),
                "--random".into(),
                "3".into(),
            ]),
            0
        );
        // Diagnosing against a different CUT (Q mismatch) must fail
        // loudly instead of silently skewing results.
        assert_eq!(
            main_from_args(vec![
                "diagnose".into(),
                "--bank".into(),
                path_str.clone(),
                "--q".into(),
                "2.0".into(),
            ]),
            1
        );
        std::fs::remove_file(&path).ok();
    }
}
