//! # ft-serve
//!
//! The serving layer over the fault-trajectory method: the paper's
//! pipeline splits into an expensive offline phase (fault simulation →
//! signatures → trajectories) and a cheap online phase (nearest-segment
//! lookup). This crate turns that split into an engine:
//!
//! * [`TrajectoryBank`] — dictionary + trajectories (+ an optional
//!   multi-fault dictionary) persisted to disk through a self-contained
//!   binary [`codec`]: a sectioned v3 container whose sections are
//!   type-tagged, length-prefixed, and independently checksummed; a
//!   served shard reads only its trajectory section
//!   ([`DiagnosisEngine::open`], through [`MappedBank`]) (unknown
//!   sections skip; v3 is the one format written and read; the vendored
//!   `serde` is a marker-only shim, so the codec is hand-rolled).
//! * [`SegmentIndex`] — a spatial index over signature space: a
//!   cache-flat SoA forest of per-trajectory 8-ary AABB trees with
//!   SIMD-friendly batched box tests and a top-k early-termination
//!   query path — all **bit-identical** to the linear scan.
//! * [`DiagnosisEngine`] — one trajectory set behind its index, built in
//!   process ([`DiagnosisEngine::new`]) or read from a shard file
//!   ([`DiagnosisEngine::open`]), answering one signature per call: the
//!   full ranking through the index
//!   ([`DiagnosisEngine::diagnose`]), the served top-1 prefix, or the
//!   exhaustive linear scan ([`DiagnosisEngine::diagnose_linear`]), the
//!   reference that served answers are checked against.
//! * [`BankStore`] — multi-circuit sharding: many banks keyed by CUT
//!   id, loaded lazily from `<dir>/<cut-id>.ftb`, each request routed to
//!   its shard's index and answered by the top-1 early-exit search
//!   ([`diagnose_on`]): the full ranking's prefix through the winner's
//!   ambiguity set, so its verdict, ambiguity set and response line are
//!   the full ranking's.
//! * [`ServeHandle`] — the persistent serving front-end and the one
//!   concurrent executor: long-lived worker threads over an mpsc queue
//!   with input-order reassembly, so sustained traffic pays no
//!   per-batch thread spawn and batches pipeline; answers are
//!   byte-identical at every worker count.
//! * [`MetricsRegistry`] ([`obs`]) — hand-rolled serving observability:
//!   lock-free counters, gauges, and log₂-bucket latency histograms
//!   over the engine, store, and pool, snapshotted as the Prometheus
//!   text exposition — and provably inert when disabled.
//! * [`NetServer`] ([`net`]) — the serving front end: one hand-rolled
//!   `poll(2)` readiness loop whose connections are generic over their
//!   byte stream and codec — TCP sockets speaking a length-prefixed,
//!   checksummed frame protocol, or stdin/stdout speaking request
//!   lines — with per-connection pipelining, bounded-memory
//!   backpressure, graceful drain, and a matching pipelined TCP load
//!   generator ([`run_loadgen`]).
//! * the `ftd` binary ([`cli`]) — `build-bank`, `diagnose`, `serve`
//!   (stdin or `--listen`), `loadgen`, `gen-requests`, `bank-info`
//!   and `bench-scan-vs-index` front ends over the same API.
//!
//! ## Platform
//!
//! The crate targets unix for one layer: the event loop behind
//! [`NetServer::run`] and `ftd serve` (stdin and `--listen` alike) waits
//! in `poll(2)`, called through hand-rolled `extern "C"` bindings (there
//! is no libc crate here). Off unix [`NetServer::run`] returns
//! [`std::io::ErrorKind::Unsupported`] and `ftd serve` exits 1.
//! Everything else — shard loading, [`BankStore`], the engine,
//! [`ServeHandle`], the frame and line codecs and the load generator —
//! is portable `std`; an embedding off unix serves through
//! [`ServeHandle`] directly.
//!
//! ## Example
//!
//! ```
//! use ft_circuit::tow_thomas_normalized;
//! use ft_core::TestVector;
//! use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
//! use ft_numerics::FrequencyGrid;
//! use ft_serve::{DiagnosisEngine, EngineConfig, TrajectoryBank};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = tow_thomas_normalized(1.0)?;
//! let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
//! let dict = FaultDictionary::build(
//!     &bench.circuit,
//!     &universe,
//!     &bench.input,
//!     &bench.probe,
//!     &FrequencyGrid::log_space(0.01, 100.0, 21),
//! )?;
//!
//! // Offline: build and persist the bank.
//! let bank = TrajectoryBank::build(dict, &TestVector::pair(0.6, 1.6));
//! let bytes = bank.to_bytes();
//!
//! // Online: reload and serve.
//! let bank = TrajectoryBank::from_bytes(&bytes)?;
//! let engine = DiagnosisEngine::new(bank.into_trajectory_set(), EngineConfig::default());
//! let mut faulty = bench.circuit.clone();
//! faulty.set_value("R2", 1.25)?;
//! let sig = ft_core::measure_signature(
//!     &faulty, &bench.circuit, &bench.input, &bench.probe,
//!     &TestVector::pair(0.6, 1.6),
//! )?;
//! let verdict = engine.diagnose(&sig);
//! assert_eq!(verdict.best().component, "R2");
//! // The index is exact: the linear scan ranks identically.
//! assert_eq!(verdict, engine.diagnose_linear(&sig));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bank;
pub mod cli;
pub mod codec;
pub mod engine;
pub mod index;
pub mod net;
pub mod obs;
pub mod pool;
pub mod store;
pub mod synthetic;

pub use bank::{MappedBank, TrajectoryBank};
pub use codec::{
    checksum, section_name, CodecError, ContainerBuilder, SectionTable, SECTION_DICTIONARY,
    SECTION_TRAJECTORIES,
};
pub use engine::{DiagnosisEngine, EngineConfig};
pub use index::SegmentIndex;
pub use net::{response_line, run_loadgen, LoadgenConfig, NetConfig, NetServer};
pub use obs::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot,
};
pub use pool::{ServeHandle, ServeResult};
pub use store::{diagnose_on, BankStore, DiagnosisRequest, FileGen, StoreConfig, StoreError};
pub use synthetic::{synthetic_circuit_bank, synthetic_queries, synthetic_trajectory_set};
