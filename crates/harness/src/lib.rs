//! `titancfi-harness` — the parallel simulation-campaign engine.
//!
//! Every table, sweep and suite in this reproduction is a set of
//! *independent* simulations; this crate is the substrate that runs them
//! as one campaign instead of a serial chain:
//!
//! * [`job`] — the unit of work: a [`job::Job`] self-describes through a
//!   canonical [`job::JobDescriptor`] whose FNV-1a content hash is its
//!   identity;
//! * [`pool`] — an `std::thread` worker pool (`-j N`) with per-attempt
//!   panic isolation (`catch_unwind`), a wall-clock watchdog, and bounded
//!   retry, collecting results in deterministic submission order;
//! * [`cache`] — a content-addressed on-disk result store making repeated
//!   campaigns incremental;
//! * [`telemetry`] — a JSONL event stream plus the aggregated
//!   [`telemetry::CampaignReport`];
//! * [`json`] — the hand-rolled JSON both of the above serialize with;
//! * [`prng`] — SplitMix64 / xoshiro256**, the workspace's deterministic
//!   randomness source (replaces the `rand` crate);
//! * [`steal`] — per-worker sharded queues with batch work-stealing, the
//!   scheduler substrate for long-lived re-enqueued work (fleet devices);
//! * [`timing`] — a minimal micro-benchmark runner (replaces criterion).
//!
//! The crate deliberately has **zero dependencies** — it sits at the very
//! bottom of the workspace DAG so every other crate (including
//! `riscv-isa`) can dev-depend on it for seeded test-input generation.

#![forbid(unsafe_code)]

pub mod cache;
pub mod job;
pub mod json;
pub mod pool;
pub mod prng;
pub mod steal;
pub mod telemetry;
pub mod timing;

pub use cache::ResultCache;
pub use job::{fnv1a_64, Job, JobDescriptor, JobOutput};
pub use json::Json;
pub use pool::{run_campaign, CampaignConfig, CampaignOutcome};
pub use prng::{SplitMix64, Xoshiro256};
pub use steal::StealQueues;
pub use telemetry::{CampaignReport, JobRecord, JobStatus, Telemetry, TelemetrySink};
