//! `titancfi-obs` — cycle-level instrumentation for the SoC co-simulation.
//!
//! The paper's evaluation is an exercise in *cycle attribution*: Table I
//! splits firmware cycles by phase and memory category, Tables II/III
//! explain slowdown through queue back-pressure, and the latency numbers
//! hinge on doorbell-to-completion round trips. This crate is the
//! measurement substrate that makes those attributions observable in any
//! run, not just the curated table regenerations:
//!
//! * [`probe`] — the zero-cost-when-disabled [`Probe`] trait. Simulation
//!   components accept `&mut dyn Probe` in `*_probed` method variants; the
//!   plain variants pass [`NoProbe`] (every hook is an empty default, so
//!   the uninstrumented hot path is unchanged).
//! * [`metrics`] — [`SimMetrics`]: named monotonic counters and
//!   fixed-bucket [`Histogram`]s (queue occupancy, stall causes,
//!   doorbell-to-completion latency, firmware phase/category cycles).
//! * [`timeline`] — [`Timeline`]: a structured event record (spans,
//!   instants, counter tracks) exporting Chrome/Perfetto `trace_event`
//!   JSON, loadable in `ui.perfetto.dev`.
//! * [`profiler`] — [`FirmwareProfiler`]: sampling-free per-PC cycle
//!   attribution on the Ibex model, resolved against firmware symbols
//!   into hot-spot tables and collapsed-stack (flamegraph) output.
//! * [`recorder`] — [`Recorder`]: the everything-on [`Probe`]
//!   implementation bundling all three, which `titancfi-soc` attaches to
//!   a [`SystemOnChip`](../titancfi_soc) run.
//! * [`latency`] — [`LatencySpans`]: per-log lifecycle boundary stamps
//!   (accept → dequeue → doorbell → completion → verdict) attributed to
//!   pipeline stages under an exact conservation law, plus the
//!   detection-latency window for corruption runs, and
//!   [`LatencyCollector`], the minimal latency-only [`Probe`].
//!
//! The crate depends only on `titancfi-harness` (for its JSON writer), so
//! every simulation layer — `ibex-model`, `titancfi` (core), `soc` — can
//! use it without dependency cycles.

#![forbid(unsafe_code)]

pub mod latency;
pub mod metrics;
pub mod probe;
pub mod profiler;
pub mod recorder;
pub mod timeline;

pub use latency::{LatencyCollector, LatencySpans};
pub use metrics::{Histogram, SimMetrics};
pub use probe::{NoProbe, Probe, RetireSample, Track};
pub use profiler::FirmwareProfiler;
pub use recorder::Recorder;
pub use timeline::{Timeline, TimelineConfig};
