//! The trace-driven CFI overhead model (paper §V-C).
//!
//! The paper computes slowdown by (1) extracting a cycle-accurate commit
//! trace from RTL simulation and (2) feeding it to a trace-driven model
//! that emulates the CFI check latency. This crate is step (2), exactly:
//!
//! * a [`Trace`] is the list of cycles at which control-flow instructions
//!   retire, plus the baseline total;
//! * [`simulate`] replays the trace against a CFI queue of configurable
//!   depth and a RoT that serves one commit log every `latency` cycles,
//!   stalling the core whenever a control-flow instruction retires into a
//!   full queue — the Queue Controller behaviour of §IV-B2;
//! * [`service_bound`] gives the closed-form lower bound (the RoT is a
//!   rate-1/L server, so a trace with `n` checks can never finish faster
//!   than `n·L` cycles).
//!
//! Table II uses queue depth 1, Table III depth 8, with the three check
//! latencies measured from the firmware (≈267 / 112 / 73 cycles).

#![forbid(unsafe_code)]

pub mod baselines;

use cva6_model::Commit;

/// A commit trace reduced to what the model needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Baseline execution length in cycles (no CFI).
    pub total_cycles: u64,
    /// Commit cycle of every CFI-relevant control-flow instruction,
    /// non-decreasing.
    pub cf_cycles: Vec<u64>,
}

impl Trace {
    /// Builds a trace from a full CVA6 commit stream.
    #[must_use]
    pub fn from_commits(commits: &[Commit], total_cycles: u64) -> Trace {
        let cf_cycles = commits
            .iter()
            .filter(|c| c.cf_class.is_cfi_relevant())
            .map(|c| c.cycle)
            .collect();
        Trace {
            total_cycles,
            cf_cycles,
        }
    }

    /// Builds a trace directly from control-flow commit cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cf_cycles` is not sorted or exceeds `total_cycles`.
    #[must_use]
    pub fn from_cf_cycles(cf_cycles: Vec<u64>, total_cycles: u64) -> Trace {
        assert!(
            cf_cycles.windows(2).all(|w| w[0] <= w[1]),
            "cf cycles must be sorted"
        );
        if let Some(&last) = cf_cycles.last() {
            assert!(last <= total_cycles, "cf cycle beyond end of trace");
        }
        Trace {
            total_cycles,
            cf_cycles,
        }
    }

    /// Number of checked control-flow instructions.
    #[must_use]
    pub fn cf_count(&self) -> usize {
        self.cf_cycles.len()
    }
}

/// Result of replaying a trace through the CFI pipeline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Cycles with CFI enforcement enabled.
    pub cycles_with_cfi: u64,
    /// Baseline cycles.
    pub cycles_baseline: u64,
    /// Core stall cycles injected by queue back-pressure.
    pub stall_cycles: u64,
    /// Control-flow retirements that hit a full queue and stalled the core
    /// (each contributes ≥1 cycle to [`SimOutcome::stall_cycles`]).
    pub stall_events: u64,
    /// Maximum queue occupancy observed.
    pub max_occupancy: usize,
    /// Slowdown as a fraction (0.10 = +10 %).
    pub slowdown: f64,
}

impl SimOutcome {
    /// Slowdown in percent, the unit of Tables II and III.
    #[must_use]
    pub fn slowdown_percent(&self) -> f64 {
        self.slowdown * 100.0
    }
}

/// Replays `trace` against a CFI queue of `depth` entries and a RoT check
/// latency of `latency` cycles per log.
///
/// The model is exact for the paper's architecture under two observations:
/// the Log Writer pops a log as soon as it is idle, and a control-flow
/// instruction retiring into a full queue stalls the core until the oldest
/// queued log is popped. Service of log *i* therefore starts at
/// `max(enqueue_i, start_{i-1} + latency)`, and the core stalls at log *i*
/// until log *i - depth* has started service.
///
/// # Panics
///
/// Panics if `depth == 0`.
#[must_use]
pub fn simulate(trace: &Trace, latency: u64, depth: usize) -> SimOutcome {
    assert!(depth > 0, "queue depth must be at least 1");
    let n = trace.cf_cycles.len();
    let mut pop = vec![0u64; n]; // service-start (= queue-pop) time of log i
    let mut stall_total = 0u64;
    let mut stall_events = 0u64;
    let mut max_occupancy = 0usize;

    for i in 0..n {
        let mut t = trace.cf_cycles[i] + stall_total;
        // Queue full? Wait for the slot freed by log (i - depth).
        if i >= depth {
            let frees_at = pop[i - depth];
            if frees_at > t {
                stall_total += frees_at - t;
                stall_events += 1;
                t = frees_at;
            }
        }
        // Occupancy right after this enqueue: logs j <= i with pop_j > t.
        let mut occ = 1;
        for j in (0..i).rev() {
            if pop[j] > t {
                occ += 1;
            } else {
                break;
            }
        }
        max_occupancy = max_occupancy.max(occ);
        let prev_end = if i == 0 { 0 } else { pop[i - 1] + latency };
        pop[i] = t.max(prev_end);
    }

    let cycles_with_cfi = trace.total_cycles + stall_total;
    let slowdown = if trace.total_cycles == 0 {
        0.0
    } else {
        stall_total as f64 / trace.total_cycles as f64
    };
    SimOutcome {
        cycles_with_cfi,
        cycles_baseline: trace.total_cycles,
        stall_cycles: stall_total,
        stall_events,
        max_occupancy,
        slowdown,
    }
}

/// The closed-form service-rate lower bound on slowdown: the RoT checks one
/// log per `latency` cycles, so execution takes at least `cf·latency`
/// cycles. Returns the bound as a fraction.
#[must_use]
pub fn service_bound(trace: &Trace, latency: u64) -> f64 {
    if trace.total_cycles == 0 {
        return 0.0;
    }
    let service = trace.cf_count() as u64 * latency;
    if service <= trace.total_cycles {
        0.0
    } else {
        (service - trace.total_cycles) as f64 / trace.total_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_trace(n: u64, gap: u64) -> Trace {
        let cf: Vec<u64> = (1..=n).map(|i| i * gap).collect();
        Trace::from_cf_cycles(cf, n * gap + gap)
    }

    #[test]
    fn sparse_cf_no_overhead() {
        let t = uniform_trace(100, 1000);
        let out = simulate(&t, 100, 1);
        assert_eq!(out.stall_cycles, 0);
        assert_eq!(out.stall_events, 0);
        assert!(out.slowdown.abs() < f64::EPSILON);
        assert_eq!(out.max_occupancy, 1);
    }

    #[test]
    fn stall_events_count_stalling_retirements() {
        // Back-to-back CF at depth 1: every log after the first two queues
        // behind a busy server, so almost all retirements stall.
        let t = uniform_trace(100, 1);
        let out = simulate(&t, 50, 1);
        assert!(out.stall_events > 0);
        assert!(
            out.stall_events <= t.cf_count() as u64,
            "at most one stall event per CF retirement"
        );
        assert!(
            out.stall_cycles >= out.stall_events,
            "each stall event costs at least one cycle"
        );
    }

    #[test]
    fn dense_cf_service_bound_dominates() {
        let t = uniform_trace(1000, 1);
        let out = simulate(&t, 100, 1);
        let bound = service_bound(&t, 100);
        assert!(
            out.slowdown >= bound * 0.95,
            "{} vs bound {}",
            out.slowdown,
            bound
        );
        assert!(
            out.slowdown > 90.0 && out.slowdown < 110.0,
            "{}",
            out.slowdown
        );
    }

    #[test]
    fn deeper_queue_never_hurts() {
        let mut cf = Vec::new();
        for burst in 0..20u64 {
            for i in 0..10u64 {
                cf.push(burst * 5000 + i);
            }
        }
        let t = Trace::from_cf_cycles(cf, 100_000);
        let mut prev = u64::MAX;
        for depth in [1, 2, 4, 8, 16] {
            let out = simulate(&t, 100, depth);
            assert!(
                out.stall_cycles <= prev,
                "depth {depth}: {} > {prev}",
                out.stall_cycles
            );
            prev = out.stall_cycles;
        }
    }

    #[test]
    fn queue_absorbs_bursts_smaller_than_depth() {
        let mut cf = Vec::new();
        for burst in 0..10u64 {
            for i in 0..8u64 {
                cf.push(burst * 10_000 + i);
            }
        }
        let t = Trace::from_cf_cycles(cf, 100_000);
        let out = simulate(&t, 100, 8);
        assert_eq!(out.stall_cycles, 0, "depth-8 queue absorbs 8-bursts");
        let out1 = simulate(&t, 100, 1);
        assert!(out1.stall_cycles > 0, "depth-1 queue cannot");
    }

    #[test]
    fn lower_latency_lower_overhead() {
        let t = uniform_trace(500, 50);
        let irq = simulate(&t, 267, 8);
        let poll = simulate(&t, 112, 8);
        let opt = simulate(&t, 73, 8);
        assert!(irq.stall_cycles >= poll.stall_cycles);
        assert!(poll.stall_cycles >= opt.stall_cycles);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_cf_cycles(vec![], 1000);
        let out = simulate(&t, 267, 1);
        assert_eq!(out.stall_cycles, 0);
        assert_eq!(out.cycles_with_cfi, 1000);
        assert_eq!(service_bound(&t, 267), 0.0);
    }

    #[test]
    fn slowdown_percent_unit() {
        let t = uniform_trace(100, 10);
        let out = simulate(&t, 100, 1);
        assert!((out.slowdown_percent() - out.slowdown * 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let _ = Trace::from_cf_cycles(vec![5, 3], 10);
    }

    #[test]
    fn from_commits_filters_cf() {
        use riscv_asm::assemble;
        let prog = assemble(
            "_start: call f\ncall f\nebreak\nf: ret\n",
            riscv_isa::Xlen::Rv64,
            0x8000_0000,
        )
        .expect("assembles");
        let mut core =
            cva6_model::Cva6Core::new(&prog, 1 << 16, cva6_model::TimingConfig::default());
        let (commits, _) = core.run(100_000);
        let trace = Trace::from_commits(&commits, core.cycle());
        assert_eq!(trace.cf_count(), 4, "2 calls + 2 returns");
        assert!(trace.total_cycles > 0);
    }
}
