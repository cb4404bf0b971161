//! Per-layer replays for the traced run.
//!
//! Each layer's work is replayed in isolation, outside the timed
//! end-to-end rounds, on the workload's own traffic (its programs, its
//! tapped commit-log stream, its frames), by timing calls into that crate's
//! public functions and reading the counts its public API already returns.
//! The comment on each metric names the end-to-end metric it should move.

use crate::fleet::{self, FleetSpec};
use crate::stats::{histogram_quantile, percentile, ratio};
use crate::trace::Tracer;
use crate::workload::{ProgramRef, Workload, MAX_CYCLES};
use cva6_model::{Cva6Core, TimingConfig};
use riscv_asm::Program;
use std::sync::Arc;
use std::time::Instant;
use titancfi::firmware::FirmwareRunner;
use titancfi::wire::Frame;
use titancfi::{CfiFilter, CommitLog};
use titancfi_fleet::{Backend, DeviceCounters, HealthConfig, HealthMonitor};
use titancfi_obs::LatencySpans;

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Paper Table I: Polling firmware, cycles per check.
pub const TABLE1_POLLING_CYCLES: f64 = 112.0;

/// Simulated cycles per `run_slice` in the slice replay (the fleet
/// device's slice length).
const SLICE_CYCLES: u64 = 2_000;

/// Commits per program replayed through the filter (a prefix, so the
/// replay's memory stays bounded on long programs).
const SCAN_COMMITS: usize = 1 << 17;

/// Repeats `f` until at least `min_s` seconds have passed (and at least
/// once); returns seconds per call.
fn time_per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < min_s {
        f();
        n += 1;
    }
    start.elapsed().as_secs_f64() / n as f64
}

/// Everything the replays need from the end-to-end part of the run.
pub struct Inputs<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Its assembled programs.
    pub programs: &'a [Program],
    /// Per-program references (stream, SoC report, spans).
    pub refs: &'a [ProgramRef],
    /// Fleet devices for the fleet replay.
    pub fleet_devices: u32,
}

/// Runs every replay and returns the layer metrics, in a fixed order.
///
/// # Errors
///
/// A replay whose output disagrees with the reference (a verdict flagged
/// on a benign stream, a frame lost in a transport, a failed fleet round).
pub fn replay(inp: &Inputs<'_>, tracer: &Arc<Tracer>) -> Result<Vec<Metric>, String> {
    let mut m: Vec<Metric> = Vec::new();
    tracer.span("layer.soc", 0, || soc_slices(inp, tracer, &mut m));
    tracer.span("layer.core", 0, || core_counts(inp, tracer, &mut m));
    tracer.span("layer.cva6-model", 0, || cva6(inp, tracer, &mut m));
    tracer.span("layer.ibex-model", 0, || ibex(inp, tracer, &mut m))?;
    tracer.span("layer.obs", 0, || obs(inp, tracer, &mut m));
    tracer.span("layer.fleet", 0, || fleet_layer(inp, tracer, &mut m))?;
    Ok(m)
}

/// `soc.slice_us_*` and `soc.ns_per_log` → `logs_per_s`,
/// `sim_mcycles_per_s`: every program sliced into fixed-cycle
/// `run_slice` calls, each timed.
fn soc_slices(inp: &Inputs<'_>, tracer: &Tracer, m: &mut Vec<Metric>) {
    let w = inp.workload;
    let mut slices_us = Vec::new();
    let mut host_s = 0.0;
    let mut logs = 0u64;
    for p in inp.programs {
        let mut soc = w.boot(p, w.observe);
        let mut until = 0;
        let halt = loop {
            until += SLICE_CYCLES;
            let t = Instant::now();
            let h = tracer.span("soc.run_slice", 1, || soc.run_slice(until));
            let dt = t.elapsed().as_secs_f64();
            host_s += dt;
            slices_us.push(dt * 1e6);
            if let Some(h) = h {
                break h;
            }
            assert!(until < MAX_CYCLES, "program never halted");
        };
        let t = Instant::now();
        let report = tracer.span("soc.finish", 1, || soc.finish(halt));
        host_s += t.elapsed().as_secs_f64();
        logs += report.logs_checked;
    }
    m.push(("soc.slice_us_p50".into(), percentile(&slices_us, 0.5), "us"));
    m.push((
        "soc.slice_us_p99".into(),
        percentile(&slices_us, 0.99),
        "us",
    ));
    m.push(("soc.slice_samples".into(), slices_us.len() as f64, "count"));
    m.push((
        "soc.ns_per_log".into(),
        host_s * 1e9 / logs.max(1) as f64,
        "ns",
    ));
}

/// `core.*` (simulated, from the reference `SocReport`s) → `slowdown_pct`;
/// `core.filter_ns_per_commit` (`CfiFilter::scan` over a prefix of the
/// strict commit stream) → `guest_mips`.
fn core_counts(inp: &Inputs<'_>, tracer: &Tracer, m: &mut Vec<Metric>) {
    let logs: u64 = inp
        .refs
        .iter()
        .map(|r| r.report.logs_checked)
        .sum::<u64>()
        .max(1);
    let full: u64 = inp.refs.iter().map(|r| r.report.stalls_queue_full).sum();
    let dual: u64 = inp.refs.iter().map(|r| r.report.stalls_dual_cf).sum();
    let hw = inp
        .refs
        .iter()
        .map(|r| r.report.queue_high_water)
        .max()
        .unwrap_or(0);
    m.push((
        "core.stalls_queue_full_per_log".into(),
        full as f64 / logs as f64,
        "cycles/log",
    ));
    m.push((
        "core.stalls_dual_cf_per_log".into(),
        dual as f64 / logs as f64,
        "cycles/log",
    ));
    m.push(("core.queue_high_water".into(), hw as f64, "count"));
    let mut commits_n = 0u64;
    let mut scan_s = 0.0;
    for p in inp.programs {
        let mut core = Cva6Core::new(p, inp.workload.mem_size, TimingConfig::default());
        let commits: Vec<_> = std::iter::from_fn(|| core.step().ok())
            .take(SCAN_COMMITS)
            .collect();
        let per_call = tracer.span("titancfi.CfiFilter::scan", 2, || {
            time_per_call(0.02, || {
                let mut filter = CfiFilter::new();
                for c in &commits {
                    std::hint::black_box(filter.scan(std::hint::black_box(&c.retired)));
                }
            })
        });
        scan_s += per_call;
        commits_n += commits.len() as u64;
    }
    m.push((
        "core.filter_ns_per_commit".into(),
        scan_s * 1e9 / commits_n.max(1) as f64,
        "ns",
    ));
}

/// `cva6-model.*` → `guest_mips`, `sim_mcycles_per_s` on compute: a bare
/// `Cva6Core::run_silent` on each program, with the decode and block cache
/// hit ratios it reports.
fn cva6(inp: &Inputs<'_>, tracer: &Tracer, m: &mut Vec<Metric>) {
    let mut host_s = 0.0;
    let mut instret = 0u64;
    let (mut dh, mut dm, mut bh, mut bm) = (0, 0, 0, 0);
    for p in inp.programs {
        let mut core = Cva6Core::new(p, inp.workload.mem_size, TimingConfig::default());
        let t = Instant::now();
        let _ = tracer.span("cva6-model.run_silent", 3, || core.run_silent(MAX_CYCLES));
        host_s += t.elapsed().as_secs_f64();
        instret += core.stats().instret;
        let d = core.decode_cache_stats();
        let b = core.block_cache_stats();
        (dh, dm, bh, bm) = (dh + d.hits, dm + d.misses, bh + b.hits, bm + b.misses);
    }
    m.push((
        "cva6-model.ns_per_insn".into(),
        host_s * 1e9 / instret.max(1) as f64,
        "ns",
    ));
    m.push(("cva6-model.decode_hit_ratio".into(), ratio(dh, dm), "ratio"));
    m.push(("cva6-model.block_hit_ratio".into(), ratio(bh, bm), "ratio"));
}

/// `ibex-model.*` → `logs_per_s` on call-dense and fleet: each program's
/// reference stream replayed through `FirmwareRunner::check`.
fn ibex(inp: &Inputs<'_>, tracer: &Tracer, m: &mut Vec<Metric>) -> Result<(), String> {
    let kind = inp.workload.soc_config().firmware;
    let mut host_s = 0.0;
    let mut checks = 0u64;
    let mut cycles = 0u64;
    let (mut hits, mut misses) = (0, 0);
    for (i, r) in inp.refs.iter().enumerate() {
        let mut runner = FirmwareRunner::new(kind);
        let t = Instant::now();
        tracer.span("ibex-model.FirmwareRunner::check", 4, || {
            for log in &r.reference.stream {
                cycles += runner.check(log).latency;
            }
        });
        host_s += t.elapsed().as_secs_f64();
        checks += r.reference.stream.len() as u64;
        if runner.violations != 0 {
            return Err(format!("program {i}: RoT replay flagged a benign stream"));
        }
        let d = runner.rot().core.decode_cache_stats();
        (hits, misses) = (hits + d.hits, misses + d.misses);
    }
    let mean = cycles as f64 / checks.max(1) as f64;
    m.push((
        "ibex-model.ns_per_check".into(),
        host_s * 1e9 / checks.max(1) as f64,
        "ns",
    ));
    m.push(("ibex-model.check_cycles_mean".into(), mean, "cycles"));
    m.push((
        "ibex-model.decode_hit_ratio".into(),
        ratio(hits, misses),
        "ratio",
    ));
    println!(
        "model accuracy: ibex-model.check_cycles_mean {mean:.1} cycles vs paper Table I Polling \
         {TABLE1_POLLING_CYCLES} cycles: relative error {:+.1}%",
        (mean / TABLE1_POLLING_CYCLES - 1.0) * 100.0
    );
    Ok(())
}

/// `obs.*` stage percentiles (simulated, from the reference runs' spans)
/// → `log_latency_cycles_*`; `obs.observe_cost_ratio` (host ns/log with a
/// latency collector ÷ without, same programs) → `logs_per_s` on observed.
fn obs(inp: &Inputs<'_>, tracer: &Tracer, m: &mut Vec<Metric>) {
    let mut spans = LatencySpans::new();
    for r in inp.refs {
        spans.merge(&r.spans);
    }
    m.push((
        "obs.queue_wait_cycles_p50".into(),
        histogram_quantile(&spans.queue_wait, 0.5),
        "cycles",
    ));
    m.push((
        "obs.rot_service_cycles_p50".into(),
        histogram_quantile(&spans.fw_check, 0.5),
        "cycles",
    ));
    let w = inp.workload;
    let mut host = [0.0f64; 2];
    for p in inp.programs {
        for (k, observe) in [false, true].into_iter().enumerate() {
            let mut soc = w.boot(p, observe);
            let t = Instant::now();
            let _ = tracer.span("soc.run", 5, || soc.run(MAX_CYCLES));
            host[k] += t.elapsed().as_secs_f64();
        }
    }
    m.push(("obs.observe_cost_ratio".into(), host[1] / host[0], "ratio"));
}

/// `fleet.*` → `logs_per_s` on fleet: one timed fleet round of the
/// workload's programs, plus isolated transport and health-monitor
/// replays over its frames.
fn fleet_layer(inp: &Inputs<'_>, tracer: &Arc<Tracer>, m: &mut Vec<Metric>) -> Result<(), String> {
    let spec = FleetSpec {
        devices: inp.fleet_devices,
        passes: 24,
        programs: inp.programs.iter().cloned().map(Arc::new).collect(),
        expect: inp.refs.iter().map(fleet::Expect::of).collect(),
        latency: inp.workload.observe,
        time_polls: true,
    };
    let round = fleet::run_round(&spec, tracer, 6);
    round.verify().map_err(|e| format!("fleet replay: {e}"))?;
    let r = &round.report;
    let busy_ns = round
        .books
        .poll_ns
        .load(std::sync::atomic::Ordering::Relaxed) as f64;
    m.push((
        "fleet.poll_busy_fraction".into(),
        busy_ns * 1e-9 / (fleet::FLEET_SHARDS as f64 * r.wall_seconds),
        "ratio",
    ));
    m.push((
        "fleet.sim_cycles_per_frame".into(),
        r.sim_cycles as f64 / r.frames_ok.max(1) as f64,
        "cycles",
    ));
    m.push(("fleet.send_stalls".into(), r.send_stalls as f64, "count"));
    m.push(("fleet.steals".into(), r.steals as f64, "count"));

    let stream: Vec<CommitLog> = inp
        .refs
        .iter()
        .flat_map(|r| r.reference.stream.iter().copied())
        .collect();
    for kind in Backend::ALL {
        let ns = tracer.span("fleet.Transport::roundtrip", 7, || {
            transport_roundtrip(kind, &stream)
        })?;
        m.push((
            format!("fleet.transport_ns_per_frame.{}", kind.name()),
            ns,
            "ns",
        ));
    }
    let us = tracer.span("fleet.HealthMonitor::evaluate", 8, || health_eval_us(inp));
    m.push(("fleet.health_eval_us".into(), us, "us"));
    Ok(())
}

/// Nanoseconds per frame through `send_many` + `try_recv_many` on `kind`,
/// checking every frame arrives intact and in order.
fn transport_roundtrip(kind: Backend, stream: &[CommitLog]) -> Result<f64, String> {
    const BATCH: usize = 64;
    let frames: Vec<Frame> = stream
        .iter()
        .enumerate()
        .map(|(i, log)| Frame {
            seq: (i as u16).wrapping_add(1),
            log: *log,
        })
        .collect();
    let mut buf = vec![
        frames.first().copied().unwrap_or(Frame {
            seq: 0,
            log: CommitLog::default()
        });
        BATCH
    ];
    let mut err = None;
    let per_pass = time_per_call(0.05, || {
        let tx = kind.build(BATCH);
        let mut received = 0usize;
        for chunk in frames.chunks(BATCH) {
            let mut sent = 0;
            while sent < chunk.len() {
                sent += tx.send_many(&chunk[sent..]);
                let batch = tx.try_recv_many(&mut buf);
                if batch.corrupt != 0
                    || frames.get(received..received + batch.received)
                        != Some(&buf[..batch.received])
                {
                    err = Some(format!("{kind}: frames corrupted or reordered"));
                }
                received += batch.received;
            }
        }
        loop {
            let batch = tx.try_recv_many(&mut buf);
            if batch.received == 0 {
                break;
            }
            received += batch.received;
        }
        if received != frames.len() {
            err = Some(format!(
                "{kind}: {received} of {} frames arrived",
                frames.len()
            ));
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(per_pass * 1e9 / frames.len().max(1) as f64),
    }
}

/// Microseconds per `HealthMonitor::evaluate` over `fleet_devices` slots
/// whose counters advance by the workload's per-program frame counts each
/// evaluation.
fn health_eval_us(inp: &Inputs<'_>) -> f64 {
    let n = inp.fleet_devices as usize;
    let per_eval: Vec<u64> = (0..n)
        .map(|s| inp.refs[s % inp.refs.len()].reference.stream.len() as u64)
        .collect();
    let mut monitor = HealthMonitor::new(n, HealthConfig::default());
    let mut counters = vec![DeviceCounters::default(); n];
    let mut evals = 0u64;
    let start = Instant::now();
    while evals < 64 || start.elapsed().as_secs_f64() < 0.05 {
        for (c, d) in counters.iter_mut().zip(&per_eval) {
            c.frames_ok += d;
        }
        std::hint::black_box(monitor.evaluate(&counters, None));
        evals += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / evals as f64
}
