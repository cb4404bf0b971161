//! The fleet workload's rounds: `run_fleet` over benchmark-owned device
//! wrappers.
//!
//! [`BenchDevice`] wraps a `SocDevice` without changing it: it optionally
//! times each `poll` (the fleet's busy fraction), records a span per poll
//! in the traced run, and keeps the books the correctness check needs —
//! every completed run's frame count against its program's reference
//! stream, and every instance's final `frames_sent` for the
//! frames-in == frames-out check.

use crate::trace::Tracer;
use crate::workload::ProgramRef;
use riscv_asm::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use titancfi_fleet::{
    run_fleet, Device, DeviceStatus, FleetConfig, FleetReport, PollOutcome, SocDevice,
    SocDeviceConfig, Transport,
};

/// Devices in the `fleet` workload.
pub const FLEET_DEVICES: u32 = 256;
/// Worker shards (one per core of the two-core reference machine).
pub const FLEET_SHARDS: usize = 2;

/// Counters the wrappers share with the code running the round.
#[derive(Debug, Default)]
pub struct Books {
    /// Device runs that completed.
    pub completed: AtomicU64,
    /// Guest instructions retired by completed runs.
    pub completed_instret: AtomicU64,
    /// Completed runs whose frame count differs from the reference.
    pub bad_runs: AtomicU64,
    /// Violations reported by polls.
    pub violations: AtomicU64,
    /// Final `frames_sent` of every dropped device instance.
    pub frames_sent: AtomicU64,
    /// Host nanoseconds inside `SocDevice::poll` (timed wrappers only).
    pub poll_ns: AtomicU64,
}

/// What one program contributes to a completed device run.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Frames a completed run streams (reference stream length).
    pub frames: u64,
    /// Guest instructions a completed run retires.
    pub instret: u64,
}

impl Expect {
    /// The expectation a program's reference sets.
    #[must_use]
    pub fn of(r: &ProgramRef) -> Expect {
        Expect {
            frames: r.reference.stream.len() as u64,
            instret: r.reference.instret,
        }
    }
}

struct BenchDevice {
    inner: SocDevice,
    expect: Expect,
    books: Arc<Books>,
    tracer: Option<(Arc<Tracer>, Option<u64>, u64)>,
    time_polls: bool,
    done: bool,
}

impl Device for BenchDevice {
    fn poll(&mut self) -> PollOutcome {
        let start = self.time_polls.then(Instant::now);
        let out = match &self.tracer {
            Some((t, parent, run)) => {
                t.span_under("fleet.SocDevice::poll", *run, *parent, || self.inner.poll())
            }
            None => self.inner.poll(),
        };
        if let Some(start) = start {
            self.books
                .poll_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.books
            .violations
            .fetch_add(out.violations, Ordering::Relaxed);
        if out.status == DeviceStatus::Completed && !self.done {
            self.done = true;
            self.books.completed.fetch_add(1, Ordering::Relaxed);
            self.books
                .completed_instret
                .fetch_add(self.expect.instret, Ordering::Relaxed);
            if self.inner.frames_sent() != self.expect.frames {
                self.books.bad_runs.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn flush(&mut self) -> usize {
        self.inner.flush()
    }

    fn last_seq(&self) -> u16 {
        self.inner.last_seq()
    }

    fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }

    fn latency_e2e(&self) -> Option<titancfi_obs::Histogram> {
        self.inner.latency_e2e()
    }
}

impl Drop for BenchDevice {
    fn drop(&mut self) {
        self.books
            .frames_sent
            .fetch_add(self.inner.frames_sent(), Ordering::Relaxed);
    }
}

/// How to run one fleet round.
#[derive(Clone)]
pub struct FleetSpec {
    /// Device slots.
    pub devices: u32,
    /// Supervision turns per slot.
    pub passes: u64,
    /// Programs, dealt to slots round-robin.
    pub programs: Vec<Arc<Program>>,
    /// Per-program expectations, parallel to `programs`.
    pub expect: Vec<Expect>,
    /// Devices collect latency spans.
    pub latency: bool,
    /// Time every poll (busy fraction).
    pub time_polls: bool,
}

/// One fleet round's results.
pub struct FleetRound {
    /// The service's report.
    pub report: FleetReport,
    /// The wrappers' books.
    pub books: Arc<Books>,
}

impl FleetRound {
    /// Fleet-level check: lossless, no sequence breaks, no failures or
    /// violations, every completed run streamed its reference length, and
    /// frames ingested equal the devices' summed frames sent.
    ///
    /// # Errors
    ///
    /// The first property that does not hold.
    pub fn verify(&self) -> Result<(), String> {
        let r = &self.report;
        let b = &self.books;
        let sent = b.frames_sent.load(Ordering::Relaxed);
        if !r.is_lossless() {
            return Err(format!(
                "not lossless: lost {} corrupt {} undrained {}",
                r.frames_lost, r.frames_corrupt, r.undrained_devices
            ));
        }
        if r.seq_gaps != 0 || r.seq_duplicates != 0 {
            return Err(format!(
                "seq gaps {} duplicates {}",
                r.seq_gaps, r.seq_duplicates
            ));
        }
        if !r.ledger.is_empty()
            || r.supervision.escalated_hung + r.supervision.escalated_trapped != 0
        {
            return Err(format!("device failures: {:?}", r.supervision));
        }
        if b.violations.load(Ordering::Relaxed) != 0 {
            return Err("violations on benign devices".to_string());
        }
        if b.bad_runs.load(Ordering::Relaxed) != 0 {
            return Err(format!(
                "{} completed runs streamed a wrong frame count",
                b.bad_runs.load(Ordering::Relaxed)
            ));
        }
        if r.frames_ok != sent {
            return Err(format!(
                "frames_ok {} != devices' frames sent {sent}",
                r.frames_ok
            ));
        }
        Ok(())
    }
}

/// Runs one fleet round: `spec.devices` wrapped `SocDevice`s on
/// [`FLEET_SHARDS`] shards with round-robin backends.
pub fn run_round(spec: &FleetSpec, tracer: &Arc<Tracer>, run: u64) -> FleetRound {
    let books = Arc::new(Books::default());
    let report = tracer.span("fleet.run_fleet", run, || {
        let parent = tracer.current();
        let traced = tracer.enabled().then(|| (Arc::clone(tracer), parent, run));
        let config = FleetConfig {
            devices: spec.devices,
            shards: FLEET_SHARDS,
            passes: spec.passes,
            ..FleetConfig::default()
        };
        let programs = spec.programs.clone();
        let expect = spec.expect.clone();
        let latency = spec.latency;
        let time_polls = spec.time_polls;
        let books = Arc::clone(&books);
        run_fleet(&config, move |slot, seq, tx: Arc<dyn Transport>| {
            let i = slot as usize % programs.len();
            let mut cfg = SocDeviceConfig::new(Arc::clone(&programs[i]));
            cfg.latency = latency;
            Box::new(BenchDevice {
                inner: SocDevice::new(cfg, tx, seq),
                expect: expect[i],
                books: Arc::clone(&books),
                tracer: traced.clone(),
                time_polls,
                done: false,
            }) as Box<dyn Device>
        })
    });
    FleetRound { report, books }
}
