//! Workload definitions and the single-SoC end-to-end run.
//!
//! A workload is a program shape, a number of programs drawn from the seed,
//! and the simulator configuration they run on. Why each one exists:
//!
//! * `call-dense` — about one call, return or indirect jump per four
//!   retired instructions on a single-hart SoC (Polling firmware, queue
//!   depth 8, predecode and block engine on, no observer). The host stalls
//!   on a full queue nearly all the time, so the Ibex RoT ISS and the
//!   mailbox do most of the host work: RoT-side optimisations show here.
//! * `compute` — the same generator at one CFI-relevant instruction per
//!   1500: counted ALU/mul/load/store loops with rare calls and one short
//!   recursion burst per iteration, same SoC. CVA6 dispatch and the
//!   decode/block caches do the work and the RoT mostly idles, so a
//!   RoT-only change must read "no change" here.
//! * `observed` — the `call-dense` programs with a latency collector
//!   attached (what the fleet's latency-SLO alert needs). Any observer
//!   forces strict stepping today, so an observer-aware engine gains here
//!   and leaves `call-dense` flat. The only workload whose timed runs
//!   collect latency spans.
//! * `fleet` — `run_fleet` with 256 devices on 2 shards and round-robin
//!   transport backends, devices running short `call-dense` programs with
//!   latency off: fleet transport, sharded ingest, health monitoring and
//!   cross-thread scheduling.

use crate::check::{self, Observed, Reference};
use crate::gen::{self, Density, Shape};
use crate::trace::Tracer;
use cva6_model::Halt;
use riscv_asm::Program;
use riscv_isa::Reg;
use std::time::Instant;
use titancfi::firmware::FirmwareKind;
use titancfi_obs::LatencySpans;
use titancfi_soc::{run_baseline, SocConfig, SocReport, SystemOnChip};

/// How a workload's timed rounds execute its programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// One `SystemOnChip` per program execution, run to completion.
    Soc,
    /// `run_fleet` over many devices.
    Fleet,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// How its timed rounds execute.
    pub exec: Exec,
    /// Shape of every program.
    pub shape: Shape,
    /// Programs drawn from the seed.
    pub programs: u32,
    /// Attach a latency collector to every timed run.
    pub observe: bool,
    /// Host RAM per SoC.
    pub mem_size: usize,
}

/// SoC cycle ceiling per program execution (far above any generated run).
pub const MAX_CYCLES: u64 = 1 << 40;

const CALL_DENSE: Shape = Shape {
    density: Density::CallDense,
    insns_per_cf: 4,
    target_insns: 24_000,
    hijack: false,
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "call-dense",
        exec: Exec::Soc,
        shape: CALL_DENSE,
        programs: 8,
        observe: false,
        mem_size: 1 << 20,
    },
    Workload {
        name: "compute",
        exec: Exec::Soc,
        shape: Shape {
            density: Density::Compute,
            insns_per_cf: 1500,
            target_insns: 1_500_000,
            hijack: false,
        },
        programs: 8,
        observe: false,
        mem_size: 1 << 20,
    },
    Workload {
        name: "observed",
        exec: Exec::Soc,
        shape: CALL_DENSE,
        programs: 8,
        observe: true,
        mem_size: 1 << 20,
    },
    Workload {
        name: "fleet",
        exec: Exec::Fleet,
        shape: Shape {
            target_insns: 1_200,
            ..CALL_DENSE
        },
        // Short programs, so devices complete runs within a round; more of
        // them, so per-seed figures average over more program shapes.
        programs: 32,
        observe: false,
        // The fleet device's RAM (`SocDeviceConfig::new` default).
        mem_size: 1 << 16,
    },
];

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The SoC configuration every program of this workload runs on:
    /// Polling firmware, queue depth 8, the default (fast) engine.
    #[must_use]
    pub fn soc_config(&self) -> SocConfig {
        SocConfig {
            queue_depth: 8,
            firmware: FirmwareKind::Polling,
            mem_size: self.mem_size,
            ..SocConfig::default()
        }
    }

    /// The programs `seed` yields.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<gen::Generated> {
        (0..self.programs)
            .map(|i| gen::generate(seed, i, self.shape))
            .collect()
    }

    /// The program sources for `seed`.
    #[must_use]
    pub fn sources(&self, seed: u64) -> Vec<String> {
        self.generate(seed).into_iter().map(|g| g.source).collect()
    }

    /// The return-hijacked program `seed` yields for the detection
    /// self-test.
    #[must_use]
    pub fn hijack_source(&self, seed: u64) -> String {
        let shape = Shape {
            hijack: true,
            target_insns: self.shape.target_insns.min(4_000),
            ..self.shape
        };
        gen::generate(seed, u32::MAX, shape).source
    }

    /// Builds and boots one SoC for `program`, with the log tap on and the
    /// workload's observer attached.
    #[must_use]
    pub fn boot(&self, program: &Program, observe: bool) -> SystemOnChip {
        let mut soc = SystemOnChip::new(program, self.soc_config());
        soc.enable_log_tap();
        if observe {
            soc.attach_latency();
        }
        soc
    }
}

/// One set-up: assembling every program, then constructing and booting a
/// SoC for each.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Seconds spent assembling.
    pub assemble_s: f64,
    /// Seconds spent in `SystemOnChip::new`.
    pub new_s: f64,
}

/// Assembles `sources` and boots a SoC for each, timing both steps. Each
/// SoC is dropped (untimed) before the next is built, as in the timed
/// rounds, so set-up does not set the process's peak memory.
pub fn setup(w: &Workload, sources: &[String], tracer: &Tracer, run: u64) -> SetupTime {
    let t0 = Instant::now();
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| tracer.span("riscv-asm.assemble", run, || check::assemble(s)))
        .collect();
    let assemble_s = t0.elapsed().as_secs_f64();
    let mut new_s = 0.0;
    for p in &programs {
        let t = Instant::now();
        let soc = tracer.span("soc.SystemOnChip::new", run, || {
            SystemOnChip::new(p, w.soc_config())
        });
        new_s += t.elapsed().as_secs_f64();
        drop(std::hint::black_box(soc));
    }
    SetupTime { assemble_s, new_s }
}

/// Everything known about one program before the timed region: the strict
/// reference, the baseline, and one observed SoC run.
#[derive(Debug, Clone)]
pub struct ProgramRef {
    /// Strict bare-core reference.
    pub reference: Reference,
    /// `soc::run_baseline` cycles (no CFI machinery).
    pub baseline_cycles: u64,
    /// The observed SoC run's report (cycle-exact for every engine).
    pub report: SocReport,
    /// The observed run's latency spans.
    pub spans: LatencySpans,
}

/// Runs the strict reference, the baseline and one observed SoC execution
/// of `program`, and checks the SoC run against the reference (stream,
/// halt, `a0`, no violations, span conservation). Untimed.
pub fn reference(w: &Workload, program: &Program) -> (ProgramRef, Result<(), String>) {
    let reference = check::reference_program(program, w.mem_size);
    let (base_halt, baseline_cycles) = run_baseline(program, &w.soc_config());
    let mut soc = w.boot(program, true);
    let report = soc.run(MAX_CYCLES);
    let tap = soc.take_log_tap().unwrap_or_default();
    let spans = soc.latency_spans().cloned().unwrap_or_default();
    let outcome = check::verify(
        Observed {
            tap: &tap,
            halt: report.halt,
            a0: soc.host_reg(Reg::A0),
            violations: report.violations.len(),
        },
        &reference,
    )
    .and_then(|()| match base_halt {
        Halt::Breakpoint => Ok(()),
        h => Err(format!("baseline halted {h:?}")),
    })
    .and_then(|()| {
        if spans.conservation_ok() {
            Ok(())
        } else {
            Err("latency span conservation broken".to_string())
        }
    });
    (
        ProgramRef {
            reference,
            baseline_cycles,
            report,
            spans,
        },
        outcome,
    )
}

/// The detection self-test: the seed's return-hijacked program must draw
/// at least one violation from the RoT. Untimed.
///
/// # Errors
///
/// When the RoT misses the hijack or the run does not halt normally.
pub fn detection_self_test(w: &Workload, seed: u64) -> Result<usize, String> {
    let program = check::assemble(&w.hijack_source(seed));
    let mut soc = w.boot(&program, false);
    let report = soc.run(MAX_CYCLES);
    if report.halt != Halt::Breakpoint {
        return Err(format!("hijacked program halted {:?}", report.halt));
    }
    match report.violations.len() {
        0 => Err("RoT missed the return hijack".to_string()),
        n => Ok(n),
    }
}

/// One timed execution: a program's `SystemOnChip::run` (fleet: a whole
/// `run_fleet` round).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Host seconds of the execution.
    pub host_s: f64,
    /// Commit logs checked by the RoT.
    pub logs: u64,
    /// SoC cycles, stalls included.
    pub cycles: u64,
    /// Guest instructions retired.
    pub instret: u64,
}

impl Lap {
    /// Adds `other`'s time and counts to this lap's.
    pub fn add(&mut self, other: &Lap) {
        self.host_s += other.host_s;
        self.logs += other.logs;
        self.cycles += other.cycles;
        self.instret += other.instret;
    }
    /// Logs checked per host second.
    #[must_use]
    pub fn logs_per_s(&self) -> f64 {
        self.logs as f64 / self.host_s
    }
    /// Simulated cycles per host second, ×1e-6.
    #[must_use]
    pub fn sim_mcycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.host_s * 1e-6
    }
    /// Guest instructions per host second, ×1e-6.
    #[must_use]
    pub fn guest_mips(&self) -> f64 {
        self.instret as f64 / self.host_s * 1e-6
    }
}

/// One round of the timed loop: every program executed once.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// One lap per program, in program order.
    pub laps: Vec<Lap>,
    /// Executions attempted.
    pub attempted: u64,
    /// Executions that failed a check.
    pub failed: u64,
}

impl Round {
    /// The round's laps summed.
    #[must_use]
    pub fn total(&self) -> Lap {
        let mut t = Lap::default();
        for l in &self.laps {
            t.add(l);
        }
        t
    }
}

/// Each program's fastest lap over `rounds` (the one with the most
/// simulated cycles per host second), summed over programs.
///
/// Contention on a shared host only ever slows a lap down, so the fastest
/// of a program's many short laps is the steadiest estimate of what the
/// program costs; a round's median moves with how busy the host was.
#[must_use]
pub fn fastest_laps(rounds: &[Round]) -> Lap {
    let programs = rounds.iter().map(|r| r.laps.len()).max().unwrap_or(0);
    let mut total = Lap::default();
    for i in 0..programs {
        let best = rounds
            .iter()
            .filter_map(|r| r.laps.get(i))
            .max_by(|a, b| a.sim_mcycles_per_s().total_cmp(&b.sim_mcycles_per_s()));
        if let Some(lap) = best {
            total.add(lap);
        }
    }
    total
}

/// Executes every program once on a fresh SoC, timing only
/// `SystemOnChip::run`, and checks each execution against its reference
/// (stream, halt, `a0`, zero violations, cycle count, span conservation).
/// Failure messages go to `failures`.
pub fn run_round(
    w: &Workload,
    programs: &[Program],
    refs: &[ProgramRef],
    tracer: &Tracer,
    run: u64,
    failures: &mut Vec<String>,
) -> Round {
    let mut round = Round::default();
    tracer.span("bench.round", run, || {
        for (i, (p, r)) in programs.iter().zip(refs).enumerate() {
            let mut soc = tracer.span("soc.SystemOnChip::new", run, || w.boot(p, w.observe));
            let t = Instant::now();
            let report = tracer.span("soc.run", run, || soc.run(MAX_CYCLES));
            round.laps.push(Lap {
                host_s: t.elapsed().as_secs_f64(),
                logs: report.logs_checked,
                cycles: report.cycles,
                instret: report.core.instret,
            });
            round.attempted += 1;
            let tap = soc.take_log_tap().unwrap_or_default();
            let verdict = tracer.span("bench.verify", run, || {
                check::verify(
                    Observed {
                        tap: &tap,
                        halt: report.halt,
                        a0: soc.host_reg(Reg::A0),
                        violations: report.violations.len(),
                    },
                    &r.reference,
                )
                .and_then(|()| {
                    if report.cycles != r.report.cycles
                        || report.logs_checked != r.report.logs_checked
                    {
                        Err(format!(
                            "{} cycles / {} logs, reference {} / {}",
                            report.cycles,
                            report.logs_checked,
                            r.report.cycles,
                            r.report.logs_checked
                        ))
                    } else {
                        Ok(())
                    }
                })
                .and_then(|()| match soc.latency_spans() {
                    Some(s) if !s.conservation_ok() => {
                        Err("latency span conservation broken".to_string())
                    }
                    _ => Ok(()),
                })
            });
            if let Err(e) = verdict {
                round.failed += 1;
                failures.push(format!("round {run} program {i}: {e}"));
            }
        }
    });
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(host_s: f64, cycles: u64) -> Lap {
        Lap {
            host_s,
            logs: cycles / 10,
            cycles,
            instret: cycles / 2,
        }
    }

    #[test]
    fn fastest_laps_take_each_programs_best_lap() {
        let round = |a: f64, b: f64| Round {
            laps: vec![lap(a, 1000), lap(b, 4000)],
            ..Round::default()
        };
        let rounds = [round(2.0, 1.0), round(1.0, 3.0), round(4.0, 2.0)];
        let best = fastest_laps(&rounds);
        assert_eq!(best.host_s, 2.0);
        assert_eq!((best.logs, best.cycles, best.instret), (500, 5000, 2500));
        assert_eq!(best.logs_per_s(), 250.0);
        assert_eq!(fastest_laps(&[]).cycles, 0);
    }
}
