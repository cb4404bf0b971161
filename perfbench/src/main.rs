//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <call-dense|compute|observed|fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! runs untraced and traced rounds alternately (for the tracing overhead),
//! then the per-layer replays, prints every per-layer metric, and writes
//! the recorded spans to `--trace-out`. Human-readable lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every program execution is checked
//! against a strict reference; a failed check counts as a failed operation.

mod check;
mod cpu;
mod fleet;
mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use layers::Metric;
use stats::{histogram_quantile, median};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::{fastest_laps, Exec, Lap, ProgramRef, Round, Workload};

/// End-to-end metrics, as declared in `BENCHMARK.json`.
pub const E2E_METRICS: [(&str, &str); 8] = [
    ("logs_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("guest_mips", "MIPS"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("slowdown_pct", "%"),
    ("log_latency_cycles_p50", "cycles"),
    ("log_latency_cycles_p99", "cycles"),
];

/// Per-layer metrics, as declared in `BENCHMARK.json`.
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("riscv-asm.assemble_ms", "ms"),
    ("soc.new_ms", "ms"),
    ("soc.slice_us_p50", "us"),
    ("soc.slice_us_p99", "us"),
    ("soc.slice_samples", "count"),
    ("soc.ns_per_log", "ns"),
    ("core.stalls_queue_full_per_log", "cycles/log"),
    ("core.stalls_dual_cf_per_log", "cycles/log"),
    ("core.queue_high_water", "count"),
    ("core.filter_ns_per_commit", "ns"),
    ("cva6-model.ns_per_insn", "ns"),
    ("cva6-model.decode_hit_ratio", "ratio"),
    ("cva6-model.block_hit_ratio", "ratio"),
    ("ibex-model.ns_per_check", "ns"),
    ("ibex-model.check_cycles_mean", "cycles"),
    ("ibex-model.decode_hit_ratio", "ratio"),
    ("obs.queue_wait_cycles_p50", "cycles"),
    ("obs.rot_service_cycles_p50", "cycles"),
    ("obs.observe_cost_ratio", "ratio"),
    ("fleet.poll_busy_fraction", "ratio"),
    ("fleet.sim_cycles_per_frame", "cycles"),
    ("fleet.send_stalls", "count"),
    ("fleet.steals", "count"),
    ("fleet.transport_ns_per_frame.inproc-ring", "ns"),
    ("fleet.transport_ns_per_frame.shm-ring", "ns"),
    ("fleet.transport_ns_per_frame.stream-socket", "ns"),
    ("fleet.health_eval_us", "us"),
    ("trace.logs_per_s_traced", "1/s"),
    ("trace.logs_per_s_untraced", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Minimum timed rounds per run, however long they take.
const MIN_ROUNDS: usize = 4;
/// Supervision turns per slot in one `fleet` round.
const FLEET_PASSES: u64 = 40;
/// Devices in the fleet replay of the single-SoC workloads.
const REPLAY_DEVICES: u32 = 32;

const USAGE: &str = "usage: perfbench --workload <call-dense|compute|observed|fleet> --seed <n> \
                     --seconds <s> --trace <0|1> [--trace-out <path>]";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                });
            }
            "--trace-out" => trace_out = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// Operations attempted and failed, with their failure messages.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// The timed part of one run: per-program laps and set-up times.
#[derive(Default)]
struct Timed {
    /// Untraced rounds.
    rounds: Vec<Round>,
    /// Traced rounds (trace mode only).
    traced: Vec<Round>,
    /// Seconds per set-up (assembly + SoC construction and boot).
    setup_s: Vec<f64>,
    assemble_s: Vec<f64>,
    new_s: Vec<f64>,
}

impl Timed {
    fn push_setup(&mut self, assemble_s: f64, new_s: f64) {
        self.setup_s.push(assemble_s + new_s);
        self.assemble_s.push(assemble_s);
        self.new_s.push(new_s);
    }

    /// Runs `round` until `seconds` have passed and at least
    /// [`MIN_ROUNDS`] rounds of each kind are in. In trace mode every
    /// second round is traced, so traced and untraced rounds see the same
    /// machine conditions.
    fn run_rounds(
        &mut self,
        opts: &Opts,
        tracer: &Arc<Tracer>,
        ledger: &mut Ledger,
        mut round: impl FnMut(&mut Timed, u64, &Arc<Tracer>) -> Round,
    ) {
        let off = Arc::new(Tracer::new(false));
        let start = Instant::now();
        for run in 0.. {
            let traced = opts.trace && run % 2 == 1;
            let r = round(self, run, if traced { tracer } else { &off });
            ledger.attempted += r.attempted;
            ledger.failed += r.failed;
            if traced {
                self.traced.push(r);
            } else {
                self.rounds.push(r);
            }
            let enough =
                self.rounds.len() >= MIN_ROUNDS && (!opts.trace || self.traced.len() >= MIN_ROUNDS);
            if enough && start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
    }
}

/// Program-set description: CF density, footprint relative to the caches.
fn describe(w: &Workload, seed: u64, programs: &[riscv_asm::Program], refs: &[ProgramRef]) {
    let generated = w.generate(seed);
    let iter_insns: u64 = generated.iter().map(|g| g.per_iteration.insns).sum();
    let iter_cfs: u64 = generated.iter().map(|g| g.per_iteration.cfs).sum();
    let outer: Vec<u64> = generated.iter().map(|g| g.outer).collect();
    println!(
        "generator: target 1 CF per {} insns; outer iterations {outer:?}, {} insns / {} CF per \
         iteration summed over programs",
        w.shape.insns_per_cf, iter_insns, iter_cfs
    );
    let instret: u64 = refs.iter().map(|r| r.reference.instret).sum();
    let logs: usize = refs.iter().map(|r| r.reference.stream.len()).sum();
    let bytes: Vec<usize> = programs.iter().map(|p| p.bytes.len()).collect();
    let pcs: Vec<usize> = refs.iter().map(|r| r.reference.distinct_pcs).collect();
    let blocks: Vec<usize> = refs.iter().map(|r| r.reference.distinct_blocks).collect();
    println!(
        "programs: {} x ~{} insns; CF density 1 per {:.1} retired ({} logs / {} insns)",
        programs.len(),
        instret / programs.len().max(1) as u64,
        instret as f64 / logs.max(1) as f64,
        logs,
        instret
    );
    println!(
        "footprint per program: image {}..{} bytes, {}..{} distinct pcs (decode cache {} slots), \
         {}..{} distinct blocks (block cache {} slots), RAM {} KiB",
        bytes.iter().min().unwrap_or(&0),
        bytes.iter().max().unwrap_or(&0),
        pcs.iter().min().unwrap_or(&0),
        pcs.iter().max().unwrap_or(&0),
        riscv_isa::DecodeCache::DEFAULT_SLOTS,
        blocks.iter().min().unwrap_or(&0),
        blocks.iter().max().unwrap_or(&0),
        riscv_isa::BlockCache::DEFAULT_SLOTS,
        w.mem_size / 1024
    );
}

/// Single-SoC workloads: a set-up and a round, until `seconds` have passed.
fn timed_soc(
    opts: &Opts,
    programs: &[riscv_asm::Program],
    refs: &[ProgramRef],
    tracer: &Arc<Tracer>,
    ledger: &mut Ledger,
) -> Timed {
    let w = &opts.workload;
    let sources = w.sources(opts.seed);
    let mut t = Timed::default();
    let mut failures = Vec::new();
    let rotation = cpu::Rotation::new();
    println!("rounds rotate over CPUs {:?}", rotation.cpus());
    t.run_rounds(opts, tracer, ledger, |t, run, tr| {
        // Two rounds per CPU, so a traced run's traced and untraced rounds
        // both visit every CPU.
        rotation.pin(run / 2);
        // One set-up per round, so `setup_s` samples the whole run rather
        // than the host's speed in its first few milliseconds.
        let s = workload::setup(w, &sources, tr, run);
        t.push_setup(s.assemble_s, s.new_s);
        workload::run_round(w, programs, refs, tr, run, &mut failures)
    });
    ledger.failures.extend(failures);
    t
}

/// The fleet workload: rounds of `run_fleet` until `seconds` have passed;
/// each round re-assembles the programs and boots the fleet (its set-up).
/// A round's operations are its completed device runs; a failed
/// fleet-level check fails all of them.
fn timed_fleet(
    opts: &Opts,
    refs: &[ProgramRef],
    tracer: &Arc<Tracer>,
    ledger: &mut Ledger,
) -> Timed {
    let sources = opts.workload.sources(opts.seed);
    let expect: Vec<fleet::Expect> = refs.iter().map(fleet::Expect::of).collect();
    let mut t = Timed::default();
    let mut failures = Vec::new();
    t.run_rounds(opts, tracer, ledger, |t, run, tr| {
        let a0 = Instant::now();
        let programs: Vec<Arc<riscv_asm::Program>> = sources
            .iter()
            .map(|s| tr.span("riscv-asm.assemble", run, || Arc::new(check::assemble(s))))
            .collect();
        let assemble_s = a0.elapsed().as_secs_f64();
        let spec = fleet::FleetSpec {
            devices: fleet::FLEET_DEVICES,
            passes: FLEET_PASSES,
            programs,
            expect: expect.clone(),
            latency: false,
            time_polls: false,
        };
        let round = fleet::run_round(&spec, tr, run);
        let r = &round.report;
        t.push_setup(assemble_s, r.boot_seconds);
        let completed = round.books.completed.load(Ordering::Relaxed);
        let outcome = round.verify().and_then(|()| match completed {
            0 => Err("no device run completed".to_string()),
            _ => Ok(()),
        });
        let attempted = completed.max(1);
        let failed = match outcome {
            Ok(()) => 0,
            Err(e) => {
                failures.push(format!("fleet round {run}: {e}"));
                attempted
            }
        };
        Round {
            laps: vec![Lap {
                host_s: r.wall_seconds,
                logs: r.frames_ok,
                cycles: r.sim_cycles,
                instret: round.books.completed_instret.load(Ordering::Relaxed),
            }],
            attempted,
            failed,
        }
    });
    ledger.failures.extend(failures);
    t
}

/// A run's `logs_per_s`, `sim_mcycles_per_s` and `guest_mips`. On the
/// single-SoC workloads every lap of a program repeats the same work, so
/// they are taken over each program's fastest lap ([`fastest_laps`]). A
/// `fleet` round's work and thread interleaving vary from round to round,
/// so its fastest round is an outlier rather than the program's cost; there
/// each is the median over rounds.
fn host_rates(exec: Exec, rounds: &[Round]) -> [f64; 3] {
    match exec {
        Exec::Soc => {
            let l = fastest_laps(rounds);
            [l.logs_per_s(), l.sim_mcycles_per_s(), l.guest_mips()]
        }
        Exec::Fleet => {
            let med = |f: fn(&Lap) -> f64| {
                median(&rounds.iter().map(|r| f(&r.total())).collect::<Vec<_>>())
            };
            [
                med(Lap::logs_per_s),
                med(Lap::sim_mcycles_per_s),
                med(Lap::guest_mips),
            ]
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the metric table and the final JSON line; returns whether the
/// run was correct.
fn emit(ledger: &Ledger, metrics: &[Metric], declared: &[(&str, &str)]) -> bool {
    if ledger.failed == 0 {
        let mut names: Vec<(&str, &str)> =
            metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
        let mut want = declared.to_vec();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "printed metrics must equal the declared set");
    }
    for (n, v, u) in metrics {
        println!("  {n:<46} {v:>16.4} {u}");
    }
    for f in ledger.failures.iter().take(10) {
        eprintln!("FAILED: {f}");
    }
    let correct = ledger.failed == 0 && ledger.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    correct
}

fn run(opts: &Opts) -> bool {
    let w = opts.workload;
    let tracer = Arc::new(Tracer::new(opts.trace));
    println!(
        "workload {} seed {} ({} s, trace {}); host parallelism {}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    let mut ledger = Ledger::default();

    // References and the detection self-test: untimed.
    let programs: Vec<riscv_asm::Program> = w
        .sources(opts.seed)
        .iter()
        .map(|s| check::assemble(s))
        .collect();
    let refs: Vec<ProgramRef> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (r, outcome) = workload::reference(&w, p);
            ledger.record(outcome.map_err(|e| format!("program {i} reference run: {e}")));
            r
        })
        .collect();
    describe(&w, opts.seed, &programs, &refs);
    let detection = workload::detection_self_test(&w, opts.seed);
    match &detection {
        Ok(n) => println!("detection self-test: return hijack flagged ({n} violations)"),
        Err(e) => println!("detection self-test FAILED: {e}"),
    }
    ledger.record(detection.map(|_| ()));

    let timed = match w.exec {
        Exec::Soc => timed_soc(opts, &programs, &refs, &tracer, &mut ledger),
        Exec::Fleet => timed_fleet(opts, &refs, &tracer, &mut ledger),
    };
    println!(
        "rounds: {} untraced{}, {} operations, {} failed",
        timed.rounds.len(),
        if opts.trace {
            format!(" + {} traced", timed.traced.len())
        } else {
            String::new()
        },
        ledger.attempted,
        ledger.failed
    );

    // Simulated metrics: deterministic per seed, identical in traced and
    // untraced runs (printed in both so that can be checked).
    let soc_cycles: u64 = refs.iter().map(|r| r.report.cycles).sum();
    let base_cycles: u64 = refs.iter().map(|r| r.baseline_cycles).sum();
    let mut spans = titancfi_obs::LatencySpans::new();
    for r in &refs {
        spans.merge(&r.spans);
    }
    let e2e = &spans.end_to_end;
    let sim: [Metric; 3] = [
        (
            "slowdown_pct".into(),
            (soc_cycles as f64 / base_cycles.max(1) as f64 - 1.0) * 100.0,
            "%",
        ),
        (
            "log_latency_cycles_p50".into(),
            histogram_quantile(e2e, 0.5),
            "cycles",
        ),
        (
            "log_latency_cycles_p99".into(),
            histogram_quantile(e2e, 0.99),
            "cycles",
        ),
    ];
    println!(
        "sim: {} over {} latency samples ({} beyond p99); slowdown_pct is unvalidated: generated \
         programs have no published reference",
        sim.iter()
            .map(|(n, v, _)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
        e2e.count,
        e2e.count / 100
    );
    let rates: Vec<f64> = timed
        .rounds
        .iter()
        .map(|r| r.total().logs_per_s())
        .collect();
    let [logs_per_s, sim_mcycles_per_s, guest_mips] = host_rates(w.exec, &timed.rounds);
    println!(
        "logs_per_s over {} untraced rounds: q1 {:.1} median {:.1} q3 {:.1}; reported {:.1}; \
         {} set-ups, median {:.2} ms",
        rates.len(),
        stats::percentile(&rates, 0.25),
        median(&rates),
        stats::percentile(&rates, 0.75),
        logs_per_s,
        timed.setup_s.len(),
        median(&timed.setup_s) * 1e3
    );

    if opts.trace {
        let metrics = layer_metrics(opts, &programs, &refs, &timed, &tracer, &mut ledger);
        return emit(&ledger, &metrics, &LAYER_METRICS);
    }
    let mut metrics: Vec<Metric> = vec![
        ("logs_per_s".into(), logs_per_s, "1/s"),
        ("sim_mcycles_per_s".into(), sim_mcycles_per_s, "Mcycles/s"),
        ("guest_mips".into(), guest_mips, "MIPS"),
        ("setup_s".into(), median(&timed.setup_s), "s"),
        ("peak_rss_mib".into(), stats::peak_rss_mib(), "MiB"),
    ];
    metrics.extend(sim);
    emit(&ledger, &metrics, &E2E_METRICS)
}

/// The traced run's per-layer metrics: set-up split, the layer replays,
/// the tracing overhead; prints the span self-time table and writes the
/// spans out.
fn layer_metrics(
    opts: &Opts,
    programs: &[riscv_asm::Program],
    refs: &[ProgramRef],
    timed: &Timed,
    tracer: &Arc<Tracer>,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let w = &opts.workload;
    let inputs = layers::Inputs {
        workload: w,
        programs,
        refs,
        fleet_devices: match w.exec {
            Exec::Fleet => fleet::FLEET_DEVICES,
            Exec::Soc => REPLAY_DEVICES,
        },
    };
    let mut metrics: Vec<Metric> = vec![
        (
            "riscv-asm.assemble_ms".into(),
            median(&timed.assemble_s) * 1e3,
            "ms",
        ),
        ("soc.new_ms".into(), median(&timed.new_s) * 1e3, "ms"),
    ];
    match layers::replay(&inputs, tracer) {
        Ok(m) => {
            ledger.record(Ok(()));
            metrics.extend(m);
        }
        Err(e) => ledger.record(Err(format!("layer replay: {e}"))),
    }
    let untraced = host_rates(w.exec, &timed.rounds)[0];
    let traced = host_rates(w.exec, &timed.traced)[0];
    metrics.push(("trace.logs_per_s_traced".into(), traced, "1/s"));
    metrics.push(("trace.logs_per_s_untraced".into(), untraced, "1/s"));
    metrics.push((
        "trace.overhead_pct".into(),
        (untraced / traced - 1.0) * 100.0,
        "%",
    ));
    println!("span self time (ms), by layer call:");
    for (name, s) in tracer.summarize() {
        println!(
            "  {name:<40} n={:<8} total {:>10.2}  self {:>10.2}",
            s.count,
            s.total_ns as f64 * 1e-6,
            s.self_ns as f64 * 1e-6
        );
    }
    if let Some(path) = &opts.trace_out {
        match tracer.write(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => ledger.record(Err(format!("writing spans to {}: {e}", path.display()))),
        }
    }
    metrics
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !run(&opts) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titancfi_harness::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let mut v: Vec<(String, String)> = json
            .get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn printed_metric_names_equal_the_declared_ones() {
        assert_eq!(ours(&E2E_METRICS), declared("end_to_end"));
        assert_eq!(ours(&LAYER_METRICS), declared("per_layer"));
    }

    #[test]
    fn declared_workloads_exist() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(ok("--workload fleet --seed 3 --seconds 10 --trace 0").is_ok());
        assert!(ok("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload fleet --seed x --seconds 10 --trace 0").is_err());
        assert!(ok("--workload fleet --seed 3 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload fleet --seed 3 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload fleet --seed 3 --seconds 10").is_err());
    }
}
