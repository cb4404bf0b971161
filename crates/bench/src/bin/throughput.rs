//! Simulator-throughput benchmark: simulated-cycles/sec and retired
//! instructions/sec across representative kernels, on the reference and
//! the fast engine.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin throughput -- \
//!     --smoke --out BENCH_throughput.json --baseline BENCH_throughput.json
//! ```
//!
//! Every scenario runs twice — reference engine, then fast engine (bare-core
//! scenarios: raw decode, then predecode) — and the two runs must produce
//! byte-identical result fingerprints (halt reason, cycle counts, filter
//! statistics, violations, and latency spans where a collector rides
//! along). A mismatch is a correctness bug and exits nonzero. The JSON report records per-scenario speedup, which
//! is machine-portable; `--baseline` compares against a previous report and
//! fails if any scenario's speedup regressed by more than 20 %.

use std::process::ExitCode;
use std::time::Instant;
use titancfi_harness::Json;
use titancfi_soc::{DualHostSoc, Engine, SocConfig, SystemOnChip};
use titancfi_workloads::kernels::{all_kernels, Kernel, KERNEL_MEM};

const USAGE: &str = "\
usage: throughput [options]

      --smoke         reduced cycle budgets (CI smoke run)
      --out PATH      write the JSON report to PATH (default: BENCH_throughput.json)
      --baseline P    compare speedups against a previous report; fail on
                      a >20% regression (skipped when P does not exist)
  -h, --help          this text
";

struct Options {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_throughput.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("missing value for --out")?,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("missing value for --baseline")?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// One measured run: deterministic result fingerprint + work counters.
///
/// `wall_secs` covers only the simulation loop itself — assembly, core
/// construction, and firmware boot happen before the clock starts, so the
/// reported speedup is the interpreter's, not the setup path's.
struct RunOutcome {
    fingerprint: String,
    sim_cycles: u64,
    instret: u64,
    wall_secs: f64,
}

fn kernel(name: &str) -> &'static Kernel {
    Kernel::by_name(name).unwrap_or_else(|| panic!("kernel {name}?"))
}

/// A bare CVA6 core (no CFI transport): measures the interpreter itself,
/// with predecode standing in for the fast engine.
fn run_bare_core(name: &str, engine: Engine, budget: u64) -> RunOutcome {
    let prog = kernel(name).program().expect("assembles");
    let mut core =
        cva6_model::Cva6Core::new(&prog, KERNEL_MEM, cva6_model::TimingConfig::default());
    core.set_predecode(engine == Engine::Fast);
    let t = Instant::now();
    let halt = core.run_silent(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    let stats = core.stats();
    RunOutcome {
        fingerprint: format!("{halt:?}|{stats:?}|a0={:#x}", core.reg(riscv_isa::Reg::A0)),
        sim_cycles: core.cycle(),
        instret: stats.instret,
        wall_secs,
    }
}

/// Every assembly kernel on the bare core, back to back — the native-suite
/// aggregate the acceptance criteria track.
fn run_native_suite(engine: Engine, budget: u64) -> RunOutcome {
    let mut fingerprint = String::new();
    let mut sim_cycles = 0;
    let mut instret = 0;
    let mut wall_secs = 0.0;
    for k in all_kernels() {
        let out = run_bare_core(k.name, engine, budget);
        fingerprint.push_str(k.name);
        fingerprint.push(':');
        fingerprint.push_str(&out.fingerprint);
        fingerprint.push('\n');
        sim_cycles += out.sim_cycles;
        instret += out.instret;
        wall_secs += out.wall_secs;
    }
    RunOutcome {
        fingerprint,
        sim_cycles,
        instret,
        wall_secs,
    }
}

/// The full SoC (host + CFI transport + RoT firmware), optionally with the
/// latency collector attached; its serialized spans join the fingerprint.
fn run_soc(name: &str, engine: Engine, latency: bool, budget: u64) -> RunOutcome {
    let prog = kernel(name).program().expect("assembles");
    let config = SocConfig {
        mem_size: KERNEL_MEM,
        engine,
        ..SocConfig::default()
    };
    let mut soc = SystemOnChip::new(&prog, config);
    if latency {
        soc.attach_latency();
    }
    let t = Instant::now();
    let r = soc.run(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    let spans = soc
        .latency_spans()
        .map_or_else(String::new, |s| s.to_json().encode());
    RunOutcome {
        fingerprint: format!(
            "{:?}|{}|{:?}|{:?}|logs={}|viol={}|hw={}|qf={}|dcf={}|spans={spans}",
            r.halt,
            r.cycles,
            r.core,
            r.filter,
            r.logs_checked,
            r.violations.len(),
            r.queue_high_water,
            r.stalls_queue_full,
            r.stalls_dual_cf
        ),
        sim_cycles: r.cycles,
        instret: r.core.instret,
        wall_secs,
    }
}

/// Two hosts sharing one RoT: measures the multi-core scheduler.
fn run_multicore(engine: Engine, budget: u64) -> RunOutcome {
    let a = kernel("fib").program().expect("assembles");
    let b = kernel("towers").program().expect("assembles");
    let mut soc = DualHostSoc::new([&a, &b], KERNEL_MEM, 8);
    soc.set_engine(engine);
    let t = Instant::now();
    let r = soc.run(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    RunOutcome {
        fingerprint: format!("{r:?}"),
        sim_cycles: r.cores[0].cycles + r.cores[1].cycles,
        instret: r.cores.iter().map(|c| c.instret).sum(),
        wall_secs,
    }
}

struct Row {
    scenario: &'static str,
    sim_cycles: u64,
    instret: u64,
    wall_ms_fast: f64,
    wall_ms_slow: f64,
    speedup: f64,
    fingerprint_match: bool,
}

fn measure(scenario: &'static str, min_wall: f64, run: impl Fn(Engine) -> RunOutcome) -> Row {
    // Short kernels finish in microseconds, far below timer noise on a
    // shared host — repeat each setting until `min_wall` seconds of actual
    // simulation accumulate and report the *fastest* lap. The minimum is
    // the uncontended cost: a preemption spike inflates the laps it hits,
    // which a mean dutifully averages in, while the min shrugs it off.
    // Every repetition must reproduce the first run's fingerprint exactly.
    let timed = |setting: Engine| {
        let first = run(setting);
        let mut wall = first.wall_secs;
        let mut best = first.wall_secs;
        let mut laps = 1u32;
        while wall < min_wall && laps < 1000 {
            let r = run(setting);
            assert_eq!(
                r.fingerprint, first.fingerprint,
                "`{scenario}` is nondeterministic across repetitions"
            );
            wall += r.wall_secs;
            best = best.min(r.wall_secs);
            laps += 1;
        }
        (first, best)
    };
    let (slow, wall_slow) = timed(Engine::Reference);
    let (fast, wall_fast) = timed(Engine::Fast);
    let matches = slow.fingerprint == fast.fingerprint
        && slow.sim_cycles == fast.sim_cycles
        && slow.instret == fast.instret;
    if !matches {
        eprintln!("throughput: FINGERPRINT MISMATCH in `{scenario}`");
        eprintln!(
            "  reference: {}",
            slow.fingerprint.replace('\n', "\n             ")
        );
        eprintln!(
            "  fast:      {}",
            fast.fingerprint.replace('\n', "\n             ")
        );
    }
    let row = Row {
        scenario,
        sim_cycles: fast.sim_cycles,
        instret: fast.instret,
        wall_ms_fast: wall_fast * 1e3,
        wall_ms_slow: wall_slow * 1e3,
        speedup: if wall_fast > 0.0 {
            wall_slow / wall_fast
        } else {
            0.0
        },
        fingerprint_match: matches,
    };
    println!(
        "{:<18} {:>12} sim-cycles  {:>10.1} ms ref  {:>10.1} ms fast  {:>6.2}x  {:>12.0} cyc/s  {}",
        row.scenario,
        row.sim_cycles,
        row.wall_ms_slow,
        row.wall_ms_fast,
        row.speedup,
        row.sim_cycles as f64 / (wall_fast.max(1e-9)),
        if matches { "ok" } else { "MISMATCH" }
    );
    row
}

/// Report schema (v2):
///   - `sim_cycles`, `instret`: work done by the fast run (multicore sums
///     both cores; `instret` is never zero on a scenario that retired
///     instructions).
///   - `wall_ms_slow` / `wall_ms_fast`: fastest lap per engine (min over
///     repetitions — robust to preemption spikes on a shared host);
///     `speedup` = slow/fast: the only machine-portable number (same
///     binary, same host, back to back).
///   - `regressed`: the fast engine was a net slowdown beyond measurement
///     noise — `speedup < 0.8`, the same 20 % tolerance the `--baseline`
///     gate applies, so a 0.97x wall-clock wobble on a tiny kernel does
///     not read as a regression.
///   - `fingerprint_match`: the reference and fast runs produced
///     byte-identical result fingerprints (latency spans included).
fn report_json(mode: &str, rows: &[Row]) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(2.0)),
        ("mode", Json::Str(mode.to_string())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scenario", Json::Str(r.scenario.to_string())),
                            ("sim_cycles", Json::Num(r.sim_cycles as f64)),
                            ("instret", Json::Num(r.instret as f64)),
                            ("wall_ms_slow", Json::Num(r.wall_ms_slow)),
                            ("wall_ms_fast", Json::Num(r.wall_ms_fast)),
                            (
                                "cycles_per_sec",
                                Json::Num(r.sim_cycles as f64 / (r.wall_ms_fast / 1e3).max(1e-9)),
                            ),
                            (
                                "instret_per_sec",
                                Json::Num(r.instret as f64 / (r.wall_ms_fast / 1e3).max(1e-9)),
                            ),
                            ("speedup", Json::Num(r.speedup)),
                            ("regressed", Json::Bool(r.speedup < REGRESSED_TOLERANCE)),
                            ("fingerprint_match", Json::Bool(r.fingerprint_match)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Wall-clock tolerance shared by the per-row `regressed` flag and the
/// `--baseline` gate: anything within 20 % is measurement noise, anything
/// beyond it is a real slowdown.
const REGRESSED_TOLERANCE: f64 = 0.8;

/// Compares per-scenario speedups against a previous report. Speedup (wall
/// reference / wall fast, same machine, same binary) is the only machine-portable
/// number in the report — absolute cycles/sec are not comparable across
/// hosts. Returns the failures: scenarios that regressed by more than
/// 20 %, or a baseline that gated nothing. Scenarios absent from the
/// baseline are warned about (renames and new scenarios must not silently
/// shrink the gate), and a baseline matching *zero* rows is itself a
/// failure — that is a stale or corrupt file, not a clean pass.
fn regressions(baseline: &Json, rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(base_rows) = baseline.get("rows").and_then(Json::as_arr) else {
        out.push("baseline has no `rows` array — regenerate it".to_string());
        return out;
    };
    let mut matched = 0usize;
    let mut missing = 0usize;
    for row in rows {
        let base = base_rows
            .iter()
            .find(|b| b.get("scenario").and_then(Json::as_str) == Some(row.scenario));
        let Some(base_speedup) = base.and_then(|b| b.get("speedup")).and_then(Json::as_num) else {
            missing += 1;
            eprintln!(
                "throughput: WARNING `{}` missing from baseline — not gated",
                row.scenario
            );
            continue;
        };
        matched += 1;
        if row.speedup < REGRESSED_TOLERANCE * base_speedup {
            out.push(format!(
                "{}: speedup {:.2}x < 80% of baseline {:.2}x",
                row.scenario, row.speedup, base_speedup
            ));
        }
    }
    if missing > 0 {
        eprintln!(
            "throughput: {missing} of {} scenario(s) missing from baseline",
            rows.len()
        );
    }
    if matched == 0 {
        out.push(
            "baseline matched zero scenarios — the gate checked nothing; regenerate the baseline"
                .to_string(),
        );
    }
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("throughput: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read the baseline up front: CI passes the same path for --baseline
    // and --out, so it must be consumed before the report overwrites it.
    let baseline = opts.baseline.as_deref().and_then(|path| {
        let text = std::fs::read_to_string(path).ok()?;
        match Json::parse(&text) {
            Ok(json) => Some(json),
            Err(e) => {
                eprintln!("throughput: ignoring unparseable baseline {path}: {e}");
                None
            }
        }
    });

    let budget: u64 = if opts.smoke { 3_000_000 } else { 20_000_000 };
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!("simulator throughput ({mode}, budget {budget} cycles/kernel)");
    let min_wall = if opts.smoke { 0.25 } else { 1.5 };
    let rows = vec![
        measure("fib-recursion", min_wall, |engine| {
            run_bare_core("fib", engine, budget)
        }),
        measure("call-dense", min_wall, |engine| {
            run_soc("dhry-calls", engine, false, budget)
        }),
        measure("call-dense+latency", min_wall, |engine| {
            run_soc("dhry-calls", engine, true, budget)
        }),
        measure("branch-chain", min_wall, |engine| {
            run_soc("crc32", engine, false, budget)
        }),
        measure("multicore", min_wall, |engine| {
            run_multicore(engine, budget)
        }),
        measure("native-suite", min_wall, |engine| {
            run_native_suite(engine, budget)
        }),
    ];

    // A speedup below the noise tolerance means the fast engine *slowed that
    // scenario down*. It is not a failure (tiny kernels can lose more to
    // cache setup than batching saves), but it must never pass silently:
    // the row carries an explicit `regressed` flag and the run prints a
    // warning. Sub-1.0 wobbles within the tolerance are timer noise, not
    // regressions.
    for row in rows.iter().filter(|r| r.speedup < REGRESSED_TOLERANCE) {
        println!(
            "throughput: WARNING `{}` fast engine is a net slowdown ({:.2}x < {REGRESSED_TOLERANCE:.2}x)",
            row.scenario, row.speedup
        );
    }

    let json = report_json(mode, &rows);
    if let Err(e) = std::fs::write(&opts.out, json.encode() + "\n") {
        eprintln!("throughput: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    if !rows.iter().all(|r| r.fingerprint_match) {
        eprintln!("throughput: fast engine diverged from the reference engine");
        return ExitCode::FAILURE;
    }
    match baseline {
        Some(base) => {
            let regressed = regressions(&base, &rows);
            if !regressed.is_empty() {
                for r in &regressed {
                    eprintln!("throughput: REGRESSION {r}");
                }
                return ExitCode::FAILURE;
            }
            println!("speedups within 20% of baseline");
        }
        None => println!("no baseline report — regression gate skipped"),
    }
    ExitCode::SUCCESS
}
