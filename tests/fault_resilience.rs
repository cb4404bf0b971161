//! Fault-injection & resilience: the co-sim must degrade gracefully, not
//! panic or hang.
//!
//! Three properties are pinned here:
//!   1. **Inertness** — with no faults injected, the watchdog/retry/seq
//!      machinery costs exactly zero cycles (regression-pin against the
//!      plain paper FSM via `ResilienceConfig::off()`).
//!   2. **Liveness** — a firmware that never completes (hang, trap, dropped
//!      doorbell, erroring bus) produces a structured timeout/escalation
//!      outcome within the configured bound; no run ever exhausts
//!      `max_cycles`.
//!   3. **Accountability** — every injected fault ends up detected,
//!      recovered, or escalated in the [`FaultReport`] ledger; none are
//!      silently lost.
//!
//! Fault-injected runs ride the fast engine; every class is also pinned
//! report-for-report (ledger included) against the reference engine.

mod common;

use common::{
    kernel_config, kernel_program, report_fingerprint as fingerprint, run_kernel, run_kernels,
};
use cva6_model::Halt;
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_soc::{Engine, SocConfig, SystemOnChip};

const MAX_CYCLES: u64 = common::RUN_BUDGET;

/// Per-class injection rates (one fault in `n` opportunities) dense enough
/// that every class fires on the `fib` kernel.
const CLASS_RATES: [(FaultClass, u32); 8] = [
    (FaultClass::AxiBeatError, 5),
    (FaultClass::AxiExtraLatency, 3),
    (FaultClass::DoorbellDrop, 3),
    (FaultClass::DoorbellDelay, 3),
    (FaultClass::BitFlip, 5),
    (FaultClass::FirmwareGlitch, 2),
    (FaultClass::FirmwareHang, 1),
    (FaultClass::FirmwareTrap, 1),
];

fn tight_resilience(policy: FailPolicy) -> ResilienceConfig {
    ResilienceConfig {
        watchdog_timeout: 2_000,
        max_attempts: 3,
        backoff: 128,
        policy,
    }
}

#[test]
fn fault_free_run_cycle_identical_with_resilience_armed() {
    let base = kernel_config();
    for name in ["fib", "dispatch"] {
        // The paper FSM verbatim: no watchdog at all.
        let plain = run_kernel(
            name,
            SocConfig {
                resilience: ResilienceConfig::off(),
                ..base
            },
        );
        // Default config: watchdog armed (100k cycles), no injector.
        let armed = run_kernel(name, base);
        // Injector attached but every rate zero.
        let inert_injector = run_kernel(
            name,
            SocConfig {
                faults: Some(FaultConfig::none(0xA5A5)),
                ..base
            },
        );
        assert_eq!(plain.halt, Halt::Breakpoint, "{name} completes");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&armed),
            "{name}: armed watchdog must be cycle-inert"
        );
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&inert_injector),
            "{name}: zero-rate injector must be cycle-inert"
        );
        assert_eq!(armed.watchdog_timeouts, 0);
        assert_eq!(armed.writer_retries, 0);
        assert_eq!(armed.forced_violations, 0);
        assert_eq!(armed.logs_dropped, 0);
        assert!(armed.firmware_trap.is_none());
        assert!(
            inert_injector.faults.is_none(),
            "a zero-rate config must not even spawn an injector"
        );
    }
}

#[test]
fn hung_firmware_times_out_within_bound_fail_closed() {
    // Every check-entry hangs the RoT: the very first log can never
    // complete. The watchdog must fire within its bound, retries must
    // exhaust, and fail-closed must turn the undeliverable log into a
    // violation — with the run terminating far inside `max_cycles`.
    let report = run_kernel(
        "fib",
        SocConfig {
            resilience: tight_resilience(FailPolicy::FailClosed),
            faults: Some(FaultConfig::only(FaultClass::FirmwareHang, 1, 1)),
            ..kernel_config()
        },
    );
    assert_eq!(report.halt, Halt::Breakpoint, "run terminates, no hang");
    assert!(report.watchdog_timeouts > 0, "watchdog must fire");
    assert!(report.writer_retries > 0, "retries must be attempted");
    assert!(
        report.forced_violations > 0,
        "fail-closed synthesizes violations"
    );
    assert_eq!(report.logs_checked, 0, "a hung RoT checks nothing");
    assert_eq!(
        report.violations.len() as u64,
        report.forced_violations,
        "every violation is a forced one"
    );
    let ledger = report.faults.expect("ledger present");
    let hangs = ledger.class(FaultClass::FirmwareHang);
    assert_eq!(hangs.injected, 1, "one hang wedges the RoT for good");
    assert_eq!(hangs.detected, 1, "the watchdog detected it");
    assert!(ledger.all_resolved(), "{ledger:?}");
}

#[test]
fn watchdog_timeout_is_within_configured_bound() {
    // Pin the latency of the timeout outcome itself: with a 2k-cycle
    // watchdog and 3 attempts, the first forced violation must land within
    // a small multiple of the configured budget.
    let prog = kernel_program("fib");
    let resilience = tight_resilience(FailPolicy::FailClosed);
    let mut soc = SystemOnChip::new(
        &prog,
        SocConfig {
            resilience,
            halt_on_violation: true,
            faults: Some(FaultConfig::only(FaultClass::FirmwareHang, 1, 7)),
            ..kernel_config()
        },
    );
    let report = soc.run(MAX_CYCLES);
    // 3 attempts x (timeout + 4 beats) + backoff 128+256, plus the cycles
    // the program ran before its first control-flow log: bound generously.
    let per_log_bound = 3 * (resilience.watchdog_timeout + 16) + 128 + 256;
    let first = report.violations.first().expect("escalation violation");
    assert!(
        first.cycle <= per_log_bound + 10_000,
        "first timeout outcome at cycle {} exceeds bound {}",
        first.cycle,
        per_log_bound + 10_000
    );
    // The first log burns exactly `max_attempts` watchdogs before escalating;
    // the post-halt drain of the remaining queue may add more.
    assert!(report.watchdog_timeouts >= 3);
}

#[test]
fn firmware_trap_fails_closed_with_structured_halt() {
    let report = run_kernel(
        "fib",
        SocConfig {
            resilience: tight_resilience(FailPolicy::FailClosed),
            faults: Some(FaultConfig::only(FaultClass::FirmwareTrap, 1, 2)),
            ..kernel_config()
        },
    );
    let Halt::FirmwareTrap(trap) = report.halt else {
        panic!("expected FirmwareTrap halt, got {:?}", report.halt);
    };
    assert_eq!(trap, riscv_isa::Trap::IllegalInstruction(0xdead_c0de));
    assert_eq!(report.firmware_trap, Some(trap));
    let ledger = report.faults.expect("ledger present");
    let traps = ledger.class(FaultClass::FirmwareTrap);
    assert_eq!(traps.injected, 1);
    assert_eq!(traps.detected, 1);
    assert_eq!(traps.escalated, 1);
    assert!(ledger.all_resolved());
}

#[test]
fn firmware_trap_fails_closed_on_every_live_hart() {
    // One RoT checks both harts: once it traps, neither hart's control
    // flow can be checked any more, so both stop.
    let report = run_kernels(
        &["fib", "towers"],
        SocConfig {
            resilience: tight_resilience(FailPolicy::FailClosed),
            faults: Some(FaultConfig::only(FaultClass::FirmwareTrap, 1, 2)),
            ..kernel_config()
        },
    );
    let trap = report.firmware_trap.expect("the trap is reported");
    assert_eq!(trap, riscv_isa::Trap::IllegalInstruction(0xdead_c0de));
    assert_eq!(report.harts.len(), 2);
    for (i, hart) in report.harts.iter().enumerate() {
        assert_eq!(hart.halt, Halt::FirmwareTrap(trap), "hart {i}");
    }
    assert_eq!(report.halt, Halt::FirmwareTrap(trap));
    assert!(report.faults.expect("ledger present").all_resolved());
}

#[test]
fn firmware_trap_fail_open_keeps_host_running() {
    let report = run_kernel(
        "fib",
        SocConfig {
            resilience: tight_resilience(FailPolicy::FailOpen),
            faults: Some(FaultConfig::only(FaultClass::FirmwareTrap, 1, 2)),
            ..kernel_config()
        },
    );
    assert_eq!(
        report.halt,
        Halt::Breakpoint,
        "fail-open rides out the dead checker"
    );
    assert!(report.firmware_trap.is_some(), "the trap is still reported");
    assert!(
        report.logs_dropped > 0,
        "unchecked logs are counted, not lost"
    );
    assert!(
        report.violations.is_empty(),
        "fail-open never forces violations"
    );
    assert!(report.faults.expect("ledger").all_resolved());
}

#[test]
fn every_fault_class_detected_or_recovered() {
    // The acceptance matrix in miniature: for each class, a seeded run must
    // terminate within budget with every injected fault accounted for.
    for (class, one_in) in CLASS_RATES {
        for seed in [11u64, 12] {
            let report = run_kernel(
                "fib",
                SocConfig {
                    resilience: tight_resilience(FailPolicy::FailClosed),
                    faults: Some(FaultConfig::only(class, one_in, seed)),
                    ..kernel_config()
                },
            );
            assert_ne!(
                report.halt,
                Halt::Budget,
                "{class} seed {seed}: run must terminate"
            );
            let ledger = report.faults.expect("ledger present");
            let stats = ledger.class(class);
            assert!(
                stats.injected > 0,
                "{class} seed {seed}: schedule must inject at least one fault"
            );
            assert!(
                ledger.all_resolved(),
                "{class} seed {seed}: unresolved faults in {ledger:?}"
            );
        }
    }
}

#[test]
fn fail_open_drop_accounting_is_exact() {
    // Satellite accounting law: under fail-open, "dropped" is not a vague
    // health metric — it is exactly the number of logs whose delivery
    // escalated, and the ledger's escalation count is exactly
    // `max_attempts` pending faults per dropped log (every attempt of an
    // escalated log burned one injected doorbell drop).
    //
    // Rate 1: every doorbell ring is eaten, so no log can ever be checked —
    // every emitted log must escalate, none may be silently lost.
    for seed in [3u64, 17] {
        let resilience = tight_resilience(FailPolicy::FailOpen);
        let report = run_kernel(
            "fib",
            SocConfig {
                resilience,
                faults: Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, seed)),
                ..kernel_config()
            },
        );
        assert_eq!(
            report.halt,
            Halt::Breakpoint,
            "seed {seed}: fail-open completes"
        );
        assert!(report.logs_dropped > 0, "seed {seed}: drops must occur");
        assert_eq!(
            report.logs_dropped, report.filter.emitted,
            "seed {seed}: with every doorbell eaten, every emitted log escalates"
        );
        assert_eq!(
            report.logs_checked, 0,
            "seed {seed}: nothing can be checked"
        );
        assert_eq!(
            report.forced_violations, 0,
            "fail-open never forces violations"
        );
        assert!(report.violations.is_empty());
        let ledger = report.faults.expect("ledger present");
        let drops = ledger.class(FaultClass::DoorbellDrop);
        assert_eq!(
            drops.escalated,
            report.logs_dropped * u64::from(resilience.max_attempts),
            "seed {seed}: every dropped log must account exactly max_attempts faults"
        );
        assert!(ledger.all_resolved(), "seed {seed}: {ledger:?}");
    }

    // Rate 2: a mixed schedule — some logs recover on retry, some escalate.
    // The partition must still be exact: checked + dropped covers every
    // emitted log, and the escalation count still factors as
    // `max_attempts` per dropped log (recovered drops are ledgered as
    // recovered, not escalated).
    let resilience = tight_resilience(FailPolicy::FailOpen);
    let report = run_kernel(
        "fib",
        SocConfig {
            resilience,
            faults: Some(FaultConfig::only(FaultClass::DoorbellDrop, 2, 23)),
            ..kernel_config()
        },
    );
    assert_eq!(report.halt, Halt::Breakpoint);
    assert_eq!(
        report.logs_checked + report.logs_dropped,
        report.filter.emitted,
        "every emitted log is either checked or accounted as dropped"
    );
    let ledger = report.faults.expect("ledger present");
    let drops = ledger.class(FaultClass::DoorbellDrop);
    assert_eq!(
        drops.escalated,
        report.logs_dropped * u64::from(resilience.max_attempts),
        "escalations factor exactly as max_attempts per dropped log"
    );
    assert_eq!(
        drops.recovered,
        drops.injected - drops.escalated,
        "the remaining injected drops must all be ledgered as recovered"
    );
    assert!(ledger.all_resolved(), "{ledger:?}");
}

#[test]
fn fault_runs_are_deterministic_per_seed() {
    let config = SocConfig {
        resilience: tight_resilience(FailPolicy::FailClosed),
        faults: Some(FaultConfig {
            axi_beat_error: 9,
            bit_flip: 9,
            doorbell_drop: 7,
            doorbell_delay: 7,
            firmware_glitch: 11,
            ..FaultConfig::none(0xDECAF)
        }),
        ..kernel_config()
    };
    let a = run_kernel("fib", config);
    let b = run_kernel("fib", config);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.watchdog_timeouts, b.watchdog_timeouts);
    assert_eq!(a.writer_retries, b.writer_retries);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn faulted_reports_identical_across_engines() {
    // Firmware faults sparser than in `CLASS_RATES`, so the first one lands
    // mid-run — after the fast engine has batched through busy transport
    // phases — instead of on the very first check.
    let rates = CLASS_RATES.map(|(class, one_in)| match class {
        FaultClass::FirmwareHang | FaultClass::FirmwareTrap => (class, 5),
        _ => (class, one_in),
    });
    // A short watchdog keeps the reference engine's per-cycle ticking
    // through a dead RoT's escalations affordable.
    let resilience = |policy| ResilienceConfig {
        watchdog_timeout: 200,
        max_attempts: 2,
        backoff: 16,
        policy,
    };
    // One hart, and two harts sharing the transport.
    let inputs: [&[&str]; 2] = [&["fib"], &["fib", "towers"]];
    for names in inputs {
        for (class, one_in) in rates {
            for seed in [11u64, 12] {
                for policy in [FailPolicy::FailClosed, FailPolicy::FailOpen] {
                    let [reference, fast] = Engine::ALL.map(|engine| {
                        let report = run_kernels(
                            names,
                            SocConfig {
                                resilience: resilience(policy),
                                faults: Some(FaultConfig::only(class, one_in, seed)),
                                engine,
                                ..kernel_config()
                            },
                        );
                        format!("{report:?}")
                    });
                    assert_eq!(
                        reference, fast,
                        "{names:?} {class} seed {seed} {policy:?}: the engines disagree"
                    );
                }
            }
        }
    }
}
