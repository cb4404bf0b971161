//! Lifecycle-span attribution: conservation, inertness, and stepping-mode
//! identity.
//!
//! Three pins on the latency subsystem:
//!
//! 1. **Conservation** — every accepted log reaches exactly one terminal
//!    (verdict or abandonment), and each record's stage spans sum to its
//!    end-to-end span. Checked on a benign call-dense kernel and on faulted
//!    transports under both fail policies.
//! 2. **Inertness** — attaching the latency probe must not perturb the
//!    simulation: the report fingerprint is identical with and without it.
//! 3. **Engine identity** — the recorded metrics are a function of
//!    architectural time only, so the serialized spans are byte-identical
//!    across the reference and the fast engine, which the collector rides.

mod common;

use common::{kernel_config, run_kernel, RUN_BUDGET};
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_obs::LatencySpans;
use titancfi_soc::{Engine, SocConfig, SystemOnChip};

/// Runs a named kernel with the latency probe attached and returns the
/// spans next to the report fingerprint.
fn run_with_spans(name: &str, config: SocConfig) -> (LatencySpans, String) {
    let prog = common::kernel_program(name);
    let mut soc = SystemOnChip::new(&prog, config);
    soc.attach_latency();
    let report = soc.run(RUN_BUDGET);
    let fp = format!("{:?}", common::report_fingerprint(&report));
    let spans = soc
        .take_latency()
        .expect("latency collector attached")
        .spans;
    (spans, fp)
}

#[test]
fn benign_run_conserves_every_log() {
    let (spans, _) = run_with_spans("dhry-calls", kernel_config());
    assert!(spans.checked_ok > 0, "call-dense kernel produces logs");
    assert_eq!(spans.violations, 0);
    assert_eq!(spans.dropped, 0);
    assert_eq!(spans.forced, 0);
    assert_eq!(spans.in_flight(), 0, "no log may be stranded at halt");
    assert!(
        spans.conservation_ok(),
        "accepts must equal terminals with zero span mismatches"
    );
    // Stage histograms carry exactly the terminated logs.
    assert_eq!(spans.end_to_end.count, spans.checked_ok);
    for (stage, h) in spans.stages() {
        assert!(h.count > 0, "stage `{stage}` must be populated");
    }
}

#[test]
fn faulted_transports_conserve_under_both_fail_policies() {
    // Fail-closed: every dropped doorbell becomes a forced violation after
    // the watchdog, so the abandonment terminal carries the loss.
    let mut closed = kernel_config();
    closed.faults = Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B));
    closed.resilience = ResilienceConfig {
        watchdog_timeout: 200,
        max_attempts: 2,
        backoff: 16,
        policy: FailPolicy::FailClosed,
    };
    let (spans, _) = run_with_spans("dhry-calls", closed);
    assert!(spans.forced > 0, "fail-closed wedge forces violations");
    assert!(
        spans.detection.count > 0,
        "forced violations must land in the detection histogram"
    );
    assert!(spans.conservation_ok(), "fail-closed run conserves");

    // Fail-open: the same wedge sheds the logs instead.
    let mut open = kernel_config();
    open.faults = Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B));
    open.resilience = ResilienceConfig {
        watchdog_timeout: 200,
        max_attempts: 2,
        backoff: 16,
        policy: FailPolicy::FailOpen,
    };
    let (spans, _) = run_with_spans("dhry-calls", open);
    assert!(spans.dropped > 0, "fail-open wedge sheds logs");
    assert_eq!(spans.forced, 0, "fail-open never forces a violation");
    assert!(spans.conservation_ok(), "fail-open run conserves");
}

#[test]
fn latency_probe_is_inert_on_the_simulation() {
    // Plain run, no probe.
    let baseline = run_kernel("dhry-calls", kernel_config());
    let plain = format!("{:?}", common::report_fingerprint(&baseline));
    // Same program, probe attached.
    let (_, probed) = run_with_spans("dhry-calls", kernel_config());
    assert_eq!(
        plain, probed,
        "attaching the latency probe must not move a single report field"
    );
}

#[test]
fn spans_are_byte_identical_across_stepping_modes() {
    let mut reference = kernel_config();
    reference.engine = Engine::Reference;
    let (ref_spans, ref_fp) = run_with_spans("dhry-calls", reference);

    let mut fast = kernel_config();
    fast.engine = Engine::Fast;
    let (fast_spans, fast_fp) = run_with_spans("dhry-calls", fast);

    assert!(ref_spans.checked_ok > 0, "call-dense kernel produces logs");
    assert_eq!(ref_fp, fast_fp, "reports agree across engines");
    assert_eq!(
        ref_spans.to_json().encode(),
        fast_spans.to_json().encode(),
        "serialized spans must be byte-identical across engines"
    );
}
