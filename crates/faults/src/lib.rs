//! Deterministic seeded fault injection for the TitanCFI CFI transport.
//!
//! The co-simulation's premise is that the RoT is the *trusted* anchor for
//! CFI — which means the transport carrying commit logs to it must degrade
//! gracefully when the physical layer misbehaves. This crate provides the
//! fault model: a [`FaultInjector`] that components on the CFI path query at
//! well-defined injection sites (AXI beats, doorbell rings, firmware check
//! entry), driven by the in-repo xoshiro256** PRNG from a fixed seed so
//! every campaign run is bit-reproducible and cacheable.
//!
//! The injector doubles as a *ledger*: every fault it hands out is tracked
//! through the resilience machinery's feedback calls
//! ([`FaultInjector::note_detected`], [`FaultInjector::note_completed`],
//! [`FaultInjector::note_escalated`]) so a campaign can prove that every
//! injected fault was either recovered (a retry succeeded) or escalated
//! (fail-closed/fail-open policy fired) — never silently lost.

#![forbid(unsafe_code)]

use std::fmt;
use titancfi_harness::Xoshiro256;

/// The classes of fault the injector can produce, one per injection site
/// behaviour. Rates are configured per class in [`FaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// An AXI write beat on the Log Writer path errors (SLVERR); the beat
    /// must be replayed.
    AxiBeatError,
    /// An AXI write beat completes late (interconnect congestion).
    AxiExtraLatency,
    /// The doorbell ring is dropped on the floor (write never lands).
    DoorbellDrop,
    /// The doorbell ring is stuck in a buffer and delivered late.
    DoorbellDelay,
    /// A single bit flips in a mailbox data word after the host wrote it.
    BitFlip,
    /// The RoT firmware glitches at check entry and restarts from the poll
    /// loop (transient upset; the check re-runs from scratch).
    FirmwareGlitch,
    /// The RoT firmware wedges at check entry and never completes.
    FirmwareHang,
    /// The RoT firmware traps at check entry (illegal instruction).
    FirmwareTrap,
}

impl FaultClass {
    /// Every class, in matrix-row order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::AxiBeatError,
        FaultClass::AxiExtraLatency,
        FaultClass::DoorbellDrop,
        FaultClass::DoorbellDelay,
        FaultClass::BitFlip,
        FaultClass::FirmwareGlitch,
        FaultClass::FirmwareHang,
        FaultClass::FirmwareTrap,
    ];

    /// Stable kebab-case name (used in campaign descriptors and the matrix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::AxiBeatError => "axi-beat-error",
            FaultClass::AxiExtraLatency => "axi-extra-latency",
            FaultClass::DoorbellDrop => "doorbell-drop",
            FaultClass::DoorbellDelay => "doorbell-delay",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::FirmwareGlitch => "firmware-glitch",
            FaultClass::FirmwareHang => "firmware-hang",
            FaultClass::FirmwareTrap => "firmware-trap",
        }
    }

    /// Inverse of [`FaultClass::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Position of this class in [`FaultClass::ALL`] (stable array index
    /// for per-class aggregation).
    #[must_use]
    pub fn index(self) -> usize {
        FaultClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("class is in ALL")
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class injection rates. Each rate is a "one in N opportunities"
/// probability: 0 disables the class, 1 fires at every opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// PRNG seed; identical seeds replay identical fault schedules.
    pub seed: u64,
    /// One-in-N chance an AXI write beat errors and must be replayed.
    pub axi_beat_error: u32,
    /// One-in-N chance an AXI write beat is delayed.
    pub axi_extra_latency: u32,
    /// Maximum extra cycles added to a delayed beat (uniform in `1..=max`).
    pub max_extra_latency: u64,
    /// One-in-N chance a doorbell ring is dropped.
    pub doorbell_drop: u32,
    /// One-in-N chance a doorbell ring is delivered late.
    pub doorbell_delay: u32,
    /// Maximum doorbell delivery delay in cycles (uniform in `1..=max`).
    pub max_doorbell_delay: u64,
    /// One-in-N chance a single bit flips in a beat's mailbox words.
    pub bit_flip: u32,
    /// One-in-N chance the firmware glitches at check entry.
    pub firmware_glitch: u32,
    /// One-in-N chance the firmware hangs at check entry.
    pub firmware_hang: u32,
    /// One-in-N chance the firmware traps at check entry.
    pub firmware_trap: u32,
}

impl FaultConfig {
    /// All classes disabled; attaching this injector is provably inert.
    #[must_use]
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            axi_beat_error: 0,
            axi_extra_latency: 0,
            max_extra_latency: 32,
            doorbell_drop: 0,
            doorbell_delay: 0,
            max_doorbell_delay: 256,
            bit_flip: 0,
            firmware_glitch: 0,
            firmware_hang: 0,
            firmware_trap: 0,
        }
    }

    /// Exactly one class enabled at rate one-in-`one_in`.
    #[must_use]
    pub fn only(class: FaultClass, one_in: u32, seed: u64) -> FaultConfig {
        let mut c = FaultConfig::none(seed);
        match class {
            FaultClass::AxiBeatError => c.axi_beat_error = one_in,
            FaultClass::AxiExtraLatency => c.axi_extra_latency = one_in,
            FaultClass::DoorbellDrop => c.doorbell_drop = one_in,
            FaultClass::DoorbellDelay => c.doorbell_delay = one_in,
            FaultClass::BitFlip => c.bit_flip = one_in,
            FaultClass::FirmwareGlitch => c.firmware_glitch = one_in,
            FaultClass::FirmwareHang => c.firmware_hang = one_in,
            FaultClass::FirmwareTrap => c.firmware_trap = one_in,
        }
        c
    }

    /// Whether any class can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.axi_beat_error != 0
            || self.axi_extra_latency != 0
            || self.doorbell_drop != 0
            || self.doorbell_delay != 0
            || self.bit_flip != 0
            || self.firmware_glitch != 0
            || self.firmware_hang != 0
            || self.firmware_trap != 0
    }
}

/// Outcome of an AXI-beat injection-site query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BeatFault {
    /// The beat proceeds normally.
    #[default]
    None,
    /// The beat errors; the Log Writer must replay it.
    Error,
    /// The beat lands this many cycles late.
    ExtraLatency(u64),
    /// A single bit flips in one of the beat's two 32-bit mailbox words.
    BitFlip {
        /// Which of the beat's words is corrupted (0 = low, 1 = high).
        word: usize,
        /// Bit position within the word.
        bit: u32,
    },
}

/// Outcome of a doorbell-ring injection-site query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingFault {
    /// The ring lands normally.
    #[default]
    None,
    /// The ring is lost; only the watchdog can notice.
    Drop,
    /// The ring is delivered this many cycles late.
    Delay(u64),
}

/// Outcome of a firmware check-entry injection-site query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckFault {
    /// The check runs normally.
    #[default]
    None,
    /// Transient upset: the firmware restarts the check from the poll loop.
    Glitch,
    /// The firmware wedges and never signals completion.
    Hang,
    /// The firmware traps.
    Trap,
}

/// Per-class ledger counters. Every injected fault ends in exactly one of
/// `recovered`, `escalated`, or `unresolved`; `detected` counts how many
/// were flagged by the resilience layer before resolution (a recovered
/// delayed beat, for example, may never be *detected* — it just costs
/// latency — while a dropped doorbell is detected by the watchdog first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Faults handed out at this site.
    pub injected: u64,
    /// Faults flagged by the resilience layer (watchdog, integrity check,
    /// AXI error response, trap report).
    pub detected: u64,
    /// Faults absorbed: the transaction they hit eventually completed.
    pub recovered: u64,
    /// Faults that exhausted retries and fired the fail-closed/fail-open
    /// policy (or halted the run on a firmware trap).
    pub escalated: u64,
    /// Faults still pending when the report was taken — a nonzero value
    /// means the resilience layer lost track of an injected fault.
    pub unresolved: u64,
}

impl ClassStats {
    fn add(&mut self, other: &ClassStats) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.escalated += other.escalated;
        self.unresolved += other.unresolved;
    }
}

/// Snapshot of the injector's ledger, one row per fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// `(class, stats)` in [`FaultClass::ALL`] order.
    pub classes: Vec<(FaultClass, ClassStats)>,
}

impl FaultReport {
    /// Column-wise sum over all classes.
    #[must_use]
    pub fn total(&self) -> ClassStats {
        let mut t = ClassStats::default();
        for (_, s) in &self.classes {
            t.add(s);
        }
        t
    }

    /// Stats for one class.
    #[must_use]
    pub fn class(&self, class: FaultClass) -> ClassStats {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Whether every injected fault was recovered or escalated.
    #[must_use]
    pub fn all_resolved(&self) -> bool {
        self.total().unresolved == 0
    }
}

/// Ledger state for one class: faults in flight split by whether the
/// resilience layer has flagged them yet.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    stats: ClassStats,
    pending_undetected: u64,
    pending_detected: u64,
}

impl Ledger {
    fn inject(&mut self) {
        self.stats.injected += 1;
        self.pending_undetected += 1;
    }

    fn detect(&mut self) {
        self.stats.detected += self.pending_undetected;
        self.pending_detected += self.pending_undetected;
        self.pending_undetected = 0;
    }

    fn complete(&mut self) {
        self.stats.recovered += self.pending_undetected + self.pending_detected;
        self.pending_undetected = 0;
        self.pending_detected = 0;
    }

    fn escalate(&mut self) {
        // Escalation is itself a detection for anything still silent.
        self.stats.detected += self.pending_undetected;
        self.stats.escalated += self.pending_undetected + self.pending_detected;
        self.pending_undetected = 0;
        self.pending_detected = 0;
    }

    fn snapshot(&self) -> ClassStats {
        let mut s = self.stats;
        s.unresolved = self.pending_undetected + self.pending_detected;
        s
    }
}

/// The seeded fault source and ledger. It has one owner — the Log Writer,
/// which draws the transport faults itself and lends the injector to the
/// SoC's firmware scheduler for check-entry draws — so it is deliberately
/// not `Clone`: a clone would fork the PRNG stream and the ledger.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Xoshiro256,
    ledgers: [Ledger; FaultClass::ALL.len()],
}

impl FaultInjector {
    /// A fresh injector; the schedule is fully determined by `config`.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector {
            config,
            rng: Xoshiro256::new(config.seed),
            ledgers: [Ledger::default(); FaultClass::ALL.len()],
        }
    }

    /// The configuration this injector was built with.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// One-in-`rate` draw; 0 disables, 1 always fires. The PRNG is consumed
    /// only for enabled classes so a disabled injector is stream-inert.
    fn fires(&mut self, rate: u32) -> bool {
        rate != 0 && self.rng.below(u64::from(rate)) == 0
    }

    fn inject(&mut self, class: FaultClass) {
        self.ledgers[class.index()].inject();
    }

    /// Injection site: the Log Writer is about to issue AXI write beat
    /// `beat` of a log. At most one fault fires per beat (error wins over
    /// flip wins over latency, so rates compose predictably).
    pub fn beat_fault(&mut self, beat: usize) -> BeatFault {
        let _ = beat;
        let cfg = self.config;
        if self.fires(cfg.axi_beat_error) {
            self.inject(FaultClass::AxiBeatError);
            return BeatFault::Error;
        }
        if self.fires(cfg.bit_flip) {
            self.inject(FaultClass::BitFlip);
            let word = self.rng.below(2) as usize;
            let bit = self.rng.below(32) as u32;
            return BeatFault::BitFlip { word, bit };
        }
        if self.fires(cfg.axi_extra_latency) {
            self.inject(FaultClass::AxiExtraLatency);
            let extra = 1 + self.rng.below(cfg.max_extra_latency.max(1));
            return BeatFault::ExtraLatency(extra);
        }
        BeatFault::None
    }

    /// Injection site: the Log Writer is about to ring the doorbell.
    pub fn ring_fault(&mut self) -> RingFault {
        let cfg = self.config;
        if self.fires(cfg.doorbell_drop) {
            self.inject(FaultClass::DoorbellDrop);
            return RingFault::Drop;
        }
        if self.fires(cfg.doorbell_delay) {
            self.inject(FaultClass::DoorbellDelay);
            let delay = 1 + self.rng.below(cfg.max_doorbell_delay.max(1));
            return RingFault::Delay(delay);
        }
        RingFault::None
    }

    /// Injection site: the RoT firmware is entering a check (doorbell seen).
    pub fn check_fault(&mut self) -> CheckFault {
        let cfg = self.config;
        if self.fires(cfg.firmware_trap) {
            self.inject(FaultClass::FirmwareTrap);
            return CheckFault::Trap;
        }
        if self.fires(cfg.firmware_hang) {
            self.inject(FaultClass::FirmwareHang);
            return CheckFault::Hang;
        }
        if self.fires(cfg.firmware_glitch) {
            self.inject(FaultClass::FirmwareGlitch);
            return CheckFault::Glitch;
        }
        CheckFault::None
    }

    /// Feedback: the resilience layer flagged faults of `class` (AXI error
    /// response observed, integrity check rejected a ring, trap reported).
    pub fn note_detected(&mut self, class: FaultClass) {
        self.ledgers[class.index()].detect();
    }

    /// Feedback: the watchdog fired — every fault still silently pending on
    /// the in-flight transaction is now detected.
    pub fn note_watchdog(&mut self) {
        self.ledgers.iter_mut().for_each(Ledger::detect);
    }

    /// Feedback: the in-flight log completed end-to-end — every pending
    /// fault was absorbed by the transport and counts as recovered.
    pub fn note_completed(&mut self) {
        self.ledgers.iter_mut().for_each(Ledger::complete);
    }

    /// Feedback: retries were exhausted (or the RoT trapped) and the
    /// escalation policy fired — every pending fault is accounted to it.
    pub fn note_escalated(&mut self) {
        self.ledgers.iter_mut().for_each(Ledger::escalate);
    }

    /// Snapshot the ledger.
    #[must_use]
    pub fn report(&self) -> FaultReport {
        FaultReport {
            classes: FaultClass::ALL
                .iter()
                .map(|c| (*c, self.ledgers[c.index()].snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::none(42));
        for beat in 0..1000 {
            assert_eq!(inj.beat_fault(beat % 4), BeatFault::None);
            assert_eq!(inj.ring_fault(), RingFault::None);
            assert_eq!(inj.check_fault(), CheckFault::None);
        }
        let report = inj.report();
        assert_eq!(report.total(), ClassStats::default());
        assert!(report.all_resolved());
    }

    #[test]
    fn same_seed_same_schedule() {
        let draw = |seed: u64| {
            let cfg = FaultConfig {
                axi_beat_error: 7,
                bit_flip: 5,
                axi_extra_latency: 3,
                doorbell_drop: 11,
                firmware_glitch: 13,
                ..FaultConfig::none(seed)
            };
            let mut inj = FaultInjector::new(cfg);
            let mut schedule = Vec::new();
            for i in 0..500 {
                schedule.push((inj.beat_fault(i % 4), inj.ring_fault(), inj.check_fault()));
            }
            schedule
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn rate_one_always_fires() {
        let mut inj = FaultInjector::new(FaultConfig::only(FaultClass::DoorbellDrop, 1, 9));
        for _ in 0..10 {
            assert_eq!(inj.ring_fault(), RingFault::Drop);
        }
        assert_eq!(inj.report().class(FaultClass::DoorbellDrop).injected, 10);
    }

    #[test]
    fn ledger_tracks_detection_and_recovery() {
        let mut inj = FaultInjector::new(FaultConfig::only(FaultClass::DoorbellDrop, 1, 9));
        assert_eq!(inj.ring_fault(), RingFault::Drop);
        let mid = inj.report().class(FaultClass::DoorbellDrop);
        assert_eq!(mid.injected, 1);
        assert_eq!(mid.unresolved, 1);
        inj.note_watchdog();
        inj.note_completed();
        let done = inj.report().class(FaultClass::DoorbellDrop);
        assert_eq!(done.detected, 1);
        assert_eq!(done.recovered, 1);
        assert_eq!(done.unresolved, 0);
        assert!(inj.report().all_resolved());
    }

    #[test]
    fn escalation_counts_as_detection() {
        let mut inj = FaultInjector::new(FaultConfig::only(FaultClass::BitFlip, 1, 3));
        let fault = inj.beat_fault(0);
        assert!(matches!(fault, BeatFault::BitFlip { .. }));
        inj.note_escalated();
        let s = inj.report().class(FaultClass::BitFlip);
        assert_eq!(s.detected, 1);
        assert_eq!(s.escalated, 1);
        assert_eq!(s.recovered, 0);
        assert!(inj.report().all_resolved());
    }

    #[test]
    fn class_names_round_trip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::by_name(c.name()), Some(c));
        }
        assert_eq!(FaultClass::by_name("nonsense"), None);
    }
}
