//! Full-SoC co-simulation: CVA6, the TitanCFI pipeline, and the RoT in
//! lock-step.
//!
//! This is the "RTL simulation" of the reproduction: the protected program
//! runs on the CVA6 model; every retired instruction passes the CFI filters;
//! relevant commit logs go through the CFI queue, the Log Writer FSM, the
//! mailbox, and are checked by the *actual RV32 firmware* executing on the
//! Ibex model. Queue back-pressure stalls the CVA6 commit stage exactly as
//! in the paper (§IV-B2), and violations raised by the RoT surface as
//! exceptions.
//!
//! The same SoC serves one or more host harts (the paper's §VII multi-core
//! future work): each hart has its own core and filters, all of them feed
//! the one queue, Log Writer, mailbox and RoT, and the queue entry's hart
//! rides the doorbell ring as the AXI source id, which the banked firmware
//! reads to keep one shadow stack per hart.

use crate::hostbus::HostBus;
use cva6_model::{Cva6Core, Halt, TimingConfig};
use opentitan_model::rot::LatencyProfile;
use opentitan_model::{OpenTitan, ScmiWire, ScmiWireService};
use riscv_asm::Program;
use std::collections::BTreeMap;
use titancfi::firmware::{build_firmware_for_harts, FirmwareKind};
use titancfi::{
    AxiTiming, Category, CfiFilter, CfiQueue, FailPolicy, LogWriter, Phase, QueueController,
    ResilienceConfig, Violation, WriterState,
};
use titancfi_faults::{CheckFault, FaultClass, FaultConfig, FaultInjector, FaultReport};
use titancfi_obs::{Histogram, LatencyCollector, LatencySpans, NoProbe, Probe, Recorder, Track};

/// SoC configuration.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// CFI queue depth (paper: 1 for Table II, 8 for Table III).
    pub queue_depth: usize,
    /// Firmware/interconnect variant running in the RoT.
    pub firmware: FirmwareKind,
    /// Host RAM size.
    pub mem_size: usize,
    /// CVA6 timing parameters.
    pub timing: TimingConfig,
    /// Log Writer AXI timing.
    pub axi: AxiTiming,
    /// Whether a violation halts the simulation (exception) or is only
    /// recorded.
    pub halt_on_violation: bool,
    /// Deliver a machine-mode exception to the host hart on each violation
    /// (the Log Writer's exception line, paper §IV-B3). The victim's trap
    /// handler then runs — cause [`CFI_VIOLATION_CAUSE`], `mtval` holding
    /// the offending target address.
    pub trap_host_on_violation: bool,
    /// Log Writer watchdog / retry / escalation parameters. The default is
    /// inert on a fault-free transport (the watchdog only fires after 100k
    /// silent cycles, orders of magnitude beyond any legitimate check).
    pub resilience: ResilienceConfig,
    /// Fault-injection schedule for the CFI transport; `None` (or an
    /// all-zero-rate config) leaves the transport pristine.
    pub faults: Option<FaultConfig>,
    /// Stepping engine. Both engines produce identical reports, latency
    /// spans and fault ledgers; [`Engine::Reference`] exists for A/B
    /// verification and as the reference semantics.
    pub engine: Engine,
    /// Decode-cache capacity (slots, rounded up to a power of two) applied
    /// to every host core and the RoT core. The default covers kernel-sized
    /// firmware; fleet embedders simulating hundreds of SoCs right-size
    /// this down to the program actually run — the caches dominate
    /// per-instance memory and are architecturally invisible.
    pub decode_cache_slots: usize,
    /// Block-cache capacity (slots) applied to every core; see
    /// [`SocConfig::decode_cache_slots`].
    pub block_cache_slots: usize,
}

/// How a SoC steps its host cores and the background machinery (Log
/// Writer + RoT). Cycle-exact either way: every report field, latency
/// stamp and fault-ledger entry is identical under both engines (pinned
/// by `tests/decode_cache.rs`, `tests/latency_spans.rs`,
/// `tests/fault_resilience.rs` and the fuzz oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Raw decode on every core, one host commit at a time, and the
    /// background ticked every cycle it is not provably idle.
    Reference,
    /// Predecoded instruction caches, superblock dispatch on the host, and
    /// event-driven background scheduling that jumps over inert ticks.
    #[default]
    Fast,
}

impl Engine {
    /// Both engines, reference first.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Fast];
}

/// The `mcause` value delivered for a CFI violation (a custom exception
/// code in the implementation-defined range, as a hardware design would).
pub const CFI_VIOLATION_CAUSE: u64 = 24;

impl Default for SocConfig {
    fn default() -> SocConfig {
        SocConfig {
            queue_depth: 8,
            firmware: FirmwareKind::Polling,
            mem_size: 1 << 20,
            timing: TimingConfig::default(),
            axi: AxiTiming::default(),
            halt_on_violation: false,
            trap_host_on_violation: false,
            resilience: ResilienceConfig::default(),
            faults: None,
            engine: Engine::Fast,
            decode_cache_slots: riscv_isa::DecodeCache::DEFAULT_SLOTS,
            block_cache_slots: riscv_isa::BlockCache::DEFAULT_SLOTS,
        }
    }
}

/// Health of the RoT core as seen by the co-simulation scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RotHealth {
    /// Stepping normally.
    Healthy,
    /// Wedged by an injected hang; never steps again.
    Hung,
    /// Trapped (real firmware bug or injected fault); never steps again.
    Trapped(riscv_isa::Trap),
}

/// Aggregate results of a co-simulated run. The host fields (`halt`,
/// `cycles`, `core`, `filter`) are hart 0's, with every hart's in
/// [`SocReport::harts`]; the transport fields cover all harts.
#[derive(Debug, Clone)]
pub struct SocReport {
    /// Why hart 0's program stopped.
    pub halt: Halt,
    /// Hart 0's cycles including CFI stalls.
    pub cycles: u64,
    /// Hart 0's core counters.
    pub core: cva6_model::CoreStats,
    /// Hart 0's CFI filter counters (both ports merged).
    pub filter: titancfi::FilterStats,
    /// Commit logs fully checked by the RoT.
    pub logs_checked: u64,
    /// Violations the RoT flagged.
    pub violations: Vec<Violation>,
    /// Peak CFI queue occupancy.
    pub queue_high_water: usize,
    /// Core stall events from a full queue.
    pub stalls_queue_full: u64,
    /// Core stall events from dual control-flow commits.
    pub stalls_dual_cf: u64,
    /// Log Writer watchdog firings (completion waits that timed out).
    pub watchdog_timeouts: u64,
    /// Log Writer delivery retries.
    pub writer_retries: u64,
    /// Logs abandoned under [`FailPolicy::FailOpen`] escalation.
    pub logs_dropped: u64,
    /// Violations synthesized by [`FailPolicy::FailClosed`] escalation.
    pub forced_violations: u64,
    /// The RoT firmware trap, if one occurred (always populated when `halt`
    /// is [`Halt::FirmwareTrap`]; also populated under fail-open, where the
    /// run continues past the trap).
    pub firmware_trap: Option<riscv_isa::Trap>,
    /// Fault-injection ledger, when a fault schedule was configured.
    pub faults: Option<FaultReport>,
    /// Per-hart host results, indexed by hart.
    pub harts: Vec<HartReport>,
}

/// One hart's host results.
#[derive(Debug, Clone)]
pub struct HartReport {
    /// Why the hart's program stopped.
    pub halt: Halt,
    /// Cycles including CFI stalls.
    pub cycles: u64,
    /// Core counters.
    pub core: cva6_model::CoreStats,
    /// CFI filter counters (`emitted` = logs this hart streamed).
    pub filter: titancfi::FilterStats,
}

impl SocReport {
    /// Slowdown relative to a baseline cycle count (percent).
    #[must_use]
    pub fn slowdown_percent(&self, baseline_cycles: u64) -> f64 {
        if baseline_cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 / baseline_cycles as f64 - 1.0) * 100.0
    }
}

/// One host hart: a CVA6 core with its commit-port filters.
#[derive(Debug)]
struct Hart {
    core: Cva6Core<HostBus>,
    filter: CfiFilter,
    /// Why the hart stopped; `None` while it runs.
    halted: Option<Halt>,
    /// Commit cycle of the hart's last CF log (dual-CF stall rule).
    last_cf_cycle: Option<u64>,
}

/// The composed system on chip.
#[derive(Debug)]
pub struct SystemOnChip {
    /// The host harts; the single-hart accessors read hart 0.
    harts: Vec<Hart>,
    queue: CfiQueue,
    controller: QueueController,
    writer: LogWriter,
    rot: OpenTitan,
    config: SocConfig,
    bg_cycle: u64,
    /// Fast-engine carry-over: the RoT made an SoC access on the last tick
    /// the event-driven advance processed, and the writer has not yet run
    /// to observe a possible completion write. Forces one writer tick at
    /// the head of the next [`SystemOnChip::advance_background_fast`].
    bg_poke: bool,
    violations: Vec<Violation>,
    trapped_violations: usize,
    scmi_service: ScmiWireService,
    observers: Observers,
    /// Symbols of the booted firmware (the recorder's profiler).
    fw_symbols: BTreeMap<String, u64>,
    /// `[cfi_begin, cfi_end)` of the booted firmware, for phase attribution.
    cfi_range: (u64, u64),
    /// Whether a firmware `cfi-check` span is currently open.
    fw_checking: bool,
    /// RoT health (injected hangs/traps stop the core from stepping).
    rot_health: RotHealth,
    /// `poll_loop` address of polling firmwares (glitch recovery point);
    /// zero for IRQ firmware.
    poll_pc: u64,
    /// When enabled, every commit log pushed into the CFI queue is also
    /// recorded here, one stream per hart — purely observational (no timing
    /// effect), used by the differential fuzzer to compare commit-log
    /// streams byte for byte.
    log_tap: Option<Vec<Vec<titancfi::CommitLog>>>,
}

// Fleet shards move whole SoCs — RoT devices included — between worker
// threads, so the SoC must stay `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SystemOnChip>();
};

/// The attached probes.
#[derive(Debug, Default)]
struct Observers {
    /// Full recorder ([`SystemOnChip::attach_recorder`]).
    recorder: Option<Recorder>,
    /// Latency-only probe ([`SystemOnChip::attach_latency`]); ignored while
    /// a full recorder is attached (the recorder collects its own spans).
    latency: Option<LatencyCollector>,
    none: NoProbe,
}

impl Observers {
    /// The probe the simulation reports into: the recorder, else the
    /// latency collector, else the no-op probe.
    fn probe(&mut self) -> &mut dyn Probe {
        match (&mut self.recorder, &mut self.latency) {
            (Some(rec), _) => rec,
            (None, Some(lat)) => lat,
            (None, None) => &mut self.none,
        }
    }
}

/// Static counter name for one (phase, category) firmware cycle cell —
/// the probe-facing mirror of [`titancfi::Breakdown`]'s 2×3 matrix.
fn fw_counter_name(phase: Phase, category: Category) -> &'static str {
    match (phase, category) {
        (Phase::Irq, Category::Logic) => "fw.cycles.irq.logic",
        (Phase::Irq, Category::MemRot) => "fw.cycles.irq.mem_rot",
        (Phase::Irq, Category::MemSoc) => "fw.cycles.irq.mem_soc",
        (Phase::Cfi, Category::Logic) => "fw.cycles.cfi.logic",
        (Phase::Cfi, Category::MemRot) => "fw.cycles.cfi.mem_rot",
        (Phase::Cfi, Category::MemSoc) => "fw.cycles.cfi.mem_soc",
    }
}

impl SystemOnChip {
    /// Builds the SoC, loads `program` into host RAM, boots the RoT
    /// firmware to its idle point — the one-hart [`SystemOnChip::with_harts`].
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit host RAM or the firmware fails to
    /// boot.
    #[must_use]
    pub fn new(program: &Program, config: SocConfig) -> SystemOnChip {
        SystemOnChip::with_harts(&[program], config)
    }

    /// Builds the SoC with one host hart per program — `programs[i]` in
    /// hart `i`'s private RAM of `config.mem_size` bytes — sharing one CFI
    /// queue, Log Writer, mailbox and RoT, and boots the RoT firmware to
    /// its idle point. More than one hart boots the banked shadow-stack
    /// firmware, which keeps one bank per hart.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty, a program does not fit host RAM, or
    /// there is no firmware for the hart count and `config.firmware` (more
    /// than one hart needs [`FirmwareKind::Polling`], and at most two are
    /// banked).
    #[must_use]
    pub fn with_harts(programs: &[&Program], config: SocConfig) -> SystemOnChip {
        let fw = build_firmware_for_harts(config.firmware, programs.len());
        let profile = match config.firmware {
            FirmwareKind::Optimized => LatencyProfile::optimized(),
            _ => LatencyProfile::baseline(),
        };
        let mut rot = OpenTitan::new(&fw, profile);
        // The general SCMI system mailbox (host-accessible): version and
        // remote-attestation services, attesting the booted CFI firmware.
        let scmi = ScmiWire::new();
        let scmi_service =
            ScmiWireService::new(scmi.clone(), b"titancfi-attestation-key", &fw.bytes);
        // Cores boot with predecode on; the reference engine decodes raw.
        let predecode = config.engine == Engine::Fast;
        let harts = programs
            .iter()
            .map(|program| {
                // Host bus: program RAM plus the mailbox window, locked
                // down by PMP exactly as the paper's threat model assumes
                // (software cannot tamper with in-flight commit logs; only
                // the hardware Log Writer reaches the mailbox).
                assert!(
                    program.bytes.len() <= config.mem_size,
                    "program ({} bytes) larger than memory ({})",
                    program.bytes.len(),
                    config.mem_size
                );
                let mut bus = HostBus::new(program.base, config.mem_size);
                bus.load(program.base, &program.bytes);
                bus.protect_mailbox();
                bus.map_scmi(scmi.clone());
                let mut core = Cva6Core::with_bus(bus, program.entry, config.timing);
                core.hart_mut().set_reg(
                    riscv_isa::Reg::SP,
                    (program.base + config.mem_size as u64 - 16) & !0xf,
                );
                // Size the simulator caches before any instruction executes
                // so the run predecodes into the final-capacity tables.
                core.resize_caches(config.decode_cache_slots, config.block_cache_slots);
                core.set_predecode(predecode);
                Hart {
                    core,
                    filter: CfiFilter::new(),
                    halted: None,
                    last_cf_cycle: None,
                }
            })
            .collect();
        rot.core
            .resize_caches(config.decode_cache_slots, config.block_cache_slots);
        // Boot firmware to idle.
        match config.firmware {
            FirmwareKind::Irq => {
                let (_, ev) = rot.core.run_until_idle(1_000_000);
                assert_eq!(
                    ev,
                    Some(ibex_model::IbexEvent::Asleep),
                    "firmware must park"
                );
            }
            _ => {
                let poll_loop = fw.symbol("poll_loop").expect("poll_loop symbol");
                for _ in 0..1000 {
                    let c = rot.core.step().expect("boot");
                    if c.retired.pc == poll_loop {
                        break;
                    }
                }
            }
        }
        rot.core.set_predecode(predecode);
        let cfi_range = (
            fw.symbol("cfi_begin").expect("cfi_begin symbol"),
            fw.symbol("cfi_end").expect("cfi_end symbol"),
        );
        let poll_pc = match config.firmware {
            FirmwareKind::Irq => 0,
            _ => fw.symbol("poll_loop").expect("poll_loop symbol"),
        };
        let mut writer = LogWriter::with_resilience(config.axi, config.resilience);
        if let Some(faults) = config.faults.filter(FaultConfig::enabled) {
            writer.attach_injector(FaultInjector::new(faults));
        }
        // The transport always runs with word-7 integrity on: it costs no
        // cycles (the word rides the final AXI beat) and catches in-flight
        // corruption before the RoT ever sees it.
        rot.mailbox_mut().enable_integrity();
        SystemOnChip {
            harts,
            queue: CfiQueue::new(config.queue_depth),
            controller: QueueController::new(),
            writer,
            rot,
            config,
            bg_cycle: 0,
            bg_poke: false,
            violations: Vec::new(),
            trapped_violations: 0,
            scmi_service,
            observers: Observers::default(),
            fw_symbols: fw.symbols,
            cfi_range,
            fw_checking: false,
            rot_health: RotHealth::Healthy,
            poll_pc,
            log_tap: None,
        }
    }

    /// Starts capturing every commit log pushed into the CFI queue, one
    /// stream per hart. The tap is a pure observer — it records at the
    /// existing push site and does not change scheduling, batching
    /// legality, or any report field.
    pub fn enable_log_tap(&mut self) {
        self.log_tap = Some(vec![Vec::new(); self.harts.len()]);
    }

    /// Detaches the tap and returns hart 0's captured commit-log stream, if
    /// a tap was enabled.
    pub fn take_log_tap(&mut self) -> Option<Vec<titancfi::CommitLog>> {
        self.log_tap.take().map(|mut taps| taps.swap_remove(0))
    }

    /// Drains hart 0's logs captured since the last drain, leaving the tap
    /// enabled — the incremental form [`SystemOnChip::run_slice`] callers
    /// (fleet devices) use between slices. Returns an empty vector when no
    /// tap is enabled.
    pub fn drain_log_tap(&mut self) -> Vec<titancfi::CommitLog> {
        self.log_tap
            .as_mut()
            .map(|taps| std::mem::take(&mut taps[0]))
            .unwrap_or_default()
    }

    /// Hart `hart`'s commit-log stream captured so far (empty when no tap
    /// is enabled).
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range while a tap is enabled.
    #[must_use]
    pub fn hart_log_tap(&self, hart: usize) -> &[titancfi::CommitLog] {
        self.log_tap.as_ref().map_or(&[], |taps| &taps[hart])
    }

    /// Violations flagged so far — readable mid-run between
    /// [`SystemOnChip::run_slice`] calls, before a report exists.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Current cycle of hart 0 — readable mid-run between
    /// [`SystemOnChip::run_slice`] calls, before a report exists.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.harts[0].core.cycle()
    }

    /// Attaches a full [`Recorder`] (metrics + timeline + firmware
    /// profiler); subsequent [`SystemOnChip::run`] cycles are instrumented.
    /// Without this call the simulation takes the uninstrumented path.
    pub fn attach_recorder(&mut self) {
        let mut recorder = Recorder::new().with_profiler(&self.fw_symbols);
        recorder
            .metrics
            .declare_histogram("queue.occupancy", Histogram::occupancy());
        self.observers.recorder = Some(recorder);
    }

    /// Detaches and returns the recorder (for export / reporting).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.observers.recorder.take()
    }

    /// Read access to the attached recorder, when one is present.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.observers.recorder.as_ref()
    }

    /// Attaches the lightweight per-log latency collector — lifecycle
    /// boundary stamps only, no timeline or metric registry. Every stamp
    /// lands on a writer state transition the fast engine's event-driven
    /// advance visits, so the collector rides either engine and the spans
    /// are byte-identical across them (pinned by `tests/latency_spans.rs`).
    pub fn attach_latency(&mut self) {
        self.observers.latency = Some(LatencyCollector::new());
    }

    /// Detaches and returns the latency collector.
    pub fn take_latency(&mut self) -> Option<LatencyCollector> {
        self.observers.latency.take()
    }

    /// The collected per-log latency spans, from whichever probe is
    /// attached: the standalone collector or a full recorder.
    #[must_use]
    pub fn latency_spans(&self) -> Option<&LatencySpans> {
        match (&self.observers.recorder, &self.observers.latency) {
            (Some(rec), _) => Some(&rec.latency),
            (None, Some(lat)) => Some(&lat.spans),
            (None, None) => None,
        }
    }

    /// The SHA-256 measurement of the booted CFI firmware — what a remote
    /// verifier expects attestation reports to carry.
    #[must_use]
    pub fn firmware_measurement(&self) -> [u8; 32] {
        self.scmi_service.measurement()
    }

    /// Advances the background machinery (Log Writer + RoT) to `until`, one
    /// [`SystemOnChip::tick_once`] per cycle that is not provably idle.
    fn advance_background(&mut self, until: u64) {
        while self.bg_cycle < until {
            // Fast-forward across true idleness.
            if self.queue.is_empty()
                && !self.writer.busy()
                && !self.rot.mailbox().doorbell_pending()
            {
                self.scmi_service.poll();
                if let Some(rec) = self.observers.recorder.as_mut() {
                    // The skipped cycles all see an empty queue; record them
                    // in bulk so the occupancy histogram stays per-cycle.
                    let skipped = until - self.bg_cycle;
                    rec.metrics.record_n("queue.occupancy", 0, skipped);
                    rec.metrics.add("soc.idle_fast_forward_cycles", skipped);
                }
                self.bg_cycle = until;
                self.rot.core.advance_to(until);
                return;
            }
            self.tick_once();
        }
    }

    /// Tick-start firmware bookkeeping, shared by both engines: when the
    /// doorbell level differs from the one the previous tick saw, opens
    /// (rising edge) or closes (falling edge) the firmware `cfi-check` span.
    /// A rising edge is the check-entry fault window — the firmware has not
    /// touched policy state yet, so a glitch here restarts the check
    /// idempotently. Returns an injected trap, which the caller applies
    /// after this tick's RoT step.
    fn check_entry(&mut self, doorbell: bool) -> Option<riscv_isa::Trap> {
        if doorbell == self.fw_checking {
            return None;
        }
        self.fw_checking = doorbell;
        let probe = self.observers.probe();
        if !doorbell {
            probe.span_end(Track::Firmware, self.bg_cycle);
            return None;
        }
        probe.span_begin(Track::Firmware, "cfi-check", self.bg_cycle);
        if self.rot_health != RotHealth::Healthy {
            return None;
        }
        let fault = self
            .writer
            .injector_mut()
            .map_or(CheckFault::None, FaultInjector::check_fault);
        match fault {
            CheckFault::None => None,
            CheckFault::Glitch => {
                probe.instant(Track::Firmware, "fault.glitch", self.bg_cycle);
                if self.poll_pc != 0 {
                    // Transient PC upset: the core restarts from the poll
                    // loop and re-enters the pending check.
                    self.rot.core.hart.pc = self.poll_pc;
                }
                None
            }
            CheckFault::Hang => {
                probe.instant(Track::Firmware, "fault.hang", self.bg_cycle);
                self.rot_health = RotHealth::Hung;
                None
            }
            CheckFault::Trap => Some(riscv_isa::Trap::IllegalInstruction(0xdead_c0de)),
        }
    }

    fn tick_once(&mut self) {
        let injected_trap = self.check_entry(self.rot.mailbox().doorbell_pending());
        let probe = self.observers.probe();
        if let Some(v) = self.writer.tick_probed(
            self.bg_cycle,
            &mut self.queue,
            self.rot.mailbox_mut(),
            probe,
        ) {
            self.violations.push(v);
        }
        probe.histogram_record("queue.occupancy", self.queue.len() as u64);
        self.scmi_service.poll();
        let doorbell = self.rot.sync_irq();
        let runnable = self.rot_health == RotHealth::Healthy
            && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell);
        let mut rot_trap = None;
        if runnable && self.rot.core.cycle() <= self.bg_cycle {
            match self.rot.core.step_probed(probe) {
                Ok(commit) => {
                    if probe.enabled() {
                        let pc = commit.retired.pc;
                        let phase = if (self.cfi_range.0..self.cfi_range.1).contains(&pc) {
                            Phase::Cfi
                        } else {
                            Phase::Irq
                        };
                        let category = Category::from_access(commit.mem_kind);
                        probe.counter_add(fw_counter_name(phase, category), commit.cost);
                    }
                }
                // A real firmware bug: report it structurally instead of
                // panicking the whole campaign worker.
                Err(ibex_model::IbexEvent::Trapped(t)) => rot_trap = Some(t),
                Err(_) => {}
            }
        }
        if let Some(t) = rot_trap.or(injected_trap) {
            self.record_firmware_trap(t);
        }
        self.bg_cycle += 1;
    }

    /// Event-driven form of [`SystemOnChip::advance_background`], used by
    /// the fast engine. Per-tick semantics are identical to
    /// [`SystemOnChip::tick_once`] — check-entry bookkeeping first, then
    /// the writer, the IRQ fabric, and at most one RoT instruction — but
    /// provably inert ticks (no doorbell edge unseen, no writer event due
    /// per [`LogWriter::next_event`], no RoT instruction retiring) are
    /// jumped over instead of simulated. Latency stamps and writer-side
    /// faults all land on writer events, so both ride along. With
    /// `until_queue_space` the advance instead runs until the CFI queue has
    /// a free slot (the queue-full commit stall) and `until` is ignored.
    fn advance_background_fast(&mut self, until: u64, until_queue_space: bool) {
        if until_queue_space {
            if !self.queue.is_full() {
                return;
            }
        } else if self.bg_cycle >= until {
            return;
        }
        // The host harts are frozen for the whole advance, so a pending
        // SCMI request is served once up front — when the first per-tick
        // poll would have run it. (SCMI and the CFI transport never
        // interact.)
        self.scmi_service.poll();
        // The doorbell level only moves when the writer rings it, the RoT
        // completes a check, or a trap tears the exchange down; the IRQ
        // fabric is synced (and the level re-read) after each of those.
        let mut doorbell = self.rot.sync_irq();
        // A completion the RoT wrote at the tail of the previous advance
        // may not have been observed yet: force one writer tick before
        // trusting the event schedule. Carried across calls so the common
        // caught-up advance pays no forced tick.
        let mut poke = std::mem::take(&mut self.bg_poke);
        loop {
            let done = if until_queue_space {
                !self.queue.is_full()
            } else {
                self.bg_cycle >= until
            };
            if done {
                self.bg_poke = poke;
                return;
            }
            // True idleness: nothing moves until the host acts again. A
            // pending poke tick would be a no-op here (idle writer, empty
            // queue), so it is dropped rather than carried.
            if self.queue.is_empty() && !self.writer.busy() && !doorbell {
                self.bg_cycle = self.bg_cycle.max(until);
                self.rot.core.advance_to(self.bg_cycle);
                return;
            }
            let writer_next = self
                .writer
                .next_event(self.bg_cycle, !self.queue.is_empty())
                .map(|e| e.max(self.bg_cycle));
            let rot_runnable = self.rot_health == RotHealth::Healthy
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell);
            let rot_next = if rot_runnable {
                Some(self.rot.core.cycle().max(self.bg_cycle))
            } else {
                None
            };
            let mut next = if until_queue_space {
                // Jump to the earliest due event — the writer always
                // schedules progress while the queue is backed up (at worst
                // the completion watchdog). Creeping one tick when neither
                // machine has anything due matches the per-cycle loop's
                // (non-)progress on a wedged transport.
                match (writer_next, rot_next) {
                    (Some(w), Some(r)) => w.min(r),
                    (Some(e), None) | (None, Some(e)) => e,
                    (None, None) => self.bg_cycle + 1,
                }
            } else {
                until
            };
            // A poke, or a doorbell edge the tick-start bookkeeping has not
            // seen yet (the check-entry fault window), is due now.
            if poke || doorbell != self.fw_checking {
                next = self.bg_cycle;
            }
            if let Some(w) = writer_next {
                next = next.min(w);
            }
            if let Some(r) = rot_next {
                next = next.min(r);
            }
            if next > self.bg_cycle {
                // Jumped-over ticks are no-ops by construction: no edge is
                // pending, the writer has no event due and the RoT has no
                // instruction retiring.
                self.bg_cycle = next;
                continue;
            }
            // ---- simulate the tick at `self.bg_cycle` ----
            let injected_trap = self.check_entry(doorbell);
            let writer_due = poke || writer_next == Some(self.bg_cycle);
            poke = false;
            if writer_due {
                if let Some(v) = self.writer.tick_probed(
                    self.bg_cycle,
                    &mut self.queue,
                    self.rot.mailbox_mut(),
                    self.observers.probe(),
                ) {
                    self.violations.push(v);
                }
                // The writer may have rung the doorbell on its final beat:
                // sync before deciding the RoT step, exactly as the
                // per-tick path syncs between the writer and the core.
                doorbell = self.rot.sync_irq();
            }
            let rot_steps = self.rot_health == RotHealth::Healthy
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell)
                && self.rot.core.cycle() <= self.bg_cycle;
            let mut rot_trap = None;
            if rot_steps {
                match self.rot.core.step() {
                    Ok(commit) => {
                        if commit.mem_kind == Some(ibex_model::RegionKind::Soc) {
                            // The RoT may have written its completion word
                            // (auto-clearing the doorbell); the writer must
                            // observe it on the next tick, as it would when
                            // ticked every cycle.
                            poke = true;
                            doorbell = self.rot.sync_irq();
                        }
                    }
                    Err(ibex_model::IbexEvent::Trapped(t)) => rot_trap = Some(t),
                    Err(_) => {}
                }
            }
            if let Some(t) = rot_trap.or(injected_trap) {
                self.record_firmware_trap(t);
                doorbell = self.rot.sync_irq();
            }
            self.bg_cycle += 1;
        }
    }

    /// One superblock on hart `i`, with the skipped straight-line
    /// retirements accounted to its filter (the hardware scans every
    /// retirement).
    fn host_block(&mut self, i: usize, until: u64) -> Result<cva6_model::Commit, Halt> {
        let bs = self.harts[i].core.step_block(until);
        if bs.straightline > 0 {
            self.harts[i].filter.note_straightline(bs.straightline);
            if bs.result.is_err() {
                // The failing op retired nothing, but the straight-line ops
                // before it did: bring the background up to the last
                // retirement, exactly where per-op stepping would have left
                // it at the halt.
                self.advance_background_fast(self.harts[i].core.cycle(), false);
            }
        }
        bs.result
    }

    /// The cycle at which the scheduler stops picking hart `i`: the live
    /// hart with the fewest cycles runs next, ties to the lowest index, so
    /// `i` yields once it reaches a lower-indexed sibling's cycle or passes
    /// a higher-indexed one's. `u64::MAX` on a single hart.
    fn sibling_bound(&self, i: usize) -> u64 {
        self.harts
            .iter()
            .enumerate()
            .filter(|&(j, h)| j != i && h.halted.is_none())
            .map(|(j, h)| h.core.cycle() + u64::from(j > i))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// One fast-engine batch on hart `i`: superblocks up to the next
    /// CFI-relevant commit, host device access, `bound`, or the point where
    /// the scheduler would switch harts, then a single event-driven
    /// background catch-up to the last commit. The host and the background
    /// only interact at queue pushes (CFI-relevant commits) and
    /// device-window accesses, the siblings are frozen while hart `i` runs,
    /// and superblocks end at all of these, so deferring the catch-up to
    /// the batch boundary composes to the same state as advancing after
    /// every commit.
    fn run_batch(&mut self, i: usize, bound: u64) -> Result<cva6_model::Commit, Halt> {
        let bound = bound.min(self.sibling_bound(i));
        let mut commit = self.host_block(i, bound)?;
        while !(commit.cf_class.is_cfi_relevant()
            || self.harts[i].core.bus_mut().take_io_access()
            || self.harts[i].core.cycle() >= bound)
        {
            // The filter hardware scans every retirement; account the
            // skipped straight-line ones.
            self.harts[i].filter.note_straightline(1);
            match self.host_block(i, bound) {
                Ok(c) => commit = c,
                Err(halt) => {
                    // The halting instruction retired nothing; the last
                    // commit was straight-line and already accounted.
                    self.advance_background_fast(commit.cycle, false);
                    return Err(halt);
                }
            }
        }
        self.advance_background_fast(commit.cycle, false);
        Ok(commit)
    }

    /// The cycle a fast batch must stop at so that an injected check-entry
    /// trap halts a fail-closed run on the same commit as the reference
    /// engine, which catches the background up after every commit. While a
    /// log is queued or in flight any tick may record the trap, so the batch
    /// ends at the first commit past the caught-up background; otherwise no
    /// check can start before the next push, which ends the batch anyway.
    /// (Genuine firmware traps are not bounded: the shipped firmware never
    /// traps unless a fault is injected.)
    fn trap_horizon(&self) -> u64 {
        let armed = self.config.resilience.policy == FailPolicy::FailClosed
            && self.rot_health == RotHealth::Healthy
            && self.config.faults.is_some_and(|f| f.firmware_trap != 0);
        if armed && (self.writer.busy() || !self.queue.is_empty()) {
            self.bg_cycle + 1
        } else {
            u64::MAX
        }
    }

    /// Records a RoT firmware trap (injected or genuine) as a structured
    /// outcome: the core stops stepping, the mailbox transaction is torn
    /// down so the host side cannot wedge, and the run loop surfaces
    /// [`Halt::FirmwareTrap`] (fail-closed) or keeps going with the trap
    /// noted in the report (fail-open).
    fn record_firmware_trap(&mut self, trap: riscv_isa::Trap) {
        if matches!(self.rot_health, RotHealth::Trapped(_)) {
            return;
        }
        self.rot_health = RotHealth::Trapped(trap);
        let cycle = self.bg_cycle;
        if let Some(rec) = self.observers.recorder.as_mut() {
            rec.counter_add("fw.traps", 1);
            rec.instant(Track::Firmware, "fault.trap", cycle);
        }
        if let Some(inj) = self.writer.injector_mut() {
            inj.note_detected(FaultClass::FirmwareTrap);
            inj.note_escalated();
        }
        // Clear the interface so neither side spins on a dead exchange.
        self.rot.mailbox_mut().host_abort();
    }

    /// The recorded firmware trap, if any.
    fn firmware_trap(&self) -> Option<riscv_isa::Trap> {
        match self.rot_health {
            RotHealth::Trapped(t) => Some(t),
            _ => None,
        }
    }

    /// Runs the host programs to completion (or `max_cycles`), co-simulating
    /// the CFI pipeline.
    #[must_use]
    pub fn run(&mut self, max_cycles: u64) -> SocReport {
        let halt = self.run_slice(max_cycles).unwrap_or(Halt::Budget);
        self.finish(halt)
    }

    /// The live hart with the fewest cycles (ties to the lowest index): the
    /// one the interleaving scheduler steps next.
    fn next_hart(&self) -> Option<usize> {
        (0..self.harts.len())
            .filter(|&i| self.harts[i].halted.is_none())
            .min_by_key(|&i| self.harts[i].core.cycle())
    }

    /// Stops every live hart with `halt`.
    fn halt_live(&mut self, halt: Halt) {
        for h in &mut self.harts {
            h.halted.get_or_insert(halt);
        }
    }

    /// Advances the co-simulation until every live hart reaches
    /// `until_cycle` (absolute) or every hart halts for a real reason, and
    /// returns hart 0's halt in that case. Returns `None` at the cycle
    /// limit with all state intact — calling again with a later limit
    /// resumes exactly where this slice paused, which is how a fleet device
    /// runs thousands of cheap, pausable SoC snapshots on one scheduler.
    /// In-flight transport work is *not* drained between slices; call
    /// [`SystemOnChip::finish`] once a `Some` halt (or the final slice)
    /// arrives.
    pub fn run_slice(&mut self, until_cycle: u64) -> Option<Halt> {
        // The fast engine steps per commit only where the reference
        // semantics act at every commit boundary: a full recorder samples
        // every retirement, and halt- / trap-on-violation deliver at each
        // commit. Next step: superblocks that end where a violation is
        // delivered.
        let block = self.config.engine == Engine::Fast
            && self.observers.recorder.is_none()
            && !self.config.halt_on_violation
            && !self.config.trap_host_on_violation;
        loop {
            let Some(i) = self.next_hart() else {
                return self.harts[0].halted;
            };
            if self.harts[i].core.cycle() >= until_cycle {
                return None;
            }
            if let Some(t) = self.firmware_trap() {
                if self.config.resilience.policy == FailPolicy::FailClosed {
                    // Fail closed: a dead checker means unchecked hosts;
                    // stop every live hart and surface the trap
                    // structurally.
                    self.halt_live(Halt::FirmwareTrap(t));
                    continue;
                }
            }
            if self.config.halt_on_violation && !self.violations.is_empty() {
                self.halt_live(Halt::Breakpoint);
                continue;
            }
            let stepped = if block {
                self.run_batch(i, until_cycle.min(self.trap_horizon()))
            } else {
                self.harts[i]
                    .core
                    .step()
                    .inspect(|c| self.advance_background(c.cycle))
            };
            let commit = match stepped {
                Ok(commit) => commit,
                Err(halt) => {
                    self.harts[i].halted = Some(halt);
                    continue;
                }
            };
            // Deliver any violation the background machinery found while
            // this instruction was in flight, to the hart that committed
            // the offending log.
            if self.config.trap_host_on_violation && self.violations.len() > self.trapped_violations
            {
                let v = self.violations[self.trapped_violations];
                self.trapped_violations = self.violations.len();
                self.harts[usize::from(v.hart)]
                    .core
                    .inject_exception(CFI_VIOLATION_CAUSE, v.log.target);
            }
            self.enqueue_log(i, &commit, block);
        }
    }

    /// Pushes the CFI log of hart `i`'s `commit`, if the filters emit one,
    /// stalling the hart's commit stage as the Queue Controller demands.
    fn enqueue_log(&mut self, i: usize, commit: &cva6_model::Commit, block: bool) {
        let hart = &mut self.harts[i];
        let Some(log) = hart
            .filter
            .scan_classified(&commit.retired, commit.cf_class)
        else {
            return;
        };
        if let Some(taps) = self.log_tap.as_mut() {
            taps[i].push(log);
        }
        // Dual-CF conflict: two CF logs in the same commit cycle of one
        // hart cannot both be pushed (paper §IV-B2). Across harts the queue
        // order is the order the scheduler steps them; no stall.
        if hart.last_cf_cycle == Some(commit.cycle) {
            self.controller.stalls_dual_cf += 1;
            hart.core.stall(1);
            if let Some(rec) = self.observers.recorder.as_mut() {
                rec.metrics.add("stall.dual_cf", 1);
                rec.timeline
                    .instant(Track::HostCommit, "stall.dual_cf", self.bg_cycle);
            }
        }
        hart.last_cf_cycle = Some(commit.cycle);
        // Queue full: stall the commit stage until the Log Writer frees a
        // slot.
        if block && self.queue.is_full() {
            // Event-driven form of the wait below (the recorder, which
            // samples every stalled cycle, forces per-commit stepping); the
            // stall total is the same ticks the per-cycle loop would have
            // burned, skipped ones included.
            let before = self.bg_cycle;
            self.advance_background_fast(0, true);
            let waited = self.bg_cycle - before;
            self.controller.stalls_queue_full += waited;
            self.harts[i].core.stall(waited);
        } else if self.queue.is_full() {
            if let Some(rec) = self.observers.recorder.as_mut() {
                rec.timeline
                    .span_begin(Track::HostCommit, "stall.queue_full", self.bg_cycle);
            }
            while self.queue.is_full() {
                // Sub-attribute the stalled cycle by what the pipeline is
                // waiting on: the Log Writer's AXI beats, or the RoT still
                // checking.
                let axi_busy = matches!(self.writer.state(), WriterState::Writing { .. });
                let before = self.bg_cycle;
                self.tick_once();
                let waited = self.bg_cycle - before;
                self.controller.stalls_queue_full += waited;
                self.harts[i].core.stall(waited);
                if let Some(rec) = self.observers.recorder.as_mut() {
                    rec.metrics.add("stall.queue_full", waited);
                    rec.metrics.add(
                        if axi_busy {
                            "stall.axi_busy"
                        } else {
                            "stall.fw_wait"
                        },
                        waited,
                    );
                }
            }
            if let Some(rec) = self.observers.recorder.as_mut() {
                rec.timeline.span_end(Track::HostCommit, self.bg_cycle);
            }
        }
        let pushed = self
            .queue
            .push_probed(i as u8, log, self.bg_cycle, self.observers.probe());
        debug_assert!(pushed, "push after full-wait must succeed");
    }

    /// Drains in-flight transport work and assembles the final report for a
    /// run that stopped — the second half of [`SystemOnChip::run`], exposed
    /// so sliced runs ([`SystemOnChip::run_slice`]) can settle the
    /// transport exactly once at teardown. `halt` is recorded for every
    /// hart still live ([`Halt::Budget`] for a run cut at its cycle limit).
    pub fn finish(&mut self, halt: Halt) -> SocReport {
        // Drain in-flight checks so counters are final. With a trapped RoT
        // under fail-closed there is nothing left to drain (the writer can
        // only watchdog against a dead checker); fail-open drains normally,
        // escalation dropping whatever the RoT can no longer check.
        let mut guard = 0u64;
        while !(self.firmware_trap().is_some()
            && self.config.resilience.policy == FailPolicy::FailClosed)
            && (!self.queue.is_empty()
                || self.writer.busy()
                || self.rot.mailbox().doorbell_pending())
            && guard < 10_000_000
        {
            self.tick_once();
            guard += 1;
        }
        // The drain loop exits on the doorbell-clearing tick, before the
        // next tick would notice the transition — close the span here.
        if self.fw_checking {
            if let Some(rec) = self.observers.recorder.as_mut() {
                rec.timeline.span_end(Track::Firmware, self.bg_cycle);
            }
            self.fw_checking = false;
        }
        let harts: Vec<HartReport> = self
            .harts
            .iter()
            .map(|h| HartReport {
                halt: h.halted.unwrap_or(halt),
                cycles: h.core.cycle(),
                core: h.core.stats(),
                filter: h.filter.stats(),
            })
            .collect();
        let hart0 = harts[0].clone();
        SocReport {
            halt: hart0.halt,
            cycles: hart0.cycles,
            core: hart0.core,
            filter: hart0.filter,
            logs_checked: self.writer.logs_written,
            violations: self.violations.clone(),
            queue_high_water: self.queue.max_occupancy,
            stalls_queue_full: self.controller.stalls_queue_full,
            stalls_dual_cf: self.controller.stalls_dual_cf,
            watchdog_timeouts: self.writer.watchdog_timeouts,
            writer_retries: self.writer.retries,
            logs_dropped: self.writer.dropped_logs,
            forced_violations: self.writer.forced_violations,
            firmware_trap: self.firmware_trap(),
            faults: self.writer.injector().map(FaultInjector::report),
            harts,
        }
    }

    /// Hart 0's register read-back (for checking program results).
    #[must_use]
    pub fn host_reg(&self, r: riscv_isa::Reg) -> u64 {
        self.hart_reg(0, r)
    }

    /// Register read-back on hart `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    #[must_use]
    pub fn hart_reg(&self, hart: usize, r: riscv_isa::Reg) -> u64 {
        self.harts[hart].core.reg(r)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Number of hart 0's accesses blocked by the mailbox PMP guard (tamper
    /// attempts from software).
    #[must_use]
    pub fn pmp_denials(&mut self) -> u64 {
        self.harts[0].core.bus_mut().pmp_denials
    }

    /// Direct access to hart 0's host bus (verifier-side readback in tests).
    pub fn host_bus_mut(&mut self) -> &mut HostBus {
        self.harts[0].core.bus_mut()
    }
}

/// Runs `program` without any CFI machinery — the baseline for slowdowns.
#[must_use]
pub fn run_baseline(program: &Program, config: &SocConfig) -> (Halt, u64) {
    let mut core = Cva6Core::new(program, config.mem_size, config.timing);
    let halt = core.run_silent(u64::MAX / 2);
    (halt, core.cycle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use titancfi_workloads::{Kernel, KERNEL_MEM};

    /// Runs the call-dense kernel on the fast engine with `faults` armed
    /// and, optionally, the latency collector attached; returns the host's
    /// superblock-cache hits (zero would mean a silent fallback to
    /// per-commit stepping) next to the report.
    fn fast_run(faults: Option<FaultConfig>, latency: bool) -> (u64, SocReport) {
        let prog = Kernel::by_name("dhry-calls")
            .expect("kernel")
            .program()
            .expect("assembles");
        let config = SocConfig {
            mem_size: KERNEL_MEM,
            faults,
            engine: Engine::Fast,
            ..SocConfig::default()
        };
        let mut soc = SystemOnChip::new(&prog, config);
        if latency {
            soc.attach_latency();
        }
        let report = soc.run(50_000_000);
        assert_eq!(report.halt, Halt::Breakpoint);
        (soc.harts[0].core.block_cache_stats().hits, report)
    }

    #[test]
    fn two_harts_share_one_clean_transport() {
        let [fib, towers] =
            ["fib", "towers"].map(|n| Kernel::by_name(n).expect("kernel").program().expect("ok"));
        let config = SocConfig {
            mem_size: KERNEL_MEM,
            ..SocConfig::default()
        };
        let mut soc = SystemOnChip::with_harts(&[&fib, &towers], config);
        soc.enable_log_tap();
        let report = soc.run(50_000_000);
        assert!(report.harts.iter().all(|h| h.halt == Halt::Breakpoint));
        // Every ring passed the word-7 integrity check, and the one
        // writer's sequence numbers ran gap-free across both harts.
        let mailbox = soc.rot.mailbox();
        assert_eq!(mailbox.integrity_rejects(), 0);
        assert_eq!(mailbox.seq_gaps(), 0);
        assert_eq!(mailbox.seq_duplicates(), 0);
        assert_eq!(mailbox.doorbells_rung(), report.logs_checked);
        // The tap splits the stream by hart.
        for (i, hart) in report.harts.iter().enumerate() {
            assert!(hart.filter.emitted > 0);
            assert_eq!(soc.hart_log_tap(i).len() as u64, hart.filter.emitted);
        }
    }

    #[test]
    fn latency_collector_rides_the_fast_engine() {
        let (hits, report) = fast_run(None, true);
        assert!(report.logs_checked > 0);
        assert!(
            hits > 0,
            "an attached latency collector forced per-commit stepping"
        );
    }

    #[test]
    fn fault_injector_rides_the_fast_engine() {
        let faults = FaultConfig {
            doorbell_delay: 3,
            firmware_glitch: 2,
            ..FaultConfig::none(7)
        };
        let (hits, report) = fast_run(Some(faults), false);
        let ledger = report.faults.expect("injector armed");
        assert!(ledger.class(FaultClass::DoorbellDelay).injected > 0);
        assert!(ledger.class(FaultClass::FirmwareGlitch).injected > 0);
        assert!(
            hits > 0,
            "an armed fault injector forced per-commit stepping"
        );
    }
}
