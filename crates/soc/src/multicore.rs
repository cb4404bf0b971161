//! Multi-core TitanCFI: two host cores sharing one RoT.
//!
//! The paper's future work (§VII) names "more capable platforms, featuring
//! multi-core hosts". This module implements it: each core keeps its own
//! CFI filter, both feed a shared, *core-tagged* CFI queue (the queue is
//! the arbitration point — the single-push-per-cycle rule now also
//! serialises cross-core conflicts), and one Log Writer streams tagged
//! logs to the mailbox with the core id in data word 7. The RoT runs the
//! banked multi-core firmware, keeping one shadow stack per core.

use crate::hostbus::HostBus;
use crate::sim::Engine;
use cva6_model::{Cva6Core, Halt, TimingConfig};
use opentitan_model::rot::LatencyProfile;
use opentitan_model::{CfiMailbox, OpenTitan};
use riscv_asm::Program;
use std::collections::VecDeque;
use titancfi::firmware::build_multicore_firmware;
use titancfi::{AxiTiming, CfiFilter, CommitLog};

/// Number of host cores.
pub const CORES: usize = 2;

/// A commit log tagged with its originating core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedLog {
    /// Originating core (0 or 1).
    pub core: u8,
    /// The log.
    pub log: CommitLog,
}

/// A violation attributed to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedViolation {
    /// The offending core.
    pub core: u8,
    /// The offending log.
    pub log: CommitLog,
    /// RoT cycle at which the verdict was read.
    pub cycle: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterState {
    Idle,
    Writing { beat: usize, done_at: u64 },
    WaitCompletion,
    ReadResult { done_at: u64 },
}

/// The shared, core-tagged Log Writer.
#[derive(Debug)]
struct TaggedWriter {
    state: WriterState,
    timing: AxiTiming,
    current: Option<TaggedLog>,
    logs_written: u64,
}

impl TaggedWriter {
    fn new(timing: AxiTiming) -> TaggedWriter {
        TaggedWriter {
            state: WriterState::Idle,
            timing,
            current: None,
            logs_written: 0,
        }
    }

    fn busy(&self) -> bool {
        self.state != WriterState::Idle
    }

    /// Next cycle at which [`TaggedWriter::tick`] can change state, given
    /// whether the shared queue holds work; `None` while waiting on the
    /// RoT's completion write (externally driven — the event scheduler
    /// re-ticks after any RoT SoC-fabric access instead). Ticks strictly
    /// before the returned cycle are guaranteed no-ops.
    fn next_event(&self, now: u64, queue_nonempty: bool) -> Option<u64> {
        match self.state {
            WriterState::Idle => queue_nonempty.then_some(now),
            WriterState::Writing { done_at, .. } | WriterState::ReadResult { done_at } => {
                Some(done_at)
            }
            WriterState::WaitCompletion => None,
        }
    }

    fn tick(
        &mut self,
        now: u64,
        queue: &mut VecDeque<TaggedLog>,
        mailbox: &CfiMailbox,
    ) -> Option<TaggedViolation> {
        match self.state {
            WriterState::Idle => {
                if let Some(tagged) = queue.pop_front() {
                    self.current = Some(tagged);
                    self.state = WriterState::Writing {
                        beat: 0,
                        done_at: now + self.timing.write_beat,
                    };
                }
                None
            }
            WriterState::Writing { beat, done_at } => {
                if now < done_at {
                    return None;
                }
                let tagged = self.current.expect("writing implies current");
                let beats = tagged.log.to_beats();
                mailbox.host_write_data(2 * beat, beats[beat] as u32);
                if 2 * beat + 1 < titancfi::commit_log::WORDS {
                    mailbox.host_write_data(2 * beat + 1, (beats[beat] >> 32) as u32);
                }
                if beat + 1 == titancfi::commit_log::BEATS {
                    // Final beat also carries the core id in word 7.
                    mailbox.host_write_data(7, u32::from(tagged.core));
                    mailbox.host_ring_doorbell();
                    self.state = WriterState::WaitCompletion;
                } else {
                    self.state = WriterState::Writing {
                        beat: beat + 1,
                        done_at: now + self.timing.write_beat,
                    };
                }
                None
            }
            WriterState::WaitCompletion => {
                if mailbox.host_completion() {
                    self.state = WriterState::ReadResult {
                        done_at: now + self.timing.read,
                    };
                }
                None
            }
            WriterState::ReadResult { done_at } => {
                if now < done_at {
                    return None;
                }
                let verdict = mailbox.host_read_data(0);
                mailbox.host_clear_completion();
                let tagged = self.current.take().expect("read implies current");
                self.logs_written += 1;
                self.state = WriterState::Idle;
                if verdict != 0 {
                    return Some(TaggedViolation {
                        core: tagged.core,
                        log: tagged.log,
                        cycle: now,
                    });
                }
                None
            }
        }
    }
}

/// Per-core run report.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Why the core stopped.
    pub halt: Halt,
    /// Cycles (including CFI stalls).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// CFI-relevant instructions streamed.
    pub cf_streamed: u64,
}

/// Results of a dual-core run.
#[derive(Debug, Clone)]
pub struct DualReport {
    /// Per-core reports.
    pub cores: [CoreReport; CORES],
    /// Violations, attributed to cores.
    pub violations: Vec<TaggedViolation>,
    /// Total logs checked by the RoT.
    pub logs_checked: u64,
    /// The RoT firmware trap, if one occurred. When set, both live cores
    /// halt with [`Halt::FirmwareTrap`] (the shared checker is gone; the
    /// dual-core SoC fails closed).
    pub firmware_trap: Option<riscv_isa::Trap>,
}

/// The dual-core SoC.
#[derive(Debug)]
pub struct DualHostSoc {
    cores: [Cva6Core<HostBus>; CORES],
    filters: [CfiFilter; CORES],
    halted: [Option<Halt>; CORES],
    queue: VecDeque<TaggedLog>,
    queue_depth: usize,
    writer: TaggedWriter,
    rot: OpenTitan,
    bg_cycle: u64,
    /// Fast-engine carry-over: the RoT made an SoC access on the last tick
    /// the event-driven advance processed, and the writer has not yet run
    /// to observe a possible completion write. Forces one writer tick at
    /// the head of the next [`DualHostSoc::advance_background_fast`].
    bg_poke: bool,
    /// Cached mailbox doorbell level as of the last event-driven advance.
    /// Sound because the mailbox is PMP-protected (no host core can ring
    /// it), so the level only moves inside the advance loop itself — or in
    /// [`DualHostSoc::tick_once`], which marks the cache stale instead.
    bg_doorbell: bool,
    /// Forces a mailbox re-read at the next advance entry (set by the
    /// per-cycle tick path, whose writer/RoT activity bypasses the cache).
    bg_doorbell_stale: bool,
    violations: Vec<TaggedViolation>,
    firmware_trap: Option<riscv_isa::Trap>,
    /// Stepping engine; identical reports either way (pinned by
    /// `tests/decode_cache.rs` and the fuzz oracle).
    engine: Engine,
    /// When enabled, every tagged log pushed into the shared queue is also
    /// recorded here — purely observational, for differential stream
    /// comparison.
    log_tap: Option<Vec<TaggedLog>>,
}

impl DualHostSoc {
    /// Builds the SoC running `programs[i]` on core `i`, each with
    /// `mem_size` bytes of private RAM, a shared CFI queue of
    /// `queue_depth`, and the multi-core polling firmware in the RoT.
    ///
    /// # Panics
    ///
    /// Panics if a program does not fit its RAM or the firmware fails to
    /// boot.
    #[must_use]
    pub fn new(programs: [&Program; CORES], mem_size: usize, queue_depth: usize) -> DualHostSoc {
        let fw = build_multicore_firmware();
        let mut rot = OpenTitan::new(&fw, LatencyProfile::baseline());
        let poll_loop = fw.symbol("poll_loop").expect("poll_loop symbol");
        for _ in 0..1000 {
            let c = rot.core.step().expect("boot");
            if c.retired.pc == poll_loop {
                break;
            }
        }
        let cores = programs.map(|program| {
            assert!(
                program.bytes.len() <= mem_size,
                "program larger than memory"
            );
            let mut bus = HostBus::new(program.base, mem_size);
            bus.load(program.base, &program.bytes);
            bus.map_mailbox(rot.mailbox.clone());
            bus.protect_mailbox();
            let mut core = Cva6Core::with_bus(bus, program.entry, TimingConfig::default());
            core.hart_mut().set_reg(
                riscv_isa::Reg::SP,
                (program.base + mem_size as u64 - 16) & !0xf,
            );
            core
        });
        DualHostSoc {
            cores,
            filters: [CfiFilter::new(), CfiFilter::new()],
            halted: [None, None],
            queue: VecDeque::new(),
            queue_depth,
            writer: TaggedWriter::new(AxiTiming::default()),
            rot,
            bg_cycle: 0,
            bg_poke: false,
            bg_doorbell: false,
            bg_doorbell_stale: true,
            violations: Vec::new(),
            firmware_trap: None,
            engine: Engine::Fast,
            log_tap: None,
        }
    }

    /// Selects the stepping engine (the default is [`Engine::Fast`]). Both
    /// produce identical reports.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
        let predecode = engine == Engine::Fast;
        for core in &mut self.cores {
            core.set_predecode(predecode);
        }
        self.rot.core.set_predecode(predecode);
    }

    /// Starts capturing every tagged log pushed into the shared CFI queue.
    /// Purely observational — no timing effect.
    pub fn enable_log_tap(&mut self) {
        self.log_tap = Some(Vec::new());
    }

    /// Detaches and returns the captured tagged-log stream, if a tap was
    /// enabled.
    pub fn take_log_tap(&mut self) -> Option<Vec<TaggedLog>> {
        self.log_tap.take()
    }

    /// The live core that is furthest behind (ties go to the lower index) —
    /// the one the interleaving scheduler steps next.
    fn next_core(&self) -> Option<usize> {
        (0..CORES)
            .filter(|&i| self.halted[i].is_none())
            .min_by_key(|&i| self.cores[i].cycle())
    }

    fn tick_once(&mut self) {
        // This path moves writer/mailbox state without the event-driven
        // advance's bookkeeping: its cached doorbell must be re-read.
        self.bg_doorbell_stale = true;
        if let Some(v) = self
            .writer
            .tick(self.bg_cycle, &mut self.queue, &self.rot.mailbox)
        {
            self.violations.push(v);
        }
        self.rot.sync_irq();
        let runnable = self.firmware_trap.is_none()
            && (self.rot.core.state() == ibex_model::IbexState::Running
                || self.rot.mailbox.doorbell_pending());
        if runnable && self.rot.core.cycle() <= self.bg_cycle {
            if let Err(ibex_model::IbexEvent::Trapped(t)) = self.rot.core.step() {
                // The shared checker died: record it structurally, free the
                // mailbox so nothing spins, and let `run` fail both cores
                // closed instead of panicking the process.
                self.firmware_trap = Some(t);
                self.rot.mailbox.host_abort();
            }
        }
        self.bg_cycle += 1;
    }

    fn advance_background(&mut self, until: u64) {
        while self.bg_cycle < until {
            if self.queue.is_empty() && !self.writer.busy() && !self.rot.mailbox.doorbell_pending()
            {
                self.bg_cycle = until;
                self.rot.core.advance_to(until);
                return;
            }
            self.tick_once();
        }
    }

    /// Event-driven form of [`DualHostSoc::advance_background`], used by
    /// the fast engine: per-tick semantics identical to
    /// [`DualHostSoc::tick_once`] (writer, then the IRQ fabric, then at
    /// most one RoT instruction), with provably inert ticks jumped over.
    /// With `until_queue_space` the advance instead runs until the shared
    /// queue has a free slot or the checker dies (the queue-full commit
    /// stall), and `until` is ignored.
    fn advance_background_fast(&mut self, until: u64, until_queue_space: bool) {
        if until_queue_space {
            if self.queue.len() < self.queue_depth || self.firmware_trap.is_some() {
                return;
            }
        } else if self.bg_cycle >= until {
            return;
        }
        // The doorbell level is cached across skipped ticks *and* across
        // advance calls — one mailbox lock per transition instead of per
        // tick. It only moves when the writer rings it, the RoT completes
        // a check, or a trap tears the exchange down (all three sites
        // refresh it below), or in the per-cycle tick path, which marks
        // the cache stale.
        let mut doorbell = if self.bg_doorbell_stale {
            self.bg_doorbell_stale = false;
            let db = self.rot.mailbox.doorbell_pending();
            self.rot.sync_irq_level(db);
            db
        } else {
            self.bg_doorbell
        };
        // A completion the RoT wrote at the tail of the previous advance
        // may not have been observed yet: force one writer tick before
        // trusting the event schedule. Carried across calls so the common
        // caught-up advance pays no forced tick.
        let mut poke = std::mem::take(&mut self.bg_poke);
        loop {
            let done = if until_queue_space {
                self.queue.len() < self.queue_depth || self.firmware_trap.is_some()
            } else {
                self.bg_cycle >= until
            };
            if done {
                self.bg_poke = poke;
                self.bg_doorbell = doorbell;
                return;
            }
            // True idleness: nothing moves until a host acts again. A
            // pending poke tick would be a no-op here (idle writer, empty
            // queue), so it is dropped rather than carried.
            if self.queue.is_empty() && !self.writer.busy() && !doorbell {
                self.bg_doorbell = doorbell;
                self.bg_cycle = self.bg_cycle.max(until);
                self.rot.core.advance_to(self.bg_cycle);
                return;
            }
            let writer_next = self
                .writer
                .next_event(self.bg_cycle, !self.queue.is_empty())
                .map(|e| e.max(self.bg_cycle));
            let rot_runnable = self.firmware_trap.is_none()
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell);
            let rot_next = if rot_runnable {
                Some(self.rot.core.cycle().max(self.bg_cycle))
            } else {
                None
            };
            let mut next = if until_queue_space {
                // Jump to the earliest due event; creep one tick when
                // nothing is scheduled, matching the per-cycle loop's
                // (non-)progress on a wedged transport.
                match (writer_next, rot_next) {
                    (Some(w), Some(r)) => w.min(r),
                    (Some(e), None) | (None, Some(e)) => e,
                    (None, None) => self.bg_cycle + 1,
                }
            } else {
                until
            };
            if poke {
                next = self.bg_cycle;
            }
            if let Some(w) = writer_next {
                next = next.min(w);
            }
            if let Some(r) = rot_next {
                next = next.min(r);
            }
            if next > self.bg_cycle {
                // Jumped-over ticks are no-ops by construction: the writer
                // has no event due and the RoT has no instruction retiring.
                self.bg_cycle = next;
                continue;
            }
            // ---- simulate the tick at `self.bg_cycle` ----
            let writer_due = poke || writer_next == Some(self.bg_cycle);
            poke = false;
            if writer_due {
                if let Some(v) = self
                    .writer
                    .tick(self.bg_cycle, &mut self.queue, &self.rot.mailbox)
                {
                    self.violations.push(v);
                }
                let db = self.rot.mailbox.doorbell_pending();
                if db != doorbell {
                    doorbell = db;
                    self.rot.sync_irq_level(doorbell);
                }
            }
            let rot_steps = self.firmware_trap.is_none()
                && (self.rot.core.state() == ibex_model::IbexState::Running || doorbell)
                && self.rot.core.cycle() <= self.bg_cycle;
            if rot_steps {
                match self.rot.core.step() {
                    Ok(commit) => {
                        if commit.mem_kind == Some(ibex_model::RegionKind::Soc) {
                            // The RoT may have written its completion word
                            // (auto-clearing the doorbell); the writer must
                            // observe it on the next tick, as it would when
                            // ticked every cycle.
                            poke = true;
                            let db = self.rot.mailbox.doorbell_pending();
                            if db != doorbell {
                                doorbell = db;
                                self.rot.sync_irq_level(doorbell);
                            }
                        }
                    }
                    Err(ibex_model::IbexEvent::Trapped(t)) => {
                        self.firmware_trap = Some(t);
                        self.rot.mailbox.host_abort();
                        doorbell = self.rot.mailbox.doorbell_pending();
                        self.rot.sync_irq_level(doorbell);
                    }
                    Err(_) => {}
                }
            }
            self.bg_cycle += 1;
        }
    }

    /// One superblock on core `i`, with the skipped straight-line
    /// retirements accounted to the core's filter.
    fn host_block(&mut self, i: usize, max_cycles: u64) -> Result<cva6_model::Commit, Halt> {
        // Superblocks end where the interleaving scheduler would switch
        // cores: core 0 once it passes core 1 (ties keep core 0), core 1
        // once it catches core 0 — the same boundary the batch's
        // `next_core` check enforces.
        let sibling = 1 - i;
        let until = if self.halted[sibling].is_none() {
            let s = self.cores[sibling].cycle();
            max_cycles.min(if i == 0 { s + 1 } else { s })
        } else {
            max_cycles
        };
        // In near-lockstep the bound admits a single commit (every op costs
        // at least one cycle): identical to a plain step, minus the block
        // lookup.
        if until <= self.cores[i].cycle() + 1 {
            return self.cores[i].step();
        }
        let bs = self.cores[i].step_block(until);
        if bs.straightline > 0 {
            self.filters[i].note_straightline(bs.straightline);
            if bs.result.is_err() {
                // The failing op retired nothing, but the straight-line ops
                // before it did: bring the background up to the last
                // retirement, exactly where per-op stepping would have left
                // it at the halt.
                self.advance_background_fast(self.cores[i].cycle(), false);
            }
        }
        bs.result
    }

    /// One fast-engine batch on core `i`: superblocks while the scheduler
    /// would keep picking core `i` and its commits stay straight-line, then
    /// a single event-driven background catch-up to the last commit.
    /// Superblocks end at every shared-state interaction (CF commits,
    /// device-window accesses, the sibling's scheduling boundary), so
    /// deferring the catch-up to the batch boundary composes to the same
    /// state as advancing after every commit.
    fn run_batch(&mut self, i: usize, max_cycles: u64) -> Result<cva6_model::Commit, Halt> {
        let mut commit = self.host_block(i, max_cycles)?;
        while !(commit.cf_class.is_cfi_relevant()
            || self.cores[i].bus_mut().take_io_access()
            || self.cores[i].cycle() >= max_cycles
            || self.next_core() != Some(i))
        {
            self.filters[i].note_straightline(1);
            match self.host_block(i, max_cycles) {
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

    /// Runs both programs to completion (or `max_cycles` each).
    #[must_use]
    pub fn run(&mut self, max_cycles: u64) -> DualReport {
        let fast = self.engine == Engine::Fast;
        loop {
            // A dead shared checker fails both live cores closed: nothing
            // can check their control flow any more.
            if let Some(t) = self.firmware_trap {
                for h in &mut self.halted {
                    if h.is_none() {
                        *h = Some(Halt::FirmwareTrap(t));
                    }
                }
            }
            // Pick the live core that is furthest behind — lock-step-ish
            // interleaving by local cycle count.
            let Some(i) = self.next_core() else { break };
            if self.cores[i].cycle() >= max_cycles {
                self.halted[i] = Some(Halt::Budget);
                continue;
            }
            let stepped = if fast {
                self.run_batch(i, max_cycles)
            } else {
                let stepped = self.cores[i].step();
                if let Ok(c) = &stepped {
                    self.advance_background(c.cycle);
                }
                stepped
            };
            match stepped {
                Ok(commit) => {
                    if let Some(log) =
                        self.filters[i].scan_classified(&commit.retired, commit.cf_class)
                    {
                        if fast {
                            let before = self.bg_cycle;
                            self.advance_background_fast(0, true);
                            self.cores[i].stall(self.bg_cycle - before);
                        } else {
                            while self.queue.len() >= self.queue_depth
                                && self.firmware_trap.is_none()
                            {
                                let before = self.bg_cycle;
                                self.tick_once();
                                self.cores[i].stall(self.bg_cycle - before);
                            }
                        }
                        if self.queue.len() < self.queue_depth {
                            let tagged = TaggedLog { core: i as u8, log };
                            if let Some(tap) = self.log_tap.as_mut() {
                                tap.push(tagged);
                            }
                            self.queue.push_back(tagged);
                        }
                    }
                }
                Err(halt) => self.halted[i] = Some(halt),
            }
        }
        // Drain in-flight checks (pointless once the checker is dead).
        let mut guard = 0u64;
        while self.firmware_trap.is_none()
            && (!self.queue.is_empty() || self.writer.busy() || self.rot.mailbox.doorbell_pending())
            && guard < 10_000_000
        {
            self.tick_once();
            guard += 1;
        }
        DualReport {
            cores: [0, 1].map(|i| CoreReport {
                halt: self.halted[i].expect("loop exits only when halted"),
                cycles: self.cores[i].cycle(),
                instret: self.cores[i].stats().instret,
                cf_streamed: self.filters[i].stats().emitted,
            }),
            violations: self.violations.clone(),
            logs_checked: self.writer.logs_written,
            firmware_trap: self.firmware_trap,
        }
    }

    /// Register read-back on core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= CORES`.
    #[must_use]
    pub fn host_reg(&self, i: usize, r: riscv_isa::Reg) -> u64 {
        self.cores[i].reg(r)
    }
}
