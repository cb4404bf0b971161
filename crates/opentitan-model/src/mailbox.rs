//! The CFI Mailbox: the SCMI-style shared-register block between the CVA6
//! host domain and the OpenTitan RoT.
//!
//! Paper §IV-A: the mailbox holds general-purpose registers wide enough for
//! one 224-bit commit log, a **doorbell** register that interrupts the RoT
//! when the host's CFI Log Writer finishes a transfer, and a **completion**
//! register that — unlike a stock SCMI mailbox — is wired straight back to
//! the CVA6 commit stage rather than to the host interrupt controller. The
//! CFI check verdict is returned in data word 0. A read-only **source**
//! register latches the AXI source id of the last accepted ring — the hart
//! whose commit log is pending — so firmware serving several host harts
//! can bank its policy state per hart.
//!
//! One register file, one owner: the RoT bus region that maps it. The RoT
//! reaches it as a [`Device`]; the host-side Log Writer (its one host
//! master) borrows it through [`crate::OpenTitan::mailbox_mut`] and uses the
//! `host_*` methods, modelling its AXI master port.

use ibex_model::Device;
use riscv_isa::MemWidth;
use titancfi_obs::{Probe, Track};

/// Number of 32-bit data registers (256 bits ≥ one 224-bit commit log).
pub const DATA_WORDS: usize = 8;

/// Register map offsets (byte offsets from the mailbox base).
pub mod regs {
    /// First data word; words continue every 4 bytes.
    pub const DATA0: u64 = 0x00;
    /// Doorbell: host writes 1, RoT reads/clears.
    pub const DOORBELL: u64 = 0x20;
    /// Completion: RoT writes 1, host reads/clears.
    pub const COMPLETION: u64 = 0x24;
    /// Source (read-only): the AXI source id (host hart) of the last
    /// accepted doorbell ring.
    pub const SOURCE: u64 = 0x28;
}

/// Byte offset one past the last data word.
const DATA_END: u64 = 4 * DATA_WORDS as u64;

/// The mailbox register file and its evaluation counters.
#[derive(Debug, Default)]
pub struct CfiMailbox {
    data: [u32; DATA_WORDS],
    doorbell: bool,
    completion: bool,
    /// AXI source id latched by the last accepted verified ring.
    source: u8,
    /// Counters for the evaluation harness.
    doorbells_rung: u64,
    completions_signalled: u64,
    /// When set, doorbell rings carry a sequence number and the hardware
    /// verifies the word-7 integrity word before accepting the ring.
    integrity: bool,
    /// Last sequence number accepted on a verified ring.
    last_seq: Option<u16>,
    /// Rings rejected because the integrity word did not match the data.
    integrity_rejects: u64,
    /// Verified rings that re-presented the last accepted sequence number
    /// (a retry of a log the RoT may already have consumed).
    seq_duplicates: u64,
    /// Verified rings that skipped ahead (a log was lost in transit).
    seq_gaps: u64,
    /// Host-side aborts (escalation tore down an in-flight transaction).
    aborts: u64,
}

impl CfiMailbox {
    /// A fresh mailbox with cleared registers.
    #[must_use]
    pub fn new() -> CfiMailbox {
        CfiMailbox::default()
    }

    // ---- host (CVA6 / Log Writer) side ----

    /// Host AXI write of one 32-bit data word.
    ///
    /// # Panics
    ///
    /// Panics if `index >= DATA_WORDS`.
    pub fn host_write_data(&mut self, index: usize, value: u32) {
        self.data[index] = value;
    }

    /// Host AXI read of one data word (used to fetch the verdict).
    ///
    /// # Panics
    ///
    /// Panics if `index >= DATA_WORDS`.
    #[must_use]
    pub fn host_read_data(&self, index: usize) -> u32 {
        self.data[index]
    }

    /// Host sets the doorbell, interrupting the RoT.
    pub fn host_ring_doorbell(&mut self) {
        self.doorbell = true;
        self.doorbells_rung += 1;
    }

    // ---- transport integrity (spare word 7) ----

    /// Turns on ring-time integrity verification: the host's Log Writer
    /// stores [`CfiMailbox::integrity_word`] in spare data word 7 and rings
    /// via [`CfiMailbox::host_ring_doorbell_verified_probed`]; the mailbox
    /// hardware checks the word before asserting the RoT interrupt. Verdict
    /// timing is unchanged — the check rides on the ring transaction.
    pub fn enable_integrity(&mut self) {
        self.integrity = true;
    }

    /// The word-7 encoding: sequence number in the high half, an XOR-fold
    /// checksum of the seven log words (mixed with the sequence number) in
    /// the low half. Any single-bit flip in words 0–6 or in word 7 itself
    /// changes exactly one side of the comparison, so all single-bit upsets
    /// are detected.
    #[must_use]
    pub fn integrity_word(seq: u16, words: &[u32; DATA_WORDS - 1]) -> u32 {
        (u32::from(seq) << 16) | u32::from(Self::checksum(words, seq))
    }

    fn checksum(words: &[u32; DATA_WORDS - 1], seq: u16) -> u16 {
        let mut acc = u32::from(seq).wrapping_mul(0x9e37);
        for w in words {
            acc ^= *w;
        }
        ((acc >> 16) ^ (acc & 0xffff)) as u16
    }

    /// Rings the doorbell on behalf of AXI source `source` (the host hart)
    /// after verifying data integrity (when enabled); an accepted ring
    /// latches `source` into [`regs::SOURCE`].
    ///
    /// Returns `false` without ringing — and leaves the source register as
    /// it was — if the stored word 7 does not match the presented `seq` and
    /// the current data words; the caller must rewrite the log and retry.
    /// Duplicate and out-of-order sequence numbers are accepted (retries
    /// are legitimate) but counted so the harness can flag lost or replayed
    /// logs. With integrity disabled the ring is accepted unchecked.
    pub fn host_ring_doorbell_verified_probed(
        &mut self,
        seq: u16,
        source: u8,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> bool {
        if self.integrity {
            let stored = self.data[DATA_WORDS - 1];
            let payload: [u32; DATA_WORDS - 1] = self.data[..DATA_WORDS - 1]
                .try_into()
                .expect("seven payload words");
            if stored != Self::integrity_word(seq, &payload) {
                self.integrity_rejects += 1;
                return false;
            }
            match self.last_seq {
                Some(last) if last == seq => self.seq_duplicates += 1,
                Some(last) if last.wrapping_add(1) != seq => self.seq_gaps += 1,
                _ => {}
            }
            self.last_seq = Some(seq);
        }
        self.source = source;
        self.doorbell = true;
        self.doorbells_rung += 1;
        if probe.enabled() {
            probe.counter_add("mailbox.doorbells", 1);
            probe.instant(Track::Mailbox, "doorbell", cycle);
            probe.span_begin(Track::Mailbox, "check-pending", cycle);
        }
        true
    }

    /// Host tears down an in-flight transaction: clears the doorbell and
    /// any completion so a wedged or retried exchange cannot leave the
    /// interface stuck. Used by the Log Writer's escalation path.
    pub fn host_abort(&mut self) {
        self.doorbell = false;
        self.completion = false;
        self.aborts += 1;
    }

    /// Host polls the completion flag.
    #[must_use]
    pub fn host_completion(&self) -> bool {
        self.completion
    }

    /// Like [`CfiMailbox::host_completion`], closing the `check-pending`
    /// span when completion is first observed.
    pub fn host_completion_probed(&self, cycle: u64, probe: &mut dyn Probe) -> bool {
        let completion = self.host_completion();
        if completion && probe.enabled() {
            probe.counter_add("mailbox.completions", 1);
            probe.instant(Track::Mailbox, "completion", cycle);
            probe.span_end(Track::Mailbox, cycle);
        }
        completion
    }

    /// Host acknowledges (clears) completion.
    pub fn host_clear_completion(&mut self) {
        self.completion = false;
    }

    // ---- observers ----

    /// Whether the doorbell is currently set (drives the RoT IRQ line).
    #[must_use]
    pub fn doorbell_pending(&self) -> bool {
        self.doorbell
    }

    /// Total doorbells rung (one per streamed commit log).
    #[must_use]
    pub fn doorbells_rung(&self) -> u64 {
        self.doorbells_rung
    }

    /// Total completions signalled by the RoT.
    #[must_use]
    pub fn completions_signalled(&self) -> u64 {
        self.completions_signalled
    }

    /// Rings rejected by the integrity check.
    #[must_use]
    pub fn integrity_rejects(&self) -> u64 {
        self.integrity_rejects
    }

    /// Verified rings that re-presented the previous sequence number.
    #[must_use]
    pub fn seq_duplicates(&self) -> u64 {
        self.seq_duplicates
    }

    /// Verified rings whose sequence number skipped ahead.
    #[must_use]
    pub fn seq_gaps(&self) -> u64 {
        self.seq_gaps
    }

    /// Host-side transaction aborts.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// The latched [`regs::SOURCE`] value.
    #[must_use]
    pub fn source(&self) -> u8 {
        self.source
    }

    /// Byte-wise register-file read. The flag bit lives in the low byte of
    /// its register; the other bytes read as zero (reserved).
    fn byte_at(&self, addr: u64) -> u8 {
        match addr {
            o if o < DATA_END => (self.data[(o / 4) as usize] >> (8 * (o % 4))) as u8,
            regs::DOORBELL => u8::from(self.doorbell),
            regs::COMPLETION => u8::from(self.completion),
            regs::SOURCE => self.source,
            _ => 0,
        }
    }
}

/// The RoT-side view of the register file.
impl Device for CfiMailbox {
    fn read(&mut self, offset: u64, width: MemWidth) -> u64 {
        let mut value = 0u64;
        for i in 0..width.bytes() {
            value |= u64::from(self.byte_at(offset + i)) << (8 * i);
        }
        value
    }

    fn write(&mut self, offset: u64, width: MemWidth, value: u64) {
        for i in 0..width.bytes() {
            let addr = offset + i;
            let byte = (value >> (8 * i)) as u8;
            match addr {
                o if o < DATA_END => {
                    // Sub-word stores merge into the 32-bit data word.
                    let word = (o / 4) as usize;
                    let shift = 8 * (o % 4);
                    self.data[word] =
                        (self.data[word] & !(0xff << shift)) | (u32::from(byte) << shift);
                }
                regs::DOORBELL => {
                    if byte & 1 != 0 {
                        // RoT-side ring (self-notification) counts like a
                        // host ring so `doorbells_rung` stays in sync with
                        // every doorbell edge the firmware can observe.
                        if !self.doorbell {
                            self.doorbells_rung += 1;
                        }
                        self.doorbell = true;
                    } else {
                        // RoT writes 0 to clear the pending doorbell.
                        self.doorbell = false;
                    }
                }
                regs::COMPLETION => {
                    if byte & 1 != 0 {
                        self.completion = true;
                        self.completions_signalled += 1;
                        // Completion implies the log was consumed: the
                        // hardware clears the doorbell so the firmware does
                        // not pay an extra SoC write for it.
                        self.doorbell = false;
                    } else {
                        self.completion = false;
                    }
                }
                // Reserved bytes (including the upper bytes of the flag
                // registers) and the read-only source register ignore
                // writes.
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_to_rot_data_path() {
        let mut mb = CfiMailbox::new();
        mb.host_write_data(0, 0xdead_beef);
        mb.host_write_data(6, 0x1234);
        assert_eq!(mb.read(0x00, MemWidth::W), 0xdead_beef);
        assert_eq!(mb.read(0x18, MemWidth::W), 0x1234);
    }

    #[test]
    fn doorbell_protocol() {
        let mut mb = CfiMailbox::new();
        assert!(!mb.doorbell_pending());
        mb.host_ring_doorbell();
        assert!(mb.doorbell_pending());
        assert_eq!(mb.read(regs::DOORBELL, MemWidth::W), 1);
        // RoT clears it.
        mb.write(regs::DOORBELL, MemWidth::W, 0);
        assert!(!mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
    }

    #[test]
    fn completion_protocol_with_verdict() {
        let mut mb = CfiMailbox::new();
        // RoT writes the verdict into data0 and signals completion.
        mb.write(regs::DATA0, MemWidth::W, 1); // violation!
        mb.write(regs::COMPLETION, MemWidth::W, 1);
        assert!(mb.host_completion());
        assert_eq!(mb.host_read_data(0), 1);
        mb.host_clear_completion();
        assert!(!mb.host_completion());
        assert_eq!(mb.completions_signalled(), 1);
    }

    #[test]
    fn sub_word_store_merges_into_data_word() {
        let mut mb = CfiMailbox::new();
        mb.host_write_data(0, 0xaabb_ccdd);
        mb.write(0x01, MemWidth::B, 0xee);
        assert_eq!(mb.host_read_data(0), 0xaabb_eedd);
        mb.write(0x02, MemWidth::H, 0x1122);
        assert_eq!(mb.host_read_data(0), 0x1122_eedd);
    }

    #[test]
    fn sub_word_loads_extract_bytes() {
        let mut mb = CfiMailbox::new();
        mb.host_write_data(1, 0x8899_aabb);
        assert_eq!(mb.read(0x04, MemWidth::B), 0xbb);
        assert_eq!(mb.read(0x05, MemWidth::B), 0xaa);
        assert_eq!(mb.read(0x06, MemWidth::H), 0x8899);
    }

    #[test]
    fn double_width_access_spans_two_words() {
        let mut mb = CfiMailbox::new();
        mb.write(0x08, MemWidth::D, 0x1111_2222_3333_4444);
        assert_eq!(mb.host_read_data(2), 0x3333_4444);
        assert_eq!(mb.host_read_data(3), 0x1111_2222);
        assert_eq!(mb.read(0x08, MemWidth::D), 0x1111_2222_3333_4444);
    }

    #[test]
    fn wide_flag_write_does_not_leak_into_neighbours() {
        let mut mb = CfiMailbox::new();
        // A word-wide completion write must only consume the flag bit; the
        // reserved upper bytes are ignored, not treated as extra registers.
        mb.write(regs::COMPLETION, MemWidth::W, 0xffff_ff01);
        assert!(mb.host_completion());
        assert_eq!(mb.read(regs::COMPLETION, MemWidth::W), 1);
    }

    #[test]
    fn device_side_doorbell_set_counts() {
        let mut mb = CfiMailbox::new();
        mb.write(regs::DOORBELL, MemWidth::W, 1);
        assert!(mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
        // Re-asserting an already-pending doorbell is not a new ring.
        mb.write(regs::DOORBELL, MemWidth::W, 1);
        assert_eq!(mb.doorbells_rung(), 1);
        mb.write(regs::DOORBELL, MemWidth::W, 0);
        assert!(!mb.doorbell_pending());
        assert_eq!(mb.doorbells_rung(), 1);
    }

    fn payload() -> [u32; DATA_WORDS - 1] {
        [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77]
    }

    fn write_log(mb: &mut CfiMailbox, seq: u16) {
        for (i, w) in payload().iter().enumerate() {
            mb.host_write_data(i, *w);
        }
        mb.host_write_data(DATA_WORDS - 1, CfiMailbox::integrity_word(seq, &payload()));
    }

    #[test]
    fn verified_ring_accepts_clean_log() {
        let mut mb = CfiMailbox::new();
        mb.enable_integrity();
        write_log(&mut mb, 1);
        let mut probe = titancfi_obs::NoProbe;
        assert!(mb.host_ring_doorbell_verified_probed(1, 0, 0, &mut probe));
        assert!(mb.doorbell_pending());
        assert_eq!(mb.integrity_rejects(), 0);
        assert_eq!(mb.seq_duplicates(), 0);
        assert_eq!(mb.seq_gaps(), 0);
    }

    #[test]
    fn verified_ring_rejects_any_single_bit_flip() {
        for word in 0..DATA_WORDS {
            for bit in [0u32, 7, 15, 16, 31] {
                let mut mb = CfiMailbox::new();
                mb.enable_integrity();
                write_log(&mut mb, 1);
                mb.host_write_data(word, mb.host_read_data(word) ^ (1 << bit));
                let mut probe = titancfi_obs::NoProbe;
                assert!(
                    !mb.host_ring_doorbell_verified_probed(1, 0, 0, &mut probe),
                    "flip in word {word} bit {bit} must be rejected"
                );
                assert!(!mb.doorbell_pending());
                assert_eq!(mb.integrity_rejects(), 1);
            }
        }
    }

    #[test]
    fn verified_ring_tracks_duplicates_and_gaps() {
        let mut mb = CfiMailbox::new();
        mb.enable_integrity();
        let mut probe = titancfi_obs::NoProbe;
        write_log(&mut mb, 1);
        assert!(mb.host_ring_doorbell_verified_probed(1, 0, 0, &mut probe));
        // Retry of the same sequence number: accepted, counted.
        assert!(mb.host_ring_doorbell_verified_probed(1, 0, 10, &mut probe));
        assert_eq!(mb.seq_duplicates(), 1);
        // Sequence 3 after 1: a log was lost.
        write_log(&mut mb, 3);
        assert!(mb.host_ring_doorbell_verified_probed(3, 0, 20, &mut probe));
        assert_eq!(mb.seq_gaps(), 1);
    }

    #[test]
    fn unverified_ring_when_integrity_disabled() {
        let mut mb = CfiMailbox::new();
        let mut probe = titancfi_obs::NoProbe;
        // Garbage in word 7 and a mismatched seq must still be accepted.
        mb.host_write_data(DATA_WORDS - 1, 0xdead_beef);
        assert!(mb.host_ring_doorbell_verified_probed(0x55, 0, 0, &mut probe));
        assert!(mb.doorbell_pending());
    }

    #[test]
    fn verified_ring_latches_source() {
        let mut mb = CfiMailbox::new();
        mb.enable_integrity();
        write_log(&mut mb, 1);
        let mut probe = titancfi_obs::NoProbe;
        assert!(mb.host_ring_doorbell_verified_probed(1, 1, 0, &mut probe));
        assert_eq!(mb.source(), 1);
        assert_eq!(mb.read(regs::SOURCE, MemWidth::W), 1);
        // Read-only: a RoT-side write does not move it.
        mb.write(regs::SOURCE, MemWidth::W, 0);
        assert_eq!(mb.read(regs::SOURCE, MemWidth::W), 1);
    }

    #[test]
    fn rejected_ring_leaves_source_unchanged() {
        let mut mb = CfiMailbox::new();
        mb.enable_integrity();
        let mut probe = titancfi_obs::NoProbe;
        write_log(&mut mb, 1);
        assert!(mb.host_ring_doorbell_verified_probed(1, 1, 0, &mut probe));
        // A corrupted log from hart 0: rejected, source still hart 1.
        write_log(&mut mb, 2);
        mb.host_write_data(0, mb.host_read_data(0) ^ 1);
        assert!(!mb.host_ring_doorbell_verified_probed(2, 0, 10, &mut probe));
        assert_eq!(mb.integrity_rejects(), 1);
        assert_eq!(mb.source(), 1);
    }

    #[test]
    fn interleaved_harts_share_one_sequence() {
        // Two harts' logs through the one Log Writer: one sequence counter
        // across both, so interleaving is neither a gap nor a duplicate,
        // and each ring latches its own hart.
        let mut mb = CfiMailbox::new();
        mb.enable_integrity();
        let mut probe = titancfi_obs::NoProbe;
        for (seq, hart) in [(1u16, 0u8), (2, 1), (3, 1), (4, 0), (5, 1)] {
            write_log(&mut mb, seq);
            assert!(mb.host_ring_doorbell_verified_probed(seq, hart, 0, &mut probe));
            assert_eq!(mb.source(), hart);
        }
        assert_eq!(mb.integrity_rejects(), 0);
        assert_eq!(mb.seq_gaps(), 0);
        assert_eq!(mb.seq_duplicates(), 0);
    }

    #[test]
    fn abort_tears_down_inflight_transaction() {
        let mut mb = CfiMailbox::new();
        mb.host_ring_doorbell();
        mb.write(regs::COMPLETION, MemWidth::W, 1);
        mb.host_abort();
        assert!(!mb.doorbell_pending());
        assert!(!mb.host_completion());
        assert_eq!(mb.aborts(), 1);
    }
}
