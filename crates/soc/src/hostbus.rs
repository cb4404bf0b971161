//! The host-domain bus: RAM plus the memory-mapped CFI mailbox, guarded by
//! PMP.
//!
//! Paper §VI: *"We assume the CFI Mailbox cannot be tampered by other
//! entities in the SoC. This is reasonable since other security IPs, such
//! as RISC-V Physical Memory Protection (PMP), can be programmed to inhibit
//! accesses to one or more memory regions so that issuing loads or stores
//! to any address within the protected range results in an access fault
//! exception."* This module implements exactly that: the mailbox *is*
//! host-addressable (it sits on the AXI crossbar), and a locked PMP entry
//! makes any software access to it fault — only the hardware Log Writer
//! (which bypasses the core's PMP, as a bus master of its own) can reach
//! it.

use opentitan_model::{CfiMailbox, ScmiWire};
use riscv_isa::pmp::{AccessKind, Pmp, PmpEntry};
use riscv_isa::{Bus, FlatMemory, MemFault, MemWidth};

/// Host physical address of the CFI mailbox window.
pub const MAILBOX_BASE: u64 = 0xc000_0000;
/// Size of the window (power of two for a NAPOT PMP entry).
pub const MAILBOX_SIZE: u64 = 0x100;
/// Host physical address of the general SCMI system mailbox — *not* PMP
/// protected: it is the host's legitimate channel to the RoT services
/// (version, attestation).
pub const SCMI_BASE: u64 = 0xc100_0000;
/// SCMI window size.
pub const SCMI_SIZE: u64 = opentitan_model::scmi_wire::WINDOW;

/// The host bus: program RAM, the mailbox window, and the PMP unit.
#[derive(Debug)]
pub struct HostBus {
    ram: FlatMemory,
    mailbox: Option<CfiMailbox>,
    scmi: Option<ScmiWire>,
    pmp: Pmp,
    /// Accesses blocked by PMP (tamper attempts).
    pub pmp_denials: u64,
    /// Sticky flag: the host touched a device window (mailbox/SCMI) or was
    /// denied by PMP since the last [`HostBus::take_io_access`]. The fast
    /// engine ends a batch on it so device-visible timing matches the
    /// reference engine.
    io_access: bool,
}

impl HostBus {
    /// A bus with `mem_size` bytes of RAM at `base`, no mailbox mapping,
    /// and empty PMP.
    #[must_use]
    pub fn new(base: u64, mem_size: usize) -> HostBus {
        HostBus {
            ram: FlatMemory::new(base, mem_size),
            mailbox: None,
            scmi: None,
            pmp: Pmp::new(),
            pmp_denials: 0,
            io_access: false,
        }
    }

    /// Takes (and clears) the device-window access flag.
    #[inline]
    pub fn take_io_access(&mut self) -> bool {
        std::mem::take(&mut self.io_access)
    }

    /// Maps the CFI mailbox at [`MAILBOX_BASE`] (host-visible, as on the
    /// real crossbar).
    pub fn map_mailbox(&mut self, mailbox: CfiMailbox) {
        self.mailbox = Some(mailbox);
    }

    /// Maps the general SCMI system mailbox at [`SCMI_BASE`].
    pub fn map_scmi(&mut self, scmi: ScmiWire) {
        self.scmi = Some(scmi);
    }

    /// Programs the locked PMP entry that inhibits all software access to
    /// the mailbox window — the configuration the paper assumes.
    pub fn protect_mailbox(&mut self) {
        self.pmp.add(PmpEntry::napot(
            MAILBOX_BASE,
            MAILBOX_SIZE,
            false,
            false,
            false,
        ));
    }

    /// Loads bytes into RAM (program loading).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn load(&mut self, addr: u64, bytes: &[u8]) {
        self.ram.load(addr, bytes);
    }

    /// RAM base address.
    #[must_use]
    pub fn ram_base(&self) -> u64 {
        self.ram.base()
    }

    /// RAM size.
    #[must_use]
    pub fn ram_size(&self) -> usize {
        self.ram.size()
    }

    fn in_mailbox(&self, addr: u64, len: u64) -> bool {
        self.mailbox.is_some() && addr >= MAILBOX_BASE && addr + len <= MAILBOX_BASE + MAILBOX_SIZE
    }

    fn in_scmi(&self, addr: u64, len: u64) -> bool {
        self.scmi.is_some() && addr >= SCMI_BASE && addr + len <= SCMI_BASE + SCMI_SIZE
    }
}

impl Bus for HostBus {
    fn io_peek(&self) -> bool {
        self.io_access
    }

    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        if !self.pmp.check(addr, AccessKind::Read) {
            self.pmp_denials += 1;
            self.io_access = true;
            return Err(MemFault { addr, store: false });
        }
        if self.in_mailbox(addr, width.bytes()) {
            self.io_access = true;
            let mailbox = self.mailbox.as_ref().expect("in_mailbox implies Some");
            let off = addr - MAILBOX_BASE;
            let v = match off {
                o if o < 0x20 => u64::from(mailbox.host_read_data((o / 4) as usize)),
                0x24 => u64::from(mailbox.host_completion()),
                _ => 0,
            };
            return Ok(v);
        }
        if self.in_scmi(addr, width.bytes()) {
            self.io_access = true;
            let scmi = self.scmi.as_ref().expect("in_scmi implies Some");
            return Ok(scmi.host_read(addr - SCMI_BASE, width.bytes()));
        }
        self.ram.read(addr, width)
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        if !self.pmp.check(addr, AccessKind::Write) {
            self.pmp_denials += 1;
            self.io_access = true;
            return Err(MemFault { addr, store: true });
        }
        if self.in_mailbox(addr, width.bytes()) {
            self.io_access = true;
            let mailbox = self.mailbox.as_ref().expect("in_mailbox implies Some");
            let off = addr - MAILBOX_BASE;
            match off {
                o if o < 0x20 => mailbox.host_write_data((o / 4) as usize, value as u32),
                0x20 if value & 1 != 0 => mailbox.host_ring_doorbell(),
                _ => {}
            }
            return Ok(());
        }
        if self.in_scmi(addr, width.bytes()) {
            self.io_access = true;
            let scmi = self.scmi.as_ref().expect("in_scmi implies Some");
            scmi.host_write(addr - SCMI_BASE, width.bytes(), value);
            return Ok(());
        }
        self.ram.write(addr, width, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_mailbox_is_host_writable() {
        // Without PMP the mailbox is reachable — demonstrating exactly the
        // tampering surface §VI's assumption closes.
        let mut bus = HostBus::new(0x8000_0000, 0x1000);
        let mb = CfiMailbox::new();
        bus.map_mailbox(mb.clone());
        bus.write(MAILBOX_BASE, MemWidth::W, 0xdead)
            .expect("writable without PMP");
        assert_eq!(mb.host_read_data(0), 0xdead);
        bus.write(MAILBOX_BASE + 0x20, MemWidth::W, 1)
            .expect("doorbell");
        assert!(mb.doorbell_pending());
    }

    #[test]
    fn protected_mailbox_faults() {
        let mut bus = HostBus::new(0x8000_0000, 0x1000);
        let mb = CfiMailbox::new();
        bus.map_mailbox(mb.clone());
        bus.protect_mailbox();
        assert!(bus.write(MAILBOX_BASE, MemWidth::W, 0xdead).is_err());
        assert!(bus.read(MAILBOX_BASE, MemWidth::W).is_err());
        assert_eq!(bus.pmp_denials, 2);
        assert_eq!(mb.host_read_data(0), 0, "mailbox content untouched");
        // RAM still accessible.
        assert!(bus.write(0x8000_0100, MemWidth::D, 7).is_ok());
    }

    #[test]
    fn ram_behaviour_unaffected() {
        let mut bus = HostBus::new(0x1000, 0x100);
        bus.load(0x1010, &[1, 2, 3, 4]);
        assert_eq!(bus.read(0x1010, MemWidth::W).expect("read"), 0x0403_0201);
    }
}
