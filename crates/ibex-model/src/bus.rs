//! The Ibex system bus: latency-annotated regions and memory-mapped devices.
//!
//! The OpenTitan analysis in the paper (Table I) splits firmware memory
//! accesses into **RoT-private** (the 128 KB scratchpad behind OpenTitan's
//! internal TileLink fabric, ≈5 cycles per access) and **SoC** (the CFI
//! mailbox and main memory reached through the TileLink-to-AXI bridge,
//! ≈12 cycles). The bus model tags every access with its region kind so the
//! firmware runner can reproduce that breakdown, and charges the region's
//! latency to the core's cycle count.

use riscv_isa::{Bus, MemFault, MemWidth};
use std::any::Any;
use std::fmt;

/// Classification of a bus region, mirroring the paper's cost split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// OpenTitan-private scratchpad SRAM (and ROM/flash): cheap, tamper-proof.
    RotPrivate,
    /// Anything reached through the TileLink-to-AXI bridge: the CFI mailbox,
    /// SCMI mailbox, and SoC main memory.
    Soc,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::RotPrivate => f.write_str("rot-private"),
            RegionKind::Soc => f.write_str("soc"),
        }
    }
}

/// Latency (cycles) charged per access to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLatency {
    /// Cycles per read.
    pub read: u64,
    /// Cycles per write.
    pub write: u64,
}

impl RegionLatency {
    /// Same latency for reads and writes.
    #[must_use]
    pub fn symmetric(cycles: u64) -> RegionLatency {
        RegionLatency {
            read: cycles,
            write: cycles,
        }
    }
}

/// A memory-mapped device (mailbox registers, interrupt controller, ...).
///
/// Offsets are relative to the device's base address. Devices are registered
/// on the bus with a region kind and latency like RAM regions.
///
/// A device is plain owned state: the bus region that maps it is its one
/// owner, and other code reaches it through [`SystemBus::device`] /
/// [`SystemBus::device_mut`] (hence `Any`). `Send` is part of the contract
/// so a whole simulated SoC can move between threads — fleet shards hand
/// devices to whichever worker steals them.
pub trait Device: Any + Send {
    /// Reads `width` bytes at `offset`.
    fn read(&mut self, offset: u64, width: MemWidth) -> u64;

    /// Writes the low `width` bytes of `value` at `offset`.
    fn write(&mut self, offset: u64, width: MemWidth, value: u64);
}

enum Backing {
    Ram(Vec<u8>),
    Dev(Box<dyn Device>),
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Ram(v) => write!(f, "Ram({} bytes)", v.len()),
            Backing::Dev(_) => f.write_str("Device"),
        }
    }
}

#[derive(Debug)]
struct Region {
    base: u64,
    size: u64,
    kind: RegionKind,
    latency: RegionLatency,
    backing: Backing,
}

/// Record of the most recent access, consumed by the timing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Region kind touched.
    pub kind: RegionKind,
    /// Latency charged.
    pub cycles: u64,
    /// Whether it was a write.
    pub store: bool,
}

/// A bus with latency-annotated RAM regions and devices.
#[derive(Debug, Default)]
pub struct SystemBus {
    regions: Vec<Region>,
    last_access: Option<AccessInfo>,
    /// Single-entry dispatch memo: index of the region that served the last
    /// access. Firmware locality makes consecutive accesses hit the same
    /// region almost always, turning the per-access range scan into one
    /// bounds check. Region indices are stable (regions are only appended).
    last_hit: Option<usize>,
}

impl SystemBus {
    /// An empty bus.
    #[must_use]
    pub fn new() -> SystemBus {
        SystemBus::default()
    }

    /// Maps a zero-filled RAM region.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one.
    pub fn add_ram(&mut self, base: u64, size: u64, kind: RegionKind, latency: RegionLatency) {
        self.check_overlap(base, size);
        self.regions.push(Region {
            base,
            size,
            kind,
            latency,
            backing: Backing::Ram(vec![0; size as usize]),
        });
    }

    /// Maps a device.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one.
    pub fn add_device(
        &mut self,
        base: u64,
        size: u64,
        kind: RegionKind,
        latency: RegionLatency,
        device: Box<dyn Device>,
    ) {
        self.check_overlap(base, size);
        self.regions.push(Region {
            base,
            size,
            kind,
            latency,
            backing: Backing::Dev(device),
        });
    }

    fn check_overlap(&self, base: u64, size: u64) {
        for r in &self.regions {
            assert!(
                base + size <= r.base || base >= r.base + r.size,
                "region [{base:#x}, {:#x}) overlaps [{:#x}, {:#x})",
                base + size,
                r.base,
                r.base + r.size
            );
        }
    }

    /// Copies bytes into a RAM region (program loading).
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully inside one RAM region.
    pub fn load(&mut self, addr: u64, bytes: &[u8]) {
        let region = self
            .regions
            .iter_mut()
            .find(|r| addr >= r.base && addr + bytes.len() as u64 <= r.base + r.size)
            .expect("load target not mapped");
        match &mut region.backing {
            Backing::Ram(data) => {
                let off = (addr - region.base) as usize;
                data[off..off + bytes.len()].copy_from_slice(bytes);
            }
            Backing::Dev(_) => panic!("cannot load into a device region"),
        }
    }

    /// Takes the access-info record of the most recent read/write.
    pub fn take_access(&mut self) -> Option<AccessInfo> {
        self.last_access.take()
    }

    /// The device of concrete type `T` mapped at `base`.
    ///
    /// Returns `None` if `base` does not start a region, names a RAM
    /// region, or maps a device of another type.
    #[must_use]
    pub fn device<T: Device>(&self, base: u64) -> Option<&T> {
        match &self.regions.iter().find(|r| r.base == base)?.backing {
            Backing::Dev(d) => (&**d as &dyn Any).downcast_ref(),
            Backing::Ram(_) => None,
        }
    }

    /// Mutable form of [`SystemBus::device`].
    pub fn device_mut<T: Device>(&mut self, base: u64) -> Option<&mut T> {
        match &mut self.regions.iter_mut().find(|r| r.base == base)?.backing {
            Backing::Dev(d) => (&mut **d as &mut dyn Any).downcast_mut(),
            Backing::Ram(_) => None,
        }
    }

    #[inline]
    fn region_for(&mut self, addr: u64, len: u64) -> Option<&mut Region> {
        if let Some(i) = self.last_hit {
            let r = &self.regions[i];
            if addr >= r.base && addr + len <= r.base + r.size {
                return Some(&mut self.regions[i]);
            }
        }
        let i = self
            .regions
            .iter()
            .position(|r| addr >= r.base && addr + len <= r.base + r.size)?;
        self.last_hit = Some(i);
        Some(&mut self.regions[i])
    }
}

impl Bus for SystemBus {
    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        let n = width.bytes();
        let region = self
            .region_for(addr, n)
            .ok_or(MemFault { addr, store: false })?;
        let info = AccessInfo {
            kind: region.kind,
            cycles: region.latency.read,
            store: false,
        };
        let off = addr - region.base;
        let v = match &mut region.backing {
            Backing::Ram(data) => {
                let off = off as usize;
                let mut v = 0u64;
                for i in (0..n as usize).rev() {
                    v = v << 8 | u64::from(data[off + i]);
                }
                v
            }
            Backing::Dev(d) => d.read(off, width),
        };
        self.last_access = Some(info);
        Ok(v)
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        let n = width.bytes();
        let region = self
            .region_for(addr, n)
            .ok_or(MemFault { addr, store: true })?;
        let info = AccessInfo {
            kind: region.kind,
            cycles: region.latency.write,
            store: true,
        };
        let off = addr - region.base;
        match &mut region.backing {
            Backing::Ram(data) => {
                let off = off as usize;
                for i in 0..n as usize {
                    data[off + i] = (value >> (8 * i)) as u8;
                }
            }
            Backing::Dev(d) => d.write(off, width, value),
        }
        self.last_access = Some(info);
        Ok(())
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, MemFault> {
        // Instruction fetches hit the private ROM/SRAM; they are pipelined
        // and not charged as data accesses, so bypass the access record.
        let remaining = {
            let r = self
                .region_for(addr, 1)
                .ok_or(MemFault { addr, store: false })?;
            r.base + r.size - addr
        };
        let n = 4.min(remaining);
        let mut v: u64 = 0;
        for i in (0..n).rev() {
            let region = self
                .region_for(addr + i, 1)
                .ok_or(MemFault { addr, store: false })?;
            let off = addr + i - region.base;
            let byte = match &mut region.backing {
                Backing::Ram(data) => u64::from(data[off as usize]),
                Backing::Dev(d) => d.read(off, MemWidth::B),
            };
            v = v << 8 | byte;
        }
        self.last_access = None;
        Ok(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        last: u64,
    }

    impl Device for Probe {
        fn read(&mut self, offset: u64, _width: MemWidth) -> u64 {
            offset + 0x100
        }
        fn write(&mut self, _offset: u64, _width: MemWidth, value: u64) {
            self.last = value;
        }
    }

    #[test]
    fn ram_read_write_with_latency_tag() {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(5),
        );
        bus.write(0x1008, MemWidth::W, 0xaabbccdd).expect("write");
        let info = bus.take_access().expect("tagged");
        assert_eq!(info.kind, RegionKind::RotPrivate);
        assert_eq!(info.cycles, 5);
        assert!(info.store);
        assert_eq!(bus.read(0x1008, MemWidth::W).expect("read"), 0xaabb_ccdd);
    }

    #[test]
    fn device_dispatch() {
        let mut bus = SystemBus::new();
        bus.add_device(
            0x2000,
            0x40,
            RegionKind::Soc,
            RegionLatency::symmetric(12),
            Box::new(Probe { last: 0 }),
        );
        assert_eq!(bus.read(0x2004, MemWidth::W).expect("read"), 0x104);
        assert_eq!(bus.take_access().expect("tag").kind, RegionKind::Soc);
        bus.write(0x2000, MemWidth::W, 7).expect("write");
        assert_eq!(bus.device::<Probe>(0x2000).map(|p| p.last), Some(7));
    }

    #[test]
    fn typed_device_lookup() {
        struct Other;
        impl Device for Other {
            fn read(&mut self, _offset: u64, _width: MemWidth) -> u64 {
                0
            }
            fn write(&mut self, _offset: u64, _width: MemWidth, _value: u64) {}
        }
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(1),
        );
        bus.add_device(
            0x2000,
            0x40,
            RegionKind::Soc,
            RegionLatency::symmetric(12),
            Box::new(Probe { last: 0 }),
        );
        // Right type: the owned device itself, mutable in place.
        bus.device_mut::<Probe>(0x2000).expect("probe").last = 9;
        assert_eq!(bus.device::<Probe>(0x2000).map(|p| p.last), Some(9));
        // Wrong type, a RAM region, and a base inside (not at) a region or
        // outside every region all miss.
        assert!(bus.device::<Other>(0x2000).is_none());
        assert!(bus.device_mut::<Other>(0x2000).is_none());
        assert!(bus.device::<Probe>(0x1000).is_none());
        assert!(bus.device::<Probe>(0x2004).is_none());
        assert!(bus.device_mut::<Probe>(0x9000).is_none());
    }

    #[test]
    fn last_hit_memo_tracks_alternating_regions() {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(5),
        );
        bus.add_ram(0x2000, 0x100, RegionKind::Soc, RegionLatency::symmetric(12));
        // Ping-pong between regions: every access must resolve to the right
        // region (latency tag) and value, memo notwithstanding.
        for round in 0..4u64 {
            bus.write(0x1008, MemWidth::W, round).expect("rot write");
            assert_eq!(bus.take_access().expect("tag").cycles, 5);
            bus.write(0x2008, MemWidth::W, round + 100)
                .expect("soc write");
            assert_eq!(bus.take_access().expect("tag").cycles, 12);
            assert_eq!(bus.read(0x1008, MemWidth::W).expect("read"), round);
            assert_eq!(bus.take_access().expect("tag").kind, RegionKind::RotPrivate);
            assert_eq!(bus.read(0x2008, MemWidth::W).expect("read"), round + 100);
            assert_eq!(bus.take_access().expect("tag").kind, RegionKind::Soc);
        }
        // Unmapped accesses still fault after the memo is warm.
        assert!(bus.read(0x5000, MemWidth::W).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(1),
        );
        assert!(bus.read(0x5000, MemWidth::W).is_err());
        assert!(
            bus.write(0x10fe, MemWidth::W, 0).is_err(),
            "straddles region end"
        );
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(1),
        );
        bus.add_ram(0x10f0, 0x100, RegionKind::Soc, RegionLatency::symmetric(1));
    }

    #[test]
    fn fetch_spans_regions() {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1000,
            0x100,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(1),
        );
        bus.load(0x1000, &[0x13, 0x05, 0x10, 0x00]);
        assert_eq!(bus.fetch(0x1000).expect("fetch"), 0x0010_0513);
        // Fetch at the very end of the region reads the remaining bytes.
        bus.load(0x10fe, &[0x82, 0x80]);
        assert_eq!(bus.fetch(0x10fe).expect("fetch"), 0x8082);
    }
}
