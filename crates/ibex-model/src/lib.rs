//! A cycle-approximate model of the Ibex (RV32IMC) security microcontroller.
//!
//! OpenTitan's Ibex core executes the TitanCFI policy firmware. The paper's
//! Table I depends on Ibex's micro-architectural cost structure: per-region
//! bus latencies (RoT scratchpad vs SoC mailbox), the 45-cycle interrupt
//! wake-up, and the iterative divider. [`IbexCore`] reproduces those on top
//! of the shared architectural interpreter, over a [`SystemBus`] whose
//! regions are latency-annotated and tagged ([`RegionKind`]) so the firmware
//! runner can produce the paper's Logic / Mem-RoT / Mem-SoC breakdown.
//!
//! # Examples
//!
//! ```
//! use ibex_model::{IbexCore, IbexTiming, SystemBus, RegionKind, RegionLatency};
//! use riscv_asm::assemble;
//! use riscv_isa::Xlen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble("_start: li a0, 5\n ebreak\n", Xlen::Rv32, 0x1_0000)?;
//! let mut bus = SystemBus::new();
//! bus.add_ram(0x1_0000, 0x8000, RegionKind::RotPrivate, RegionLatency::symmetric(5));
//! bus.load(prog.base, &prog.bytes);
//! let mut core = IbexCore::new(bus, prog.entry, IbexTiming::default());
//! let commit = core.step().map_err(|e| format!("{e:?}"))?;
//! assert_eq!(core.hart.reg(riscv_isa::Reg::A0), 5);
//! assert_eq!(commit.cost, 1); // single-cycle ALU op
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod bus;
mod core;

pub use crate::bus::{AccessInfo, Device, RegionKind, RegionLatency, SystemBus};
pub use crate::core::{IbexCommit, IbexCore, IbexEvent, IbexState, IbexTiming};
