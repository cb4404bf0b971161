//! RISC-V instruction-set definitions shared by every TitanCFI model.
//!
//! This crate is the foundation of the TitanCFI reproduction: it defines the
//! decoded instruction form ([`Inst`]), the decoder for 32-bit and compressed
//! 16-bit encodings ([`decode()`]), the inverse encoder ([`encode()`]), the
//! machine-mode CSR map ([`csr`]), and — most importantly for CFI — the
//! control-flow classifier ([`classify`]) that decides which retired
//! instructions are calls, returns or indirect jumps per the RISC-V psABI
//! link-register convention.
//!
//! Both simulated cores consume it: the RV64 CVA6 model (the protected host)
//! and the RV32 Ibex model (the OpenTitan root-of-trust that runs the CFI
//! policy firmware). The [`Xlen`] parameter selects the base ISA.
//!
//! # Examples
//!
//! Decode a compressed `ret` and classify it:
//!
//! ```
//! use riscv_isa::{decode, classify, CfClass, Xlen};
//!
//! # fn main() -> Result<(), riscv_isa::DecodeError> {
//! let d = decode(0x8082, Xlen::Rv64)?; // c.jr ra
//! assert!(d.is_compressed());
//! assert_eq!(classify(&d.inst), CfClass::Return);
//! // TitanCFI streams the *uncompressed* encoding to the RoT:
//! assert_eq!(d.uncompressed(), 0x0000_8067);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod block;
pub mod cfi;
pub mod csr;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod inst;
pub mod pmp;
pub mod predecode;
pub mod reg;

pub use block::{BlockCache, BlockCacheStats};
pub use cfi::{classify, classify_raw, CfClass};
pub use decode::{decode, DecodeError, Decoded, Xlen};
pub use encode::encode;
pub use exec::{Bus, FlatMemory, Hart, MemFault, Retired, Trap};
pub use inst::{AluImmOp, AluOp, AmoOp, BranchCond, CsrOp, Inst, MemWidth, MulOp};
pub use predecode::{DecodeCache, DecodeCacheStats, Predecoded};
pub use reg::Reg;
