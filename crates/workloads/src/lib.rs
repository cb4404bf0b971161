//! Workloads for the TitanCFI evaluation.
//!
//! Three ingredients feed the benchmark harness:
//!
//! * [`kernels`] — real RV64 assembly kernels executed on the CVA6 model,
//!   covering the control-flow profiles of the paper's suites (recursion,
//!   call-dense loops, numeric kernels, indirect dispatch);
//! * [`published`] — the paper's own Table II/III numbers (baseline cycles,
//!   control-flow counts, slowdowns, competitor columns);
//! * [`synthetic`] — calibrated synthetic commit traces matching each
//!   published benchmark's statistics, which drive the trace model to
//!   regenerate Tables II and III.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod kernels_ext;
pub mod published;
pub mod synthetic;

pub use kernels::{all_kernels, Kernel, KERNELS, KERNEL_BASE, KERNEL_MEM};
pub use published::{ComparisonRow, PublishedRow, Suite, TABLE2, TABLE3};
pub use synthetic::{trace_for, TraceSpec};
