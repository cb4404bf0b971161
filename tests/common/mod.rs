//! Shared setup for the workspace-level integration tests.
//!
//! Every `[[test]]` target under `tests/` builds the same scaffolding: an
//! assembler pinned to the host base address, a `SocConfig` sized for the
//! benchmark kernels, a run-to-report helper, and the report fingerprint
//! used for "these two runs must be indistinguishable" assertions. It lives
//! here once; each test binary pulls it in with `mod common;`.

#![allow(dead_code)] // each test binary uses its own subset of the helpers

use cva6_model::Halt;
use riscv_isa::Reg;
use titancfi_soc::{SocConfig, SocReport, SystemOnChip};
use titancfi_workloads::kernels::{Kernel, KERNEL_MEM};

/// Host load address shared by every hand-written test program.
pub const HOST_BASE: u64 = 0x8000_0000;

/// Cycle budget generous enough for every kernel in the suite; runs that
/// hit it are treated as hangs by the tests.
pub const RUN_BUDGET: u64 = 500_000_000;

/// Assembles a hand-written RV64 test program at the host base address.
pub fn assemble(src: &str) -> riscv_asm::Program {
    riscv_asm::assemble(src, riscv_isa::Xlen::Rv64, HOST_BASE).expect("test program assembles")
}

/// The default SoC configuration for benchmark kernels (memory sized for
/// `KERNEL_MEM`, everything else stock).
#[must_use]
pub fn kernel_config() -> SocConfig {
    SocConfig {
        mem_size: KERNEL_MEM,
        ..SocConfig::default()
    }
}

/// Looks up a benchmark kernel by name, panicking with the name on typos.
pub fn kernel(name: &str) -> &'static Kernel {
    Kernel::by_name(name).unwrap_or_else(|| panic!("no kernel named `{name}`"))
}

/// The assembled program of a named benchmark kernel.
pub fn kernel_program(name: &str) -> riscv_asm::Program {
    kernel(name)
        .program()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Runs a named kernel under the full CFI pipeline and returns the report.
/// No termination assertion — fault-injection tests inspect the halt cause
/// themselves.
pub fn run_kernel(name: &str, config: SocConfig) -> SocReport {
    run_kernels(&[name], config)
}

/// The SoC with one hart per named kernel, `names[i]` on hart `i`.
pub fn soc_with_kernels(names: &[&str], config: SocConfig) -> SystemOnChip {
    let progs: Vec<riscv_asm::Program> = names.iter().map(|n| kernel_program(n)).collect();
    let progs: Vec<&riscv_asm::Program> = progs.iter().collect();
    SystemOnChip::with_harts(&progs, config)
}

/// Like [`run_kernel`], with one hart per named kernel.
pub fn run_kernels(names: &[&str], config: SocConfig) -> SocReport {
    soc_with_kernels(names, config).run(RUN_BUDGET)
}

/// Runs a named kernel under CFI, asserts it terminates via `ebreak`, and
/// returns the report plus the functional result in `a0`.
pub fn run_kernel_checked(name: &str, config: SocConfig) -> (SocReport, u64) {
    let prog = kernel_program(name);
    let mut soc = SystemOnChip::new(&prog, config);
    let report = soc.run(RUN_BUDGET);
    assert_eq!(report.halt, Halt::Breakpoint, "{name} halts cleanly");
    (report, soc.host_reg(Reg::A0))
}

/// The observable fields that must not move between two runs that claim to
/// be indistinguishable (resilience armed vs off, cache warm vs cold, ...).
#[must_use]
pub fn report_fingerprint(r: &SocReport) -> (Halt, u64, u64, usize, u64, u64, usize) {
    (
        r.halt,
        r.cycles,
        r.logs_checked,
        r.queue_high_water,
        r.stalls_queue_full,
        r.stalls_dual_cf,
        r.violations.len(),
    )
}
