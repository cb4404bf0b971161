//! Multi-core TitanCFI demo: two host harts, one RoT (paper §VII future
//! work). Hart 0 runs a clean recursive workload; hart 1 gets hijacked.
//! The shared RoT checks both commit-log streams against per-hart shadow
//! stack banks and attributes the violation to the right hart.
//!
//! Run with: `cargo run --example multicore`

use riscv_asm::assemble;
use riscv_isa::{Reg, Xlen};
use titancfi_soc::{SocConfig, SystemOnChip};

const CLEAN: &str = r"
_start:
    li  a0, 12
    call fib
    ebreak
fib:
    li  t0, 2
    blt a0, t0, base
    addi sp, sp, -32
    sd  ra, 0(sp)
    sd  a0, 8(sp)
    addi a0, a0, -1
    call fib
    sd  a0, 16(sp)
    ld  a0, 8(sp)
    addi a0, a0, -2
    call fib
    ld  t1, 16(sp)
    add a0, a0, t1
    ld  ra, 0(sp)
    addi sp, sp, 32
    ret
base:
    ret
";

const VICTIM: &str = r"
_start:
    call vulnerable
    ebreak
vulnerable:
    addi sp, sp, -16
    sd   ra, 8(sp)
    la   t0, gadget
    sd   t0, 8(sp)      # attacker's write primitive
    ld   ra, 8(sp)
    addi sp, sp, 16
    ret                 # hijacked
gadget:
    li   a0, 0x666
    ebreak
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clean = assemble(CLEAN, Xlen::Rv64, 0x8000_0000)?;
    let victim = assemble(VICTIM, Xlen::Rv64, 0x8000_0000)?;
    let mut soc = SystemOnChip::with_harts(&[&clean, &victim], SocConfig::default());
    let report = soc.run(100_000_000);

    println!("Multi-core TitanCFI (2 CVA6 harts, 1 OpenTitan)");
    println!("===============================================");
    for (i, hart) in report.harts.iter().enumerate() {
        println!(
            "hart {i}: halt {:?}, {} cycles, {} control-flow logs streamed",
            hart.halt, hart.cycles, hart.filter.emitted
        );
    }
    println!("logs checked by the RoT: {}", report.logs_checked);
    println!("fib(12) on hart 0:       {}", soc.hart_reg(0, Reg::A0));
    println!("violations:");
    for v in &report.violations {
        println!(
            "  hart {} at pc {:#x}: ret to {:#x} (detected at RoT cycle {})",
            v.hart, v.log.pc, v.log.target, v.cycle
        );
    }
    assert_eq!(soc.hart_reg(0, Reg::A0), 144);
    assert!(report.violations.iter().all(|v| v.hart == 1));
    println!("\nhart 0 computed fib(12) = 144 undisturbed; hart 1's hijack was caught.");
    Ok(())
}
