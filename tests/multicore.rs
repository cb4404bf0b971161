//! Multi-core TitanCFI (the paper's §VII future work): two host harts,
//! one RoT, per-hart shadow-stack banks in the firmware.

use cva6_model::Halt;
use riscv_isa::Reg;
use titancfi_soc::{Engine, SocConfig, SystemOnChip};
use titancfi_workloads::kernels::{all_kernels, KERNEL_MEM};

fn config(mem_size: usize) -> SocConfig {
    SocConfig {
        mem_size,
        ..SocConfig::default()
    }
}

fn program(name: &str) -> riscv_asm::Program {
    all_kernels()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("{name}?"))
        .program()
        .expect("assembles")
}

#[test]
fn two_kernels_protected_concurrently() {
    let fib = program("fib");
    let towers = program("towers");
    let mut soc = SystemOnChip::with_harts(&[&fib, &towers], config(KERNEL_MEM));
    let report = soc.run(500_000_000);

    for (i, hart) in report.harts.iter().enumerate() {
        assert_eq!(hart.halt, Halt::Breakpoint, "hart {i} halts cleanly");
    }
    assert_eq!(soc.hart_reg(0, Reg::A0), 610, "fib(15) on hart 0");
    assert_eq!(soc.hart_reg(1, Reg::A0), 1023, "towers(10) on hart 1");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // Every streamed log was checked, across both harts.
    let streamed: u64 = report.harts.iter().map(|h| h.filter.emitted).sum();
    assert_eq!(streamed, report.logs_checked);
    assert!(report.harts[0].filter.emitted > 0 && report.harts[1].filter.emitted > 0);
}

/// Per-hart cycles, logs streamed, and logs checked of two kernel pairs,
/// pinned under both engines (the figures of the former dedicated
/// dual-core SoC, which the merged SoC reproduces exactly).
#[test]
fn per_hart_numbers_pinned_under_both_engines() {
    let cases = [
        (
            "fib",
            "towers",
            [618_790, 639_535],
            Some([3946, 4094]),
            8040,
        ),
        ("fib", "dhry-calls", [618_987, 766_660], None, 8946),
    ];
    for (a, b, cycles, streamed, checked) in cases {
        let (pa, pb) = (program(a), program(b));
        for engine in Engine::ALL {
            let config = SocConfig {
                engine,
                ..config(KERNEL_MEM)
            };
            let report = SystemOnChip::with_harts(&[&pa, &pb], config).run(2_000_000_000);
            let got: Vec<u64> = report.harts.iter().map(|h| h.cycles).collect();
            assert_eq!(got, cycles, "{a}+{b} {engine:?}: per-hart cycles");
            if let Some(streamed) = streamed {
                let got: Vec<u64> = report.harts.iter().map(|h| h.filter.emitted).collect();
                assert_eq!(got, streamed, "{a}+{b} {engine:?}: per-hart logs streamed");
            }
            assert_eq!(report.logs_checked, checked, "{a}+{b} {engine:?}");
            // Hart 0 is the report's headline.
            assert_eq!(report.cycles, report.harts[0].cycles);
        }
    }
}

#[test]
fn shadow_stacks_are_isolated_per_core() {
    // Hart 0 performs calls (pushes into bank 0). Hart 1 executes a bare
    // `ret` without any call: if the banks were shared, hart 0's pushed
    // addresses could mask the underflow; with proper banking hart 1's
    // return must be flagged.
    let core0 = riscv_asm::assemble(
        r"
        _start:
            li  s0, 50
        loop:
            call f
            addi s0, s0, -1
            bnez s0, loop
            ebreak
        f:  ret
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("core0");
    let core1 = riscv_asm::assemble(
        r"
        _start:
            nop
            nop
            la  ra, somewhere
            ret                 # return without any call: bank-1 underflow
        somewhere:
            ebreak
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("core1");
    let mut soc = SystemOnChip::with_harts(&[&core0, &core1], config(1 << 20));
    let report = soc.run(10_000_000);

    let hart1_violations: Vec<_> = report.violations.iter().filter(|v| v.hart == 1).collect();
    assert!(
        !hart1_violations.is_empty(),
        "hart 1's bare return must underflow its own bank: {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.hart == 1),
        "hart 0's balanced calls must stay clean: {:?}",
        report.violations
    );
}

#[test]
fn attack_on_one_core_attributed_correctly() {
    let victim = riscv_asm::assemble(
        r"
        _start:
            call vulnerable
            ebreak
        vulnerable:
            addi sp, sp, -16
            sd   ra, 8(sp)
            la   t0, gadget
            sd   t0, 8(sp)
            ld   ra, 8(sp)
            addi sp, sp, 16
            ret
        gadget:
            li   a0, 0x666
            ebreak
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("victim");
    let clean = program("dhry-calls");
    // Victim on hart 1, busy clean workload on hart 0.
    let mut soc = SystemOnChip::with_harts(&[&clean, &victim], config(KERNEL_MEM));
    let report = soc.run(500_000_000);

    assert!(!report.violations.is_empty(), "hijack must be detected");
    assert!(
        report.violations.iter().all(|v| v.hart == 1),
        "violation attributed to the victim hart: {:?}",
        report.violations
    );
    // The clean hart finished its work unperturbed.
    assert_eq!(report.harts[0].halt, Halt::Breakpoint);
}

#[test]
fn shared_rot_serialises_checks_from_both_cores() {
    // Two call-dense kernels: the single RoT is the bottleneck; both harts
    // make progress (neither starves) and all logs are eventually checked.
    let a = program("fib");
    let b = program("dhry-calls");
    let mut soc = SystemOnChip::with_harts(&[&a, &b], config(KERNEL_MEM));
    let report = soc.run(2_000_000_000);
    assert_eq!(report.harts[0].halt, Halt::Breakpoint);
    assert_eq!(report.harts[1].halt, Halt::Breakpoint);
    assert!(report.violations.is_empty());
    let streamed: u64 = report.harts.iter().map(|h| h.filter.emitted).sum();
    assert_eq!(streamed, report.logs_checked);
}
