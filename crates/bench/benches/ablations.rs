//! Ablation benches for the design choices DESIGN.md calls out:
//! queue depth, firmware variant, shadow-stack spill threshold, and the
//! dual-commit-port conflict rate.
//!
//! Self-timed via `titancfi_harness::timing` (no criterion; the workspace
//! builds dependency-free). Run with `cargo bench -p titancfi-bench`.

use std::hint::black_box;
use titancfi::firmware::{FirmwareKind, FirmwareRunner};
use titancfi_harness::timing::bench;
use titancfi_policies::{CfiPolicy, ShadowStackPolicy};
use titancfi_trace::simulate;
use titancfi_workloads::published::{table3_row, LATENCY_IRQ};
use titancfi_workloads::synthetic::trace_for;

/// Queue depth sweep on the heaviest published benchmark (`mm`). The
/// reported metric inside each measurement is stall cycles; the runner
/// times the sweep itself.
fn bench_queue_depth() {
    let row = table3_row("mm").expect("mm row");
    let trace = trace_for(row, 1);
    for depth in [1usize, 2, 4, 8, 16, 32] {
        bench(&format!("queue_depth_ablation/{depth}"), || {
            black_box(simulate(black_box(&trace), LATENCY_IRQ, depth))
        });
    }
}

/// Per-check wall cost of the cycle-accurate firmware simulation, per
/// variant — how expensive it is to check one commit log in the RoT.
fn bench_firmware_variant() {
    let call = titancfi_bench::sample_call();
    let ret = titancfi_bench::sample_ret();
    for kind in FirmwareKind::ALL {
        let mut fw = FirmwareRunner::new(kind);
        bench(&format!("firmware_variant/{}", kind.name()), || {
            black_box(fw.check(black_box(&call)));
            black_box(fw.check(black_box(&ret)));
        });
    }
}

/// Spill-threshold ablation: a deep call burst against shadow stacks of
/// shrinking resident capacity — smaller capacity means more HMAC spills.
fn bench_spill_threshold() {
    let stream = titancfi_policies::attacks::nested_call_stream(0x8000_0000, 512);
    for capacity in [64usize, 128, 256, 1024] {
        bench(&format!("spill_threshold/{capacity}"), || {
            let mut ss = ShadowStackPolicy::new(capacity);
            for log in &stream {
                black_box(ss.check(black_box(log)));
            }
            black_box(ss.stats())
        });
    }
}

/// Full-system run of a call-dense kernel: the end-to-end co-simulation
/// cost, including the dual-commit-port conflict handling.
fn bench_full_system() {
    let kernel = titancfi_workloads::Kernel::by_name("fib").expect("fib");
    let prog = kernel.program().expect("assembles");
    bench("full_system_fib", || {
        let mut soc = titancfi_soc::SystemOnChip::new(
            black_box(&prog),
            titancfi_soc::SocConfig {
                mem_size: titancfi_workloads::KERNEL_MEM,
                ..titancfi_soc::SocConfig::default()
            },
        );
        black_box(soc.run(100_000_000))
    });
}

/// Two harts vs one: the shared RoT serialises checks from both harts;
/// this times the co-simulation and lets the reported cycle counts show
/// the contention.
fn bench_multicore() {
    let fib = titancfi_workloads::Kernel::by_name("fib")
        .expect("fib")
        .program()
        .expect("ok");
    let towers = titancfi_workloads::Kernel::by_name("towers")
        .expect("towers")
        .program()
        .expect("ok");
    bench("dual_core_fib_towers", || {
        let mut soc = titancfi_soc::SystemOnChip::with_harts(
            &[&fib, &towers],
            titancfi_soc::SocConfig::default(),
        );
        black_box(soc.run(1_000_000_000))
    });
}

/// D-cache on vs off on a memory-heavy kernel (timing realism ablation).
fn bench_dcache() {
    let kernel = titancfi_workloads::Kernel::by_name("memcpy").expect("memcpy");
    let prog = kernel.program().expect("ok");
    for (name, dcache) in [
        ("ideal", None),
        ("cva6_32k", Some(cva6_model::CacheConfig::cva6_default())),
    ] {
        bench(&format!("dcache_ablation/{name}"), || {
            let mut core = cva6_model::Cva6Core::new(
                black_box(&prog),
                titancfi_workloads::KERNEL_MEM,
                cva6_model::TimingConfig {
                    dcache,
                    ..cva6_model::TimingConfig::default()
                },
            );
            black_box(core.run_silent(100_000_000))
        });
    }
}

fn main() {
    bench_queue_depth();
    bench_firmware_variant();
    bench_spill_threshold();
    bench_full_system();
    bench_multicore();
    bench_dcache();
}
