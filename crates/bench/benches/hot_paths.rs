//! Microbenchmarks of the simulation hot paths: the decoder, the CFI
//! filter, the queue, the commit-log packer, the trace model, and the
//! crypto primitives. These bound how fast the full-system simulation can
//! go and catch performance regressions in the core data structures.
//!
//! Self-timed via `titancfi_harness::timing` (no criterion; the workspace
//! builds dependency-free). Run with `cargo bench -p titancfi-bench`.

use std::hint::black_box;
use titancfi::{CfiQueue, CommitLog};
use titancfi_harness::timing::{bench, bench_throughput};
use titancfi_obs::{NoProbe, Probe, Recorder};
use titancfi_trace::{simulate, Trace};

fn bench_decode() {
    // A realistic mix of encodings.
    let words: Vec<u32> = vec![
        0x0015_0513, // addi
        0x00c5_8533, // add
        0x0080_00ef, // jal ra (call)
        0x0000_8067, // ret
        0x0101_3503, // ld
        0x0011_3423, // sd
        0xfe05_1ce3, // bne
        0x02c5_8533, // mul
    ];
    let n = words.len() as u64;
    bench_throughput("decode/decode32_mix", n, || {
        for &w in &words {
            black_box(riscv_isa::decode(black_box(w), riscv_isa::Xlen::Rv64).unwrap());
        }
    });
    bench_throughput("decode/classify_raw_mix", n, || {
        for &w in &words {
            black_box(riscv_isa::classify_raw(black_box(w)));
        }
    });
}

fn bench_commit_log() {
    let log = CommitLog {
        pc: 0x8000_0000_1234_5678,
        insn: 0x0000_8067,
        next: 0x8000_0000_1234_567c,
        target: 0x8000_0000_0000_4444,
    };
    bench("commit_log_pack_unpack", || {
        let words = black_box(&log).to_words();
        black_box(CommitLog::from_words(&words))
    });
}

fn bench_queue() {
    let log = CommitLog {
        pc: 0,
        insn: 0x0000_8067,
        next: 4,
        target: 8,
    };
    let mut q = CfiQueue::new(8);
    bench("cfi_queue_push_pop_depth8", || {
        for _ in 0..8 {
            q.push(0, black_box(log));
        }
        for _ in 0..8 {
            black_box(q.pop());
        }
    });
}

fn bench_probe_overhead() {
    // The observability contract: the `_probed` hot-path variants driven by
    // `NoProbe` (instrumentation disabled — the default simulation path)
    // must cost the same as the plain calls. Compare the two queue loops
    // directly; a live `Recorder` shows what enabling instrumentation adds.
    let log = CommitLog {
        pc: 0,
        insn: 0x0000_8067,
        next: 4,
        target: 8,
    };
    let mut q = CfiQueue::new(8);
    let mut noprobe = NoProbe;
    bench("probe/queue_depth8_noprobe", || {
        for cycle in 0..8 {
            q.push_probed(0, black_box(log), cycle, &mut noprobe);
        }
        for cycle in 0..8 {
            black_box(q.pop_probed(cycle, &mut noprobe));
        }
    });
    let mut recorder = Recorder::new();
    bench("probe/queue_depth8_recording", || {
        for cycle in 0..8 {
            q.push_probed(0, black_box(log), cycle, &mut recorder);
        }
        for cycle in 0..8 {
            black_box(q.pop_probed(cycle, &mut recorder));
        }
    });
    bench_throughput("probe/counter_add_recording", 1, || {
        recorder.counter_add("bench.counter", black_box(1));
    });
}

fn bench_trace_model() {
    // A 100k-event bursty trace, similar to the `mm` benchmark's density.
    let mut cf = Vec::with_capacity(100_000);
    for i in 0..100_000u64 {
        cf.push(i * 6);
    }
    let trace = Trace::from_cf_cycles(cf, 1_000_000);
    bench_throughput("trace_model/simulate_100k_events_depth8", 100_000, || {
        black_box(simulate(black_box(&trace), 267, 8))
    });
}

fn bench_crypto() {
    let engine = opentitan_model::HmacEngine::new(b"bench-key");
    let page = vec![0xa5u8; 4096];
    bench_throughput("crypto/sha256_4k", 4096, || {
        black_box(opentitan_model::sha256::sha256(black_box(&page)))
    });
    bench_throughput("crypto/hmac_spill_page_4k", 4096, || {
        black_box(engine.mac(black_box(&page)))
    });
}

fn bench_cva6_throughput() {
    // Simulated instructions per second on a numeric kernel, with and
    // without the predecoded-instruction cache (the fast path's headline
    // win: decode once per pc, execute from the cache thereafter).
    let kernel = titancfi_workloads::Kernel::by_name("matmult-int").expect("kernel");
    let prog = kernel.program().expect("assembles");
    for (name, predecode) in [
        ("cva6_sim_matmult_predecode", true),
        ("cva6_sim_matmult_rawdecode", false),
    ] {
        bench(name, || {
            let mut core = cva6_model::Cva6Core::new(
                black_box(&prog),
                titancfi_workloads::KERNEL_MEM,
                cva6_model::TimingConfig::default(),
            );
            core.set_predecode(predecode);
            black_box(core.run_silent(100_000_000))
        });
    }
}

fn bench_bus_dispatch() {
    // The ibex-model bus resolves each access by scanning its region list;
    // a single-entry last-hit memo makes the common same-region streak a
    // one-compare dispatch. Pin both shapes: a streak that always hits the
    // memo, and a ping-pong between two regions that always misses it.
    use ibex_model::{RegionKind, RegionLatency, SystemBus};
    use riscv_isa::{Bus, MemWidth};
    let mut bus = SystemBus::new();
    bus.add_ram(
        0x1000_0000,
        0x1000,
        RegionKind::RotPrivate,
        RegionLatency::symmetric(1),
    );
    bus.add_ram(
        0x2000_0000,
        0x1000,
        RegionKind::Soc,
        RegionLatency::symmetric(1),
    );
    bench_throughput("bus/dispatch_same_region_streak", 64, || {
        for i in 0..64u64 {
            black_box(
                bus.read(0x1000_0000 + (i % 0x100) * 8, MemWidth::D)
                    .unwrap(),
            );
            bus.take_access();
        }
    });
    bench_throughput("bus/dispatch_alternating_regions", 64, || {
        for i in 0..64u64 {
            let base = if i % 2 == 0 { 0x1000_0000 } else { 0x2000_0000 };
            black_box(bus.read(base + (i % 0x100) * 8, MemWidth::D).unwrap());
            bus.take_access();
        }
    });
}

fn main() {
    bench_decode();
    bench_commit_log();
    bench_queue();
    bench_probe_overhead();
    bench_trace_model();
    bench_crypto();
    bench_cva6_throughput();
    bench_bus_dispatch();
}
