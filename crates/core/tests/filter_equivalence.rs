//! Property test: for random windows of retired instructions, the strict
//! commit path (`scan` on every retirement) and the fast-engine commit path
//! (`scan_classified` for control flow + one bulk `note_straightline` for
//! the skipped straight-line run) must account the exact same counters and
//! emit byte-identical commit logs.
//!
//! This is the filter-level core of the differential-fuzzing oracle: if
//! these two paths ever drift, every fast-engine SoC run silently stops
//! being comparable to the reference engine.

use riscv_isa::{classify, decode, encode, BranchCond, Inst, Reg, Retired, Xlen};
use titancfi::{CfiFilter, CommitLog};
use titancfi_harness::Xoshiro256;

/// Draws one plausible retired instruction: a mix of straight-line ALU ops,
/// direct jumps/branches (CF but not CFI-relevant), and the three classes
/// the filter must stream (calls, returns, indirect jumps).
fn random_inst(rng: &mut Xoshiro256) -> Inst {
    let link = *rng.pick(&[Reg::RA, Reg::T0]);
    let plain = *rng.pick(&[Reg::T1, Reg::A5, Reg::S2]);
    match rng.below(8) {
        0 => Inst::NOP,
        1 => Inst::AluImm {
            op: riscv_isa::AluImmOp::Addi,
            rd: plain,
            rs1: plain,
            imm: rng.range_i64(-2048, 2048),
            word: false,
        },
        2 => Inst::Jal {
            rd: Reg::ZERO,
            offset: rng.range_i64(-64, 64) * 2,
        },
        3 => Inst::Branch {
            cond: *rng.pick(&[BranchCond::Eq, BranchCond::Ne, BranchCond::Lt]),
            rs1: plain,
            rs2: Reg::ZERO,
            offset: rng.range_i64(-64, 64) * 2,
        },
        4 => Inst::Jal {
            rd: link,
            offset: rng.range_i64(-64, 64) * 2,
        },
        5 => Inst::Jalr {
            rd: link,
            rs1: plain,
            offset: rng.range_i64(-128, 128),
        },
        6 => Inst::Jalr {
            rd: Reg::ZERO,
            rs1: link,
            offset: 0,
        },
        _ => Inst::Jalr {
            rd: Reg::ZERO,
            rs1: plain,
            offset: rng.range_i64(-128, 128),
        },
    }
}

/// Fabricates the commit-port view of one retirement. The filter only reads
/// `pc`/`decoded`/`next`/`target`, but the whole struct is populated the way
/// a hart would.
fn random_retired(rng: &mut Xoshiro256, pc: u64) -> Retired {
    let inst = random_inst(rng);
    let decoded = decode(encode(&inst), Xlen::Rv64).expect("pool encodes round-trip");
    let next = pc + u64::from(decoded.len);
    let redirect = classify(&decoded.inst) != riscv_isa::CfClass::None && rng.chance();
    Retired {
        pc,
        decoded,
        next,
        target: if redirect {
            0x8000_0000 + rng.below(1 << 16) * 2
        } else {
            next
        },
        memory_access: false,
        mem_addr: None,
        wfi: false,
    }
}

#[test]
fn strict_and_fast_forward_paths_account_identically() {
    let mut rng = Xoshiro256::new(0x1f17);
    for window_idx in 0..256u64 {
        let len = 1 + rng.below(48) as usize;
        let mut pc = 0x8000_0000u64;
        let window: Vec<Retired> = (0..len)
            .map(|_| {
                let r = random_retired(&mut rng, pc);
                pc = r.next;
                r
            })
            .collect();

        let mut strict = CfiFilter::new();
        let strict_logs: Vec<CommitLog> = window.iter().filter_map(|r| strict.scan(r)).collect();

        // Fast-engine path: superblock batches cover straight-line runs
        // and only presents control flow to the filter, then accounts the
        // skipped retirements in bulk.
        let mut fast = CfiFilter::new();
        let mut fast_logs: Vec<CommitLog> = Vec::new();
        let mut straightline = 0u64;
        for r in &window {
            let class = classify(&r.decoded.inst);
            if class.is_cfi_relevant() {
                if let Some(log) = fast.scan_classified(r, class) {
                    fast_logs.push(log);
                }
            } else {
                straightline += 1;
            }
        }
        fast.note_straightline(straightline);

        assert_eq!(
            fast.stats(),
            strict.stats(),
            "window {window_idx}: counter drift between commit paths"
        );
        assert_eq!(
            fast.stats().scanned,
            len as u64,
            "window {window_idx}: scanned must count every retirement"
        );
        assert_eq!(
            fast_logs, strict_logs,
            "window {window_idx}: emitted commit logs differ"
        );
        assert_eq!(
            fast.stats().emitted as usize,
            fast_logs.len(),
            "window {window_idx}: emitted counter vs log count"
        );
    }
}

#[test]
fn non_relevant_classes_never_emit_via_either_path() {
    let mut rng = Xoshiro256::new(0xbeef);
    let mut pc = 0x8000_0000u64;
    for _ in 0..512 {
        let r = random_retired(&mut rng, pc);
        pc = r.next;
        let class = classify(&r.decoded.inst);
        let mut f = CfiFilter::new();
        let log = f.scan(&r);
        assert_eq!(
            log.is_some(),
            class.is_cfi_relevant(),
            "scan emission must match classification for {:?}",
            r.decoded.inst
        );
        let mut g = CfiFilter::new();
        assert_eq!(g.scan_classified(&r, class), log);
    }
}
