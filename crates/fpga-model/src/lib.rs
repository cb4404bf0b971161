//! Structural FPGA resource estimation for the TitanCFI hardware additions.
//!
//! The paper synthesises the modified SoC with Vivado on a Virtex
//! UltraScale+ VCU118 and reports LUT/FF/BRAM deltas (Table IV). Without a
//! synthesis flow, this crate estimates the same quantities *structurally*:
//! every TitanCFI block is described by the registers and combinational
//! functions it instantiates, using standard UltraScale+ mapping rules
//! (LUT6 -> a 4:1 mux per LUT, one FF per register bit). The dominant term
//! is architectural and exact — the CFI queue stores `depth x 225` bits —
//! which is why the paper's dFF (1.77 k for a depth-8 queue of 224-bit
//! logs) follows directly from the design.
//!
//! Baseline (unmodified CVA6 / SoC / DExIE) figures are the paper's own
//! Table IV numbers; the *deltas* are what this model computes.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Add, AddAssign};

/// FPGA resource triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resources {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops (registers).
    pub ff: u64,
    /// Block RAM tiles.
    pub bram: u64,
}

impl Resources {
    /// A zero resource count.
    #[must_use]
    pub fn zero() -> Resources {
        Resources::default()
    }

    /// `lut`/`ff`-only resources.
    #[must_use]
    pub fn logic(lut: u64, ff: u64) -> Resources {
        Resources { lut, ff, bram: 0 }
    }

    /// Percentage overhead of `self` relative to a `baseline`.
    #[must_use]
    pub fn percent_of(&self, baseline: &Resources) -> (f64, f64, f64) {
        let pct = |delta: u64, base: u64| {
            if base == 0 {
                0.0
            } else {
                delta as f64 * 100.0 / base as f64
            }
        };
        (
            pct(self.lut, baseline.lut),
            pct(self.ff, baseline.ff),
            pct(self.bram, baseline.bram),
        )
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} LUT / {} FF / {} BRAM", self.lut, self.ff, self.bram)
    }
}

/// Commit-log width in bits (224 + a valid bit per queue entry).
pub const LOG_BITS: u64 = 224;

/// LUTs for an n:1 multiplexer of one bit on LUT6 fabric (a LUT6 packs a
/// 4:1 mux; wider muxes compose as trees).
#[must_use]
pub fn mux_luts_per_bit(inputs: u64) -> u64 {
    if inputs <= 1 {
        return 0;
    }
    if inputs <= 4 {
        return 1;
    }
    let first_level = inputs.div_ceil(4);
    first_level + mux_luts_per_bit(first_level)
}

/// One CFI Filter (per commit port): opcode decode, link-register
/// classification, field extraction from the scoreboard entry. Purely
/// combinational — the selected log goes straight into the queue.
#[must_use]
pub fn cfi_filter() -> Resources {
    // Opcode match (jal/jalr/branch) ~ 8 LUT; rd/rs1 link comparison ~ 8;
    // 224-bit field-select network from the scoreboard entry ~ 104 (many
    // fields are direct wires; the uncompressed-encoding re-expansion for
    // compressed instructions dominates at ~1 LUT per 2 output bits).
    Resources::logic(120, 0)
}

/// The CFI Queue: `depth` entries of 224 bits + valid, register-based with
/// a read multiplexer.
#[must_use]
pub fn cfi_queue(depth: u64) -> Resources {
    let entry_bits = LOG_BITS + 1;
    let ptr_bits = u64::from(depth.next_power_of_two().trailing_zeros()) + 1;
    let ff = depth * entry_bits + 2 * ptr_bits;
    // Read mux across entries + per-entry write-enable decode.
    let lut = LOG_BITS * mux_luts_per_bit(depth) + depth + 2 * ptr_bits;
    Resources::logic(lut, ff)
}

/// The Queue Controller: full/dual-CF stall conditions.
#[must_use]
pub fn queue_controller() -> Resources {
    Resources::logic(24, 2)
}

/// The CFI Log Writer: 4-state FSM, beat counter, AXI master address/data
/// channel registers (the log itself streams from the queue head).
#[must_use]
pub fn log_writer() -> Resources {
    // FSM state (2 FF) + beat counter (2) + AXI AW/W/B handshake regs
    // (~76) + response/result capture (32).
    Resources::logic(210, 112)
}

/// The CFI Mailbox: 8x32-bit data words, doorbell, completion, bus decode,
/// and clock-domain-crossing synchronisers toward the RoT.
#[must_use]
pub fn cfi_mailbox() -> Resources {
    let data_ff = 8 * 32 + 2;
    let cdc_ff = 2 * 66; // double-flop syncs in both directions
    Resources::logic(170, data_ff + cdc_ff)
}

/// TitanCFI's additions inside the host core (CVA6): two filters, the
/// queue, its controller, and the log writer (paper Fig. 1, right).
#[must_use]
pub fn host_delta(queue_depth: u64) -> Resources {
    cfi_filter() + cfi_filter() + cfi_queue(queue_depth) + queue_controller() + log_writer()
}

/// TitanCFI's additions at SoC level: the host delta plus the mailbox.
#[must_use]
pub fn soc_delta(queue_depth: u64) -> Resources {
    host_delta(queue_depth) + cfi_mailbox()
}

/// Published baselines and comparisons (paper Table IV).
pub mod published {
    use super::Resources;

    /// CVA6 host core without CFI.
    pub const HOST_BASE: Resources = Resources {
        lut: 50_200,
        ff: 30_400,
        bram: 66,
    };
    /// Full SoC without CFI.
    pub const SOC_BASE: Resources = Resources {
        lut: 441_000,
        ff: 257_000,
        bram: 268,
    };
    /// Paper-reported TitanCFI delta on the host core.
    pub const HOST_DELTA: Resources = Resources {
        lut: 1_160,
        ff: 1_770,
        bram: 0,
    };
    /// Paper-reported TitanCFI delta on the SoC.
    pub const SOC_DELTA: Resources = Resources {
        lut: 1_330,
        ff: 2_190,
        bram: 0,
    };
    /// DExIE's base core (from the DExIE paper, quoted in Table IV).
    pub const DEXIE_BASE: Resources = Resources {
        lut: 4_660,
        ff: 3_090,
        bram: 136,
    };
    /// DExIE's delta (72 % LUT overhead).
    pub const DEXIE_DELTA: Resources = Resources {
        lut: 3_360,
        ff: 2_240,
        bram: 6,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_ff_dominated_by_payload() {
        let q = cfi_queue(8);
        assert!(q.ff >= 8 * 224, "payload bits are a hard floor: {}", q.ff);
        assert!(q.ff <= 8 * 240, "no more than modest control overhead");
    }

    #[test]
    fn deltas_track_paper_table4() {
        let host = host_delta(8);
        let lut_err = (host.lut as f64 - 1160.0).abs() / 1160.0;
        let ff_err = (host.ff as f64 - 1770.0).abs() / 1770.0;
        assert!(lut_err < 0.25, "host LUT delta {} vs 1160", host.lut);
        assert!(ff_err < 0.25, "host FF delta {} vs 1770", host.ff);
        assert_eq!(host.bram, 0, "TitanCFI needs no BRAM");
        let soc = soc_delta(8);
        assert!(soc.lut > host.lut && soc.ff > host.ff);
        let ff_err = (soc.ff as f64 - 2190.0).abs() / 2190.0;
        assert!(ff_err < 0.25, "soc FF delta {} vs 2190", soc.ff);
    }

    #[test]
    fn overhead_percentages_match_paper_claims() {
        let (lut_pct, ff_pct, _) = host_delta(8).percent_of(&published::HOST_BASE);
        assert!(lut_pct < 4.0, "host LUT {lut_pct:.1}%");
        assert!(ff_pct < 8.0, "host FF {ff_pct:.1}%");
        let (lut_pct, ff_pct, _) = soc_delta(8).percent_of(&published::SOC_BASE);
        assert!(lut_pct < 1.0, "SoC LUT {lut_pct:.1}%");
        assert!(ff_pct < 1.5, "SoC FF {ff_pct:.1}%");
    }

    #[test]
    fn titancfi_much_smaller_than_dexie() {
        let ours = host_delta(8);
        let dexie = published::DEXIE_DELTA;
        assert!(ours.lut * 2 < dexie.lut, "{} vs {}", ours.lut, dexie.lut);
        assert_eq!(ours.bram, 0);
        assert!(dexie.bram > 0);
    }

    #[test]
    fn area_scales_with_queue_depth() {
        let d1 = host_delta(1);
        let d8 = host_delta(8);
        let d16 = host_delta(16);
        assert!(d1.ff < d8.ff && d8.ff < d16.ff);
        assert!(d16.ff - d8.ff >= 8 * 224);
    }

    #[test]
    fn mux_estimator_monotone() {
        let mut prev = 0;
        for n in 1..64 {
            let l = mux_luts_per_bit(n);
            assert!(l >= prev, "mux LUTs must not decrease at {n}");
            prev = l;
        }
        assert_eq!(mux_luts_per_bit(1), 0);
        assert_eq!(mux_luts_per_bit(4), 1);
    }

    #[test]
    fn resources_arithmetic_and_display() {
        let a = Resources::logic(10, 20)
            + Resources {
                lut: 1,
                ff: 2,
                bram: 3,
            };
        assert_eq!(
            a,
            Resources {
                lut: 11,
                ff: 22,
                bram: 3
            }
        );
        assert_eq!(a.to_string(), "11 LUT / 22 FF / 3 BRAM");
        let (l, f, b) = Resources::logic(10, 20).percent_of(&Resources {
            lut: 100,
            ff: 100,
            bram: 0,
        });
        assert!((l - 10.0).abs() < 1e-9 && (f - 20.0).abs() < 1e-9 && b.abs() < 1e-9);
    }
}
