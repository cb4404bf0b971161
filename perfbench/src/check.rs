//! Reference runs and the per-operation correctness check.
//!
//! The reference for a program is a strict bare `Cva6Core` (one `step` per
//! retired instruction, no CFI machinery) whose commits are fed through
//! `CfiFilter::scan`: the commit-log stream the SoC's filter must emit,
//! the guest result in `a0`, and the retired-instruction count.

use cva6_model::{Cva6Core, Halt, TimingConfig};
use riscv_asm::Program;
use riscv_isa::Reg;
use std::collections::HashSet;
use titancfi::{CfiFilter, CommitLog};

/// Cycle budget of a reference run (far above any generated program).
const MAX_REFERENCE_CYCLES: u64 = 1 << 36;

/// Assembles generated source at [`crate::gen::BASE`].
///
/// # Panics
///
/// Panics if the generator emitted source the assembler rejects (a bug in
/// the generator, not an input condition).
#[must_use]
pub fn assemble(source: &str) -> Program {
    riscv_asm::assemble(source, riscv_isa::Xlen::Rv64, crate::gen::BASE)
        .unwrap_or_else(|e| panic!("generated program must assemble: {e:?}"))
}

/// What a strict bare core says a program does.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The commit-log stream `CfiFilter::scan` emits over the commits.
    pub stream: Vec<CommitLog>,
    /// Why the run stopped.
    pub halt: Halt,
    /// Guest result register.
    pub a0: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Distinct instruction addresses executed.
    pub distinct_pcs: usize,
    /// Distinct basic-block entry addresses (the entry point plus every
    /// redirect target).
    pub distinct_blocks: usize,
}

/// Runs the strict reference for `program` with `mem_size` bytes of RAM,
/// scanning commits as they retire (nothing per-commit is kept but the
/// emitted stream).
#[must_use]
pub fn reference_program(program: &Program, mem_size: usize) -> Reference {
    let mut core = Cva6Core::new(program, mem_size, TimingConfig::default());
    let mut filter = CfiFilter::new();
    let mut stream = Vec::new();
    let mut pcs = HashSet::new();
    let mut blocks = HashSet::from([program.entry]);
    let halt = loop {
        if core.cycle() >= MAX_REFERENCE_CYCLES {
            break Halt::Budget;
        }
        match core.step() {
            Ok(c) => {
                pcs.insert(c.retired.pc);
                if c.retired.redirected() {
                    blocks.insert(c.retired.target);
                }
                stream.extend(filter.scan(&c.retired));
            }
            Err(h) => break h,
        }
    };
    Reference {
        stream,
        halt,
        a0: core.reg(Reg::A0),
        instret: core.stats().instret,
        distinct_pcs: pcs.len(),
        distinct_blocks: blocks.len(),
    }
}

/// [`reference_program`] straight from source, with 1 MiB of RAM.
#[cfg(test)]
#[must_use]
pub fn reference(source: &str) -> Reference {
    reference_program(&assemble(source), 1 << 20)
}

/// What one co-simulated execution produced.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    /// The SoC's commit-log tap.
    pub tap: &'a [CommitLog],
    /// The SoC's halt reason.
    pub halt: Halt,
    /// Guest `a0` at halt.
    pub a0: u64,
    /// Violations the RoT flagged.
    pub violations: usize,
}

/// The per-operation check: the SoC's tapped stream equals the reference
/// stream, the run halted on `ebreak` with the reference's `a0`, and a
/// benign program drew no violation. Returns the first mismatch.
///
/// # Errors
///
/// A description of the first property that does not hold.
pub fn verify(seen: Observed<'_>, reference: &Reference) -> Result<(), String> {
    if seen.halt != Halt::Breakpoint || reference.halt != Halt::Breakpoint {
        return Err(format!(
            "halt {:?} (reference {:?}), want Breakpoint",
            seen.halt, reference.halt
        ));
    }
    if seen.a0 != reference.a0 {
        return Err(format!(
            "a0 {:#x} != reference {:#x}",
            seen.a0, reference.a0
        ));
    }
    if seen.tap.len() != reference.stream.len() {
        return Err(format!(
            "tap holds {} logs, reference {}",
            seen.tap.len(),
            reference.stream.len()
        ));
    }
    if let Some(i) = seen
        .tap
        .iter()
        .zip(&reference.stream)
        .position(|(a, b)| a != b)
    {
        return Err(format!(
            "log {i} differs: {:?} vs reference {:?}",
            seen.tap[i], reference.stream[i]
        ));
    }
    if seen.violations != 0 {
        return Err(format!(
            "{} violations on a benign program",
            seen.violations
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Density, Shape};

    fn program() -> Reference {
        let shape = Shape {
            density: Density::CallDense,
            insns_per_cf: 4,
            target_insns: 2000,
            hijack: false,
        };
        reference(&generate(7, 0, shape).source)
    }

    fn observed(r: &Reference, tap: &[CommitLog]) -> Result<(), String> {
        verify(
            Observed {
                tap,
                halt: Halt::Breakpoint,
                a0: r.a0,
                violations: 0,
            },
            r,
        )
    }

    #[test]
    fn faithful_tap_passes() {
        let r = program();
        assert!(r.stream.len() > 50, "call-dense program must stream logs");
        assert_eq!(observed(&r, &r.stream), Ok(()));
    }

    #[test]
    fn dropped_log_is_caught() {
        let r = program();
        let mut tap = r.stream.clone();
        tap.remove(tap.len() / 2);
        assert!(observed(&r, &tap).is_err());
    }

    #[test]
    fn flipped_target_is_caught() {
        let r = program();
        let mut tap = r.stream.clone();
        let i = tap.len() / 3;
        tap[i].target ^= 0x40;
        let err = observed(&r, &tap).expect_err("flipped target must fail");
        assert!(err.contains(&format!("log {i}")), "{err}");
    }

    #[test]
    fn wrong_result_halt_or_violation_is_caught() {
        let r = program();
        let base = Observed {
            tap: &r.stream,
            halt: Halt::Breakpoint,
            a0: r.a0,
            violations: 0,
        };
        assert!(verify(
            Observed {
                a0: r.a0 ^ 1,
                ..base
            },
            &r
        )
        .is_err());
        assert!(verify(
            Observed {
                halt: Halt::Budget,
                ..base
            },
            &r
        )
        .is_err());
        assert!(verify(
            Observed {
                violations: 1,
                ..base
            },
            &r
        )
        .is_err());
    }
}
