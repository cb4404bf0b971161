//! Differential fuzzing for the TitanCFI co-simulation.
//!
//! The simulator has two stepping engines that must be observationally
//! identical (the reference engine and the fast engine, on the single- and
//! the dual-core SoC) plus a resilience layer that must be provably inert
//! on a fault-free transport.
//! Until now every equivalence claim was pinned by hand-picked kernels;
//! this crate replaces that with *generated* coverage:
//!
//! * [`gen`] — a seeded random program generator producing structured
//!   control flow (call trees, bounded recursion, counted loops, indirect
//!   jumps through data-dependent jump tables, self-modifying patch sites,
//!   compressed and uncompressed encodings) that always terminates, emitted
//!   as `riscv-asm` source.
//! * [`oracle`] — runs one program under the full configuration matrix
//!   (reference vs fast engine × IRQ vs polling firmware ×
//!   resilience armed vs [`titancfi::ResilienceConfig::off`], plus the
//!   dual-core SoC) and demands byte-identical commit-log streams,
//!   shadow-stack verdicts, and report fingerprints. Corruption variants
//!   (return-address hijack, jump-table smash, function-pointer type
//!   confusion) must be flagged by exactly the policies the per-variant
//!   expected-detection map predicts — the shadow stack, Zicfilp landing
//!   pads, and KCFI type hashes respectively — in *every* configuration.
//! * [`shrink`] — on divergence, delta-debugs the program (function-level
//!   removal, then instruction-level chunk removal) down to a minimal
//!   reproducer, re-running the oracle at every step.
//! * [`repro`] — writes the shrunk case as a self-contained
//!   `.repro.rs`-style file into `tests/repros/`.
//!
//! The `titancfi-bench --bin fuzz` binary fans seeds through the
//! `titancfi-harness` pool with the content-addressed result cache and is
//! wired into CI as a time-boxed smoke.

pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use gen::{Corruption, CorruptionVariant, FuzzProgram, GenOptions, GENERATOR_VERSION};
pub use oracle::{
    check, check_source, expected_detection, replay_policies, CaseOutcome, Divergence,
    ExpectedDetection, MatrixConfig, OracleOk, PolicyMatrix,
};
pub use repro::{write_repro, ReproContext};
pub use shrink::{instruction_count, shrink};
