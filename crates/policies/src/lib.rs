//! Software-defined CFI policies for TitanCFI.
//!
//! The paper's thesis is that hosting CFI in the RoT makes the *policy* a
//! firmware artifact — replaceable, composable, and able to use the RoT's
//! tamper-proof storage and crypto accelerators (§I, §VI). This crate is
//! that policy layer:
//!
//! * [`ShadowStackPolicy`] — the reference return-address protection,
//!   complete with HMAC-authenticated spilling of old frames to SoC memory
//!   (Zipper-Stack-style, §VI) and tamper detection on restore;
//! * [`ForwardEdgePolicy`] — indirect-jump label checking (the paper's
//!   "alternative policies" future work);
//! * [`LandingPadPolicy`] — Zicfilp-style landing pads: indirect jumps and
//!   calls must land on an `lpad` marker, optionally with label matching;
//! * [`KcfiPolicy`] — KCFI type hashes: a 32-bit signature hash at `[fn-4]`
//!   checked against the hash each instrumented call site expects;
//! * [`PerThreadPolicy`] — per-thread stacks with selective protection
//!   (§V-C future work);
//! * [`CombinedPolicy`] — composition;
//! * [`attacks`] — ROP / JOP / stack-pivot injectors for evaluating
//!   detection.
//!
//! These are the *golden models* of the RV32 firmware in
//! [`titancfi::firmware`]; integration tests assert the two agree.

#![forbid(unsafe_code)]

pub mod attacks;
pub mod combined;
pub mod forward_edge;
pub mod kcfi;
pub mod landing_pad;
pub mod per_thread;
pub mod policy;
pub mod shadow_stack;

pub use combined::CombinedPolicy;
pub use forward_edge::{ForwardEdgePolicy, ForwardEdgeStats};
pub use kcfi::{KcfiPolicy, KcfiStats};
pub use landing_pad::{LandingPadPolicy, LandingPadStats};
pub use per_thread::{PerThreadPolicy, ThreadId};
pub use policy::{CfiPolicy, Verdict, ViolationKind};
pub use shadow_stack::{ShadowStackPolicy, ShadowStackStats};
