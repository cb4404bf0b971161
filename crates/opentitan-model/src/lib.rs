//! A model of the OpenTitan silicon root of trust.
//!
//! TitanCFI's central idea is to run CFI enforcement *inside the RoT that is
//! already on the SoC* (paper §I). This crate models the pieces of OpenTitan
//! the paper relies on:
//!
//! * the Ibex security microcontroller (via `ibex-model`) behind the RoT
//!   memory map ([`rot::map`]),
//! * the private 128 KB scratchpad (tamper-proof shadow-stack storage),
//! * the [`hmac`] accelerator (HMAC-SHA-256, built on a from-scratch
//!   [`sha256`]) used to authenticate CFI metadata spilled to SoC memory,
//! * the scrambled, ECC-protected embedded [`flash`] (key storage),
//! * the SCMI-style CFI [`mailbox`] and the [`plic`] interrupt path that
//!   deliver commit logs from the host domain, both owned by the RoT bus,
//! * the register-level SCMI system mailbox ([`scmi_wire`]) serving
//!   version and attestation requests.
//!
//! [`OpenTitan::new`] composes all of it around an assembled firmware image;
//! [`LatencyProfile`] selects between the paper's baseline and "Optimized"
//! interconnects.

#![forbid(unsafe_code)]

pub mod attestation;
pub mod flash;
pub mod hmac;
pub mod mailbox;
pub mod plic;
pub mod rot;
pub mod scmi_wire;
pub mod secure_boot;
pub mod sha256;

pub use attestation::{verify_report, AttestationReport, Attestor, Challenge};
pub use flash::{EccRead, Flash, Scrambler};
pub use hmac::HmacEngine;
pub use mailbox::CfiMailbox;
pub use plic::Plic;
pub use rot::{LatencyProfile, OpenTitan};
pub use scmi_wire::{ScmiWire, ScmiWireService};
pub use secure_boot::{boot, provision, BootError, BootReport};
