//! # cheriot-fault — deterministic fault injection and invariant checking
//!
//! The paper's core claim is that CHERIoT converts every spatial, temporal,
//! and pointer-integrity violation into a recoverable trap rather than
//! silent corruption. This crate puts that claim under adversarial load:
//!
//! - [`FaultPlan`] / [`Injector`] — a seed-driven (xorshift, no wall
//!   clock) schedule of physical-style upsets: capability tag clears,
//!   single-bit corruption of bounds/otype/permission fields, revocation
//!   bitmap flips, data-bit flips, and interrupt storms/drops.
//! - [`InvariantChecker`] — re-derives the safety invariants the encoding
//!   and allocator protocol promise (tag provenance, bounds and permission
//!   monotonicity, quarantine no-reuse and paint, stack zeroing, trace
//!   integrity) from ground truth the injector cannot forge, reporting
//!   structured [`InvariantViolation`]s instead of panicking.
//! - [`run_campaigns`] — reference-vs-faulted campaign execution with
//!   outcome classification (benign / trapped-safely / invariant-violation
//!   / sim-error / silent-divergence / panicked), fanned out over scoped
//!   threads with per-campaign `catch_unwind`, and JSON + text reports.
//!
//! ## Example
//!
//! ```
//! use cheriot_fault::{run_campaigns, CampaignConfig, Outcome};
//!
//! let report = run_campaigns(&CampaignConfig {
//!     count: 2,
//!     ..CampaignConfig::default()
//! });
//! assert_eq!(report.count(Outcome::Panicked), 0);
//! assert_eq!(report.count(Outcome::SilentDivergence), 0);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod inject;
pub mod invariant;
pub mod plan;
pub mod rng;

pub use campaign::{run_campaigns, CampaignConfig, CampaignReport, CampaignResult, Outcome};
pub use cheriot_trace::json; // for `cheriot-benchmark`, which imports `cheriot_fault::json::Json`
pub use inject::{Applied, InjectEffect, Injector};
pub use invariant::{InvariantChecker, InvariantKind, InvariantViolation};
pub use plan::{CapField, FaultClass, FaultEntry, FaultKind, FaultPlan, PlanConfig};
pub use rng::XorShift64;
