//! jitise-serve: multi-tenant specialization service.
//!
//! Runs many synthetic tenants (from the calibrated `jitise-apps`
//! generator, on a seeded open-loop arrival schedule) against **shared**
//! just-in-time specialization infrastructure: one content-addressed
//! bitstream cache, one quarantine, one crash-consistent store WAL, and
//! one bounded CAD worker pool. The robustness contract:
//!
//! - **Admission control** — bounded active slots plus a bounded FIFO
//!   defer queue; overload surfaces as typed [`Admission::Deferred`] /
//!   [`Admission::Shed`] outcomes, never a panic, and shed tenants still
//!   get correct software-only results.
//! - **Fair scheduling** — the shared pool is arbitrated with deficit
//!   round robin ([`jitise_cad::sched`]), so a heavy tenant cannot
//!   starve a light one: every job's scheduling delay stays below
//!   `ceil(charge/quantum)` rounds.
//! - **Graceful degradation** — worker faults, specialization failures,
//!   and per-tenant deadline exhaustion degrade only the affected tenant
//!   to software-only execution ([`jitise_core::DegradedReason`]); every
//!   other tenant is untouched.
//! - **Crash-storm survival** — a store death mid-serve plus burst CAD
//!   faults recovers to exactly the committed prefix on warm restart,
//!   and the service keeps serving.
//!
//! Tenants run their workloads on the fast VM tier by default, with one
//! fleet-scoped decode cache: each distinct base or specialized module
//! is pre-decoded once per fleet, however many tenants run it.
//!
//! Determinism is the through-line: a fixed-seed, fixed-fleet run
//! produces a bit-identical [`ServeOutcome::fingerprint`] at any
//! `cad_workers`. See DESIGN.md §16.

pub mod engine;
pub mod tenant;

pub use engine::{
    run_serve, workload_module, FleetTiming, ServeConfig, ServeOutcome, TenantOutcome,
};
pub use tenant::{admission_schedule, fleet, Admission, TenantSpec};
