//! # jitise-woolcano — the reconfigurable ASIP architecture model
//!
//! Woolcano (paper [6], used as the target here) augments the PowerPC-405
//! core of a Xilinx Virtex-4 FX with user-defined instructions that are
//! loaded at runtime via partial reconfiguration. This crate models the
//! architecture-level pieces:
//!
//! * [`semantics`] — functional models of implemented custom instructions
//!   (frozen candidate datapaths), evaluated with the exact interpreter
//!   arithmetic.
//! * [`reconfig`] — the CI slot file and ICAP partial-reconfiguration
//!   controller (bandwidth-based load latency, CRC verification, LRU
//!   eviction).
//! * [`patch`] — the adaptation phase's binary patcher: replaces candidate
//!   subgraphs with `Custom` opcodes.
//! * [`asip`] — [`asip::Woolcano`] itself: base CPU + loaded CIs, bound
//!   to a VM run as the VM's [`jitise_vm::CustomHandler`], plus measured
//!   base-vs-ASIP speedup comparisons.

pub mod asip;
pub mod patch;
pub mod reconfig;
pub mod semantics;

pub use asip::{measure_speedup, CiBinding, SpeedupMeasurement, Woolcano};
pub use patch::{freeze_and_patch, patch_candidate, PatchReport};
pub use reconfig::{LoadedCi, ReconfigController, ICAP_BYTES_PER_SEC};
pub use semantics::{CiArg, CiOp, CiSemantics};
