//! Tier invariance for the adaptive runtime (DESIGN.md §15).
//!
//! The fast dispatch tier is allowed to change exactly one thing: host
//! wall-clock. Every observable of an adaptive or storm session — run
//! results, cycle accounting, specialization reports, phase decisions,
//! simulated overhead — must be bit-identical whichever tier executes the
//! workload. These tests run full sessions once per tier and compare the
//! outcome fingerprints (which fold in results, cycles, reports, and
//! degradation state).

use jitise_apps::{build_phased, App, PhasedSpec};
use jitise_cad::OverlayLibrary;
use jitise_core::{
    run_adaptive_with, run_storm, AdaptiveOptions, BitstreamCache, EvalContext, PhasePolicy,
    PhaseSegment, StormOptions, StormOutcome,
};
use jitise_vm::{Value, VmTier};
use std::sync::Arc;

fn adaptive_fingerprint(tier: VmTier) -> String {
    let app = App::build("adpcm").expect("paper app");
    let outcome = run_adaptive_with(
        &EvalContext::new(),
        &BitstreamCache::new(),
        &app.module,
        app.entry,
        &app.datasets[0].args,
        4,
        2,
        &AdaptiveOptions {
            vm_tier: tier,
            ..AdaptiveOptions::default()
        },
    )
    .expect("session terminates");
    outcome.fingerprint()
}

#[test]
fn adaptive_session_is_tier_invariant() {
    assert_eq!(
        adaptive_fingerprint(VmTier::Interp),
        adaptive_fingerprint(VmTier::Fast),
        "fast tier changed an adaptive-session observable"
    );
}

/// A two-phase storm session; `overlay` enables two-tier installation
/// for the initial specialization and every re-specialization.
fn storm(tier: VmTier, overlay: bool) -> StormOutcome {
    let ctx = EvalContext::new();
    let m = build_phased(&PhasedSpec {
        seed: 7,
        kernels: 2,
        hot_iters: 120,
        ..PhasedSpec::default()
    });
    let schedule = vec![
        PhaseSegment::new(vec![Value::I(0), Value::I(2)], 6),
        PhaseSegment::new(vec![Value::I(1), Value::I(2)], 8),
    ];
    let options = StormOptions {
        base: AdaptiveOptions {
            vm_tier: tier,
            overlay: overlay.then(|| Arc::new(OverlayLibrary::from_db(&ctx.db))),
            ..AdaptiveOptions::default()
        },
        policy: PhasePolicy {
            window: 2,
            cold_share: 0.2,
            hysteresis: 2,
            cooldown: 2,
            max_respecs: 3,
        },
        ready_after_runs: 2,
        ..StormOptions::default()
    };
    run_storm(
        &ctx,
        &BitstreamCache::new(),
        &m,
        "main",
        &schedule,
        &options,
    )
    .expect("storm terminates")
}

#[test]
fn storm_session_is_tier_invariant() {
    assert_eq!(
        storm(VmTier::Interp, false).fingerprint(),
        storm(VmTier::Fast, false).fingerprint(),
        "fast tier changed a storm-session observable"
    );
}

/// With two-tier installation the fast tier runs overlay-installed
/// specialized binaries too (and re-decodes each re-specialization);
/// every observable must still match the interpreter.
#[test]
fn storm_session_with_overlay_is_tier_invariant() {
    let fast = storm(VmTier::Fast, true);
    assert!(
        fast.reports.iter().any(|r| r.overlay_installs >= 1),
        "the two-tier path must engage"
    );
    assert!(fast.swaps >= 2, "a re-specialization must swap binaries");
    assert_eq!(
        storm(VmTier::Interp, true).fingerprint(),
        fast.fingerprint(),
        "fast tier changed a two-tier storm-session observable"
    );
}
