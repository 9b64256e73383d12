//! Per-application evaluation driver.
//!
//! Runs the complete measurement protocol of §IV–§V for one benchmark:
//! profile on every dataset, coverage classification, kernel analysis,
//! VM/native execution times, the unpruned upper-bound ASIP ratio, the
//! pruned specialization run with per-phase overheads, and both break-even
//! models. The table-reproduction binaries and integration tests consume
//! the resulting [`AppEvaluation`].

use crate::breakeven::{break_even_scaled, break_even_two_tier, BreakEvenInputs, TwoTierInputs};
use crate::cache::BitstreamCache;
use crate::pipeline::{specialize, SpecializeConfig, SpecializeReport};
use jitise_apps::App;
use jitise_base::SimTime;
use jitise_ise::{candidate_search, PruneFilter, SearchConfig, SearchMemo};
use jitise_pivpav::{CircuitDb, NetlistCache, PivPavEstimator};
use jitise_telemetry::Telemetry;
use jitise_vm::coverage::{classify, CoverageClass, CoverageReport};
use jitise_vm::exec_model::ExecTimes;
use jitise_vm::kernel::{kernel, KernelReport, KERNEL_THRESHOLD};
use jitise_vm::{CostModel, Profile, VmTier};
use jitise_woolcano::Woolcano;
use std::sync::Arc;

/// Shared evaluation context (databases and caches reused across apps).
pub struct EvalContext {
    /// The PivPav circuit database.
    pub db: CircuitDb,
    /// Netlist cache.
    pub netlists: NetlistCache,
    /// Bitstream cache.
    pub bitstreams: BitstreamCache,
    /// Estimator.
    pub estimator: PivPavEstimator,
    /// CPU model.
    pub cost: CostModel,
    /// Observability handle propagated into every specialization run this
    /// context drives (disabled by default).
    pub telemetry: Telemetry,
    /// CAD worker lanes for every specialization run this context drives
    /// (default 1 = the sequential pipeline). Only the report's `makespan`
    /// — and hence the break-even overhead — depends on this.
    pub cad_workers: usize,
    /// Candidate-search worker lanes for every search this context drives
    /// (default 1 = sequential). Changes only wall-clock, never results.
    pub search_workers: usize,
    /// Optional identification memo shared by every search this context
    /// drives (default `None` = no caching).
    pub search_memo: Option<Arc<SearchMemo>>,
    /// Execution tier for every VM run this context drives (default
    /// [`VmTier::default`], the fast tier). The reference
    /// [`VmTier::Interp`] is bit-identical in results, cycles, steps, and
    /// profiles — the tier changes only host wall-clock.
    pub vm_tier: VmTier,
    /// Overlay cell library for two-tier installs (DESIGN.md §17); `None`
    /// (the default) evaluates the full-only pipeline.
    pub overlay: Option<Arc<jitise_cad::OverlayLibrary>>,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// Builds the context (database construction is the expensive part).
    pub fn new() -> EvalContext {
        Self::with_telemetry(Telemetry::disabled())
    }

    /// A context whose pipeline runs record to `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> EvalContext {
        EvalContext {
            db: CircuitDb::build(),
            netlists: NetlistCache::new(),
            bitstreams: BitstreamCache::new(),
            estimator: PivPavEstimator::new(),
            cost: CostModel::ppc405(),
            telemetry,
            cad_workers: 1,
            search_workers: 1,
            search_memo: None,
            vm_tier: VmTier::default(),
            overlay: None,
        }
    }

    /// The same context with the overlay fast path enabled (the library is
    /// generated from this context's own circuit database).
    pub fn with_overlay(mut self) -> EvalContext {
        self.overlay = Some(Arc::new(jitise_cad::OverlayLibrary::from_db(&self.db)));
        self
    }
}

/// Everything measured about one application.
pub struct AppEvaluation {
    /// The application name.
    pub name: &'static str,
    /// Static counts.
    pub blocks: usize,
    /// Static instruction count.
    pub insts: usize,
    /// Modeled compile-to-bitcode time.
    pub compile_time: SimTime,
    /// VM / native execution times and ratio.
    pub exec: ExecTimes,
    /// Coverage classification.
    pub coverage: CoverageReport,
    /// Kernel analysis.
    pub kernel: KernelReport,
    /// Upper-bound ASIP ratio (no pruning, every candidate implemented).
    pub asip_ratio_max: f64,
    /// The specialization report (pruned, Table II).
    pub report: SpecializeReport,
    /// Pruned ASIP ratio (Table II `ratio`).
    pub asip_ratio_pruned: f64,
    /// Break-even time, frequency-scaled model (`None` = never).
    pub break_even: Option<SimTime>,
    /// Break-even time of the two-tier deployment, measured from the
    /// specialization request (`None` when the overlay is disabled or
    /// nothing is saved). Comparable to `upgrade_ready + break_even`, the
    /// full-only time from the request.
    pub break_even_two_tier: Option<SimTime>,
    /// The scaled train profile used throughout.
    pub profile: Profile,
}

/// Break-even inputs extracted for reuse by the Table IV extrapolation.
pub struct BreakEvenBasis {
    /// Per-candidate generation times.
    pub candidate_times: Vec<SimTime>,
    /// Model inputs with `overhead` left at the full (no-cache) value.
    pub inputs: BreakEvenInputs,
    /// Measured overlay assembly overhead (zero without an overlay).
    pub overlay_overhead: SimTime,
    /// Measured fraction of the full savings rate the overlay achieves
    /// (execution-weighted over all candidates; zero without an overlay).
    pub overlay_saved_frac: f64,
}

/// Evaluates one application end to end.
pub fn evaluate_app(ctx: &EvalContext, app: &App) -> AppEvaluation {
    // ---- profiling on all datasets ----
    let raw_profiles = app.profile_all_datasets_tier(ctx.vm_tier);
    let scale = app.time_scale(&raw_profiles[0]);
    let profile = raw_profiles[0].scaled(scale);

    // ---- static + dynamic characterization ----
    let coverage = classify(&app.module, &raw_profiles);
    let kern = kernel(&app.module, &raw_profiles[0], KERNEL_THRESHOLD);
    let exec = app.exec_model.times(&app.module, &profile, &ctx.cost);

    // ---- upper bound: no pruning, min size 2, generous budget ----
    let unpruned_cfg = SearchConfig {
        filter: PruneFilter::none(),
        workers: ctx.search_workers,
        memo: ctx.search_memo.clone(),
        ..SearchConfig::default()
    };
    let unpruned = candidate_search(&app.module, &profile, &ctx.estimator, &unpruned_cfg);

    // ---- pruned specialization (the paper's JIT configuration) ----
    let mut specialized = app.module.clone();
    let machine = Woolcano::new(512);
    let report = specialize(
        &mut specialized,
        &profile,
        &machine,
        &ctx.estimator,
        &ctx.db,
        &ctx.netlists,
        &ctx.bitstreams,
        &SpecializeConfig {
            search: SearchConfig {
                workers: ctx.search_workers,
                memo: ctx.search_memo.clone(),
                ..SearchConfig::default()
            },
            telemetry: ctx.telemetry.clone(),
            cad_workers: ctx.cad_workers,
            overlay: ctx.overlay.clone(),
            ..SpecializeConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: specialization failed: {e}", app.name));
    let asip_ratio_pruned = report.search.asip_ratio;

    // ---- break-even ----
    let basis = break_even_basis(ctx, &coverage, &profile, &report);
    let break_even = break_even_scaled(basis.inputs);
    let break_even_two_tier = if report.overlay_installs > 0 {
        break_even_two_tier(TwoTierInputs {
            base: basis.inputs,
            overlay_overhead: basis.overlay_overhead,
            overlay_saved_frac: basis.overlay_saved_frac,
            upgrade_ready: report.makespan,
        })
    } else {
        None
    };

    AppEvaluation {
        name: app.name,
        blocks: app.module.num_blocks(),
        insts: app.module.num_insts(),
        compile_time: app.compile_time_model(),
        exec,
        coverage,
        kernel: kern,
        asip_ratio_max: unpruned.asip_ratio,
        report,
        asip_ratio_pruned,
        break_even,
        break_even_two_tier,
        profile,
    }
}

/// Extracts the frequency-scaled break-even inputs from a specialization
/// report (shared with the Table IV extrapolation, which re-evaluates the
/// same basis under varying cache rates and tool speedups).
pub fn break_even_basis(
    ctx: &EvalContext,
    coverage: &CoverageReport,
    profile: &Profile,
    report: &SpecializeReport,
) -> BreakEvenBasis {
    // Split execution time into live / const by block class.
    let mut live_cycles: u64 = 0;
    let mut const_cycles: u64 = 0;
    for key in profile.keys() {
        match coverage.class_of(key) {
            CoverageClass::Live => live_cycles += profile.block_cycles(key),
            CoverageClass::Const => const_cycles += profile.block_cycles(key),
            CoverageClass::Dead => {}
        }
    }
    // Savings by class of the candidate's home block; the overlay-tier
    // savings are tracked in parallel to derive the execution-weighted
    // fraction of the full rate the degraded fabric achieves.
    let mut live_saved: u64 = 0;
    let mut const_saved: u64 = 0;
    let mut full_saved_weighted: u64 = 0;
    let mut overlay_saved_weighted: u64 = 0;
    for c in &report.candidates {
        let saved = c.saved_per_exec * profile.count(c.key);
        full_saved_weighted = full_saved_weighted.saturating_add(saved);
        overlay_saved_weighted = overlay_saved_weighted.saturating_add(
            c.overlay_saved_per_exec
                .saturating_mul(profile.count(c.key)),
        );
        match coverage.class_of(c.key) {
            CoverageClass::Live => live_saved += saved,
            CoverageClass::Const => const_saved += saved,
            CoverageClass::Dead => {}
        }
    }
    let overlay_saved_frac = if full_saved_weighted > 0 {
        overlay_saved_weighted as f64 / full_saved_weighted as f64
    } else {
        0.0
    };
    let candidate_times: Vec<SimTime> = report.candidates.iter().map(|c| c.total()).collect();
    BreakEvenBasis {
        inputs: BreakEvenInputs {
            const_time: ctx.cost.cycles_to_time(const_cycles),
            live_time: ctx.cost.cycles_to_time(live_cycles),
            const_saved: ctx.cost.cycles_to_time(const_saved),
            live_saved: ctx.cost.cycles_to_time(live_saved),
            // Amortize the wall-clock overhead: with one CAD worker the
            // makespan is exactly the sequential `sum + fault` total, with
            // more workers only the critical path must be paid off.
            overhead: report.makespan,
        },
        candidate_times,
        overlay_overhead: report.overlay_time,
        overlay_saved_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_sor_end_to_end() {
        let ctx = EvalContext::new();
        let app = App::build("sor").unwrap();
        let ev = evaluate_app(&ctx, &app);
        assert!(ev.asip_ratio_max >= ev.asip_ratio_pruned * 0.95);
        assert!(ev.asip_ratio_pruned > 1.0, "sor must accelerate");
        assert!(ev.exec.ratio > 0.9 && ev.exec.ratio < 1.6);
        assert!(ev.kernel.time_frac >= 0.9);
        let be = ev.break_even.expect("sor amortizes");
        // Paper: 24 minutes. Same order of magnitude: minutes-to-hours.
        assert!(
            be.as_hours_f64() < 24.0,
            "sor break-even {be} should be far under a day"
        );
        assert!(ev.report.sum_time > SimTime::ZERO);
    }

    #[test]
    fn two_tier_break_even_collapses_the_wait() {
        let ctx = EvalContext::new().with_overlay();
        let app = App::build("sor").unwrap();
        let ev = evaluate_app(&ctx, &app);
        assert!(ev.report.overlay_installs > 0);
        assert!(ev.report.upgrades > 0, "background upgrades landed");
        let two_tier = ev
            .break_even_two_tier
            .expect("overlay run yields a two-tier break-even");
        let basis = break_even_basis(&ctx, &ev.coverage, &ev.profile, &ev.report);
        assert!(basis.overlay_overhead > SimTime::ZERO);
        if basis.overlay_saved_frac > 0.0 {
            // Measured from the request, full-only cannot save anything
            // until the CAD makespan elapses; the overlay starts earning
            // immediately and must amortize sooner.
            let full_only = ev.report.makespan + ev.break_even.unwrap();
            assert!(
                two_tier < full_only,
                "two-tier {two_tier} vs full-only-from-request {full_only}"
            );
        }
    }

    #[test]
    fn coverage_classes_present_in_synthetic_app() {
        let ctx = EvalContext::new();
        let app = App::build("429.mcf").unwrap();
        let ev = evaluate_app(&ctx, &app);
        assert!(ev.coverage.dead_frac > 0.0, "dead section must exist");
        assert!(ev.coverage.live_frac > 0.0);
        assert!(ev.coverage.const_frac > 0.0);
    }
}
