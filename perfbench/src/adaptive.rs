//! `paper-adaptive`: the paper's own JIT scenario.
//!
//! The 14 paper applications, each one cold `run_adaptive_with` session
//! (dataset 0, 16 runs, swap after 2, default full-CAD-only options, one
//! CAD lane: the main VM thread plus the specialization worker). All 14
//! share one `EvalContext` and its bitstream cache, visited in table
//! order, as the table binaries do. The workload is fixed by the paper,
//! so it ignores `--seed`.
//!
//! The traced pass replays every session through the public step API —
//! `WorkloadSession::profile_run`, `candidate_search`,
//! `SpecializeSession::{begin, execute, finalize}`, then `software_run`
//! and `adapted_run` — timing each call on the main thread, and must
//! reproduce each session's `AdaptiveOutcome::fingerprint`. The replay
//! visits the apps in the same order: the shared netlist cache carries
//! C2V state from one app to the next.

use crate::layers::{traced_window, Layers};
use crate::report::{geomean, median, panic_label, quantile, Metrics};
use crate::{Pass, Traced, Workload};
use jitise_apps::App;
use jitise_base::SimTime;
use jitise_core::{
    break_even_simplistic, run_adaptive_with, AdaptiveOptions, AdaptiveOutcome, DegradedReason,
    EvalContext, SpecializeConfig, SpecializeSession, WorkloadSession, NEVER_AMORTIZE_CAP_NS,
};
use jitise_ise::{candidate_search, SearchConfig};
use jitise_telemetry::Telemetry;
use jitise_vm::{CostModel, Interpreter, Value, VmTier};
use jitise_woolcano::Woolcano;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

const RUNS: u32 = 16;
const READY_AFTER: u32 = 2;
const DATASET: usize = 0;

pub struct PaperAdaptive {
    /// Expected return value of every run of each app, in table order.
    expected: Vec<Vec<Option<Value>>>,
}

/// A session's answer check: `Ok` fingerprint or a failure label.
type OpResult = Result<AdaptiveOutcome, String>;

impl PaperAdaptive {
    pub fn new() -> PaperAdaptive {
        let expected = App::all()
            .iter()
            .map(|app| {
                let out = Interpreter::new(&app.module)
                    .run(app.entry, &app.datasets[DATASET].args)
                    .expect("reference run of a paper app");
                vec![out.ret; RUNS as usize]
            })
            .collect();
        PaperAdaptive { expected }
    }

    /// Turns the sessions' outcomes into a pass record.
    fn record(&self, setup_s: f64, op_s: Vec<f64>, ops: Vec<OpResult>) -> Pass {
        let cost = CostModel::ppc405();
        let mut failed = 0;
        let mut fingerprints = Vec::new();
        let mut speedups = Vec::new();
        let mut break_even = Vec::new();
        let mut ttfs = Vec::new();
        let mut overhead = SimTime::ZERO;
        let mut served = 0u32;
        for (op, want) in ops.iter().zip(&self.expected) {
            let out = match op {
                Ok(out) if &out.results == want => out,
                Ok(_) => {
                    failed += 1;
                    fingerprints.push("wrong answers".into());
                    continue;
                }
                Err(e) => {
                    failed += 1;
                    fingerprints.push(e.clone());
                    continue;
                }
            };
            fingerprints.push(out.fingerprint());
            speedups.push(out.observed_speedup);
            overhead += out.overhead;
            if out.degraded.is_none() {
                served += 1;
            }
            let before = cost.cycles_to_time(out.cycles_before);
            let saved = cost.cycles_to_time(out.cycles_before.saturating_sub(out.cycles_after));
            let be = break_even_simplistic(before, saved, out.overhead)
                .map_or(NEVER_AMORTIZE_CAP_NS, |t| {
                    t.as_nanos().min(NEVER_AMORTIZE_CAP_NS)
                });
            break_even.push(be as f64 * 1e-9);
            // Modeled time to first speedup: the profiling run, then the
            // specialization makespan.
            ttfs.push((before + out.overhead).as_secs_f64());
        }
        let mut exact = Metrics::default();
        exact.push("sim_speedup_geomean", geomean(&speedups), "x");
        exact.push("sim_overhead_s", overhead.as_secs_f64(), "sim_s");
        exact.push("sim_break_even_s", median(&break_even), "sim_s");
        let q = |p| {
            if ttfs.is_empty() {
                0.0
            } else {
                quantile(&ttfs, p)
            }
        };
        exact.push("sim_ttfs_p50_s", q(0.5), "sim_s");
        exact.push("sim_ttfs_p99_s", q(0.99), "sim_s");
        exact.push(
            "served_share",
            served as f64 / self.expected.len() as f64,
            "ratio",
        );
        Pass {
            setup_s,
            op_s,
            fingerprints,
            failed,
            exact,
        }
    }
}

fn setup(tel: Telemetry) -> (EvalContext, Vec<App>) {
    (EvalContext::with_telemetry(tel), App::all())
}

/// Host seconds per replay step, summed over sessions.
#[derive(Default)]
struct Steps {
    profile: f64,
    search: f64,
    begin: f64,
    execute: f64,
    finalize: f64,
    runs: f64,
    jobs: u64,
    selected: u64,
    failed: u64,
    retries: u64,
    sim_tool: SimTime,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// One session through the step API, in `run_adaptive_with`'s order and
/// with its configuration, rebuilding the outcome it would report.
fn replay(ctx: &EvalContext, app: &App, steps: &mut Steps) -> jitise_base::Result<AdaptiveOutcome> {
    let tel = &ctx.telemetry;
    let args = &app.datasets[DATASET].args;
    let mut ws = WorkloadSession::new(VmTier::Interp);
    let profile = timed(&mut steps.profile, || {
        ws.profile_run(&app.module, app.entry, args, tel)
    })?;

    let config = SpecializeConfig {
        search: SearchConfig {
            workers: 1,
            memo: None,
            ..SearchConfig::default()
        },
        telemetry: tel.clone(),
        ..SpecializeConfig::default()
    };
    let search = timed(&mut steps.search, || {
        candidate_search(
            &app.module,
            &profile,
            &ctx.estimator,
            &SearchConfig::default(),
        )
    });
    steps.selected += search.selection.selected.len() as u64;

    let machine = Woolcano::with_telemetry(512, tel.clone());
    let mut m = app.module.clone();
    let (session, jobs) = timed(&mut steps.begin, || {
        SpecializeSession::begin(
            &m,
            &profile,
            &machine,
            &ctx.estimator,
            &ctx.db,
            &ctx.netlists,
            &ctx.bitstreams,
            &config,
        )
    });
    steps.jobs += jobs.len() as u64;
    let results = timed(&mut steps.execute, || {
        jobs.iter().map(|j| session.execute(j)).collect()
    });
    let report = timed(&mut steps.finalize, || session.finalize(&mut m, results));

    let (report, degraded) = match report {
        Ok(r) => {
            if r.search.fingerprint() != search.fingerprint() {
                return Err(jitise_base::Error::Arch(
                    "stand-alone search differs from the pipeline's".into(),
                ));
            }
            steps.failed += r.failed.len() as u64;
            steps.retries += r.retries;
            steps.sim_tool += r.cpu_time;
            (Some(r), None)
        }
        Err(e) => (None, Some(DegradedReason::SpecializeFailed(e.to_string()))),
    };
    let t = Instant::now();
    for run in 1..RUNS {
        if report.is_some() && run >= READY_AFTER {
            ws.adapted_run(&m, &machine, app.entry, args, tel)?;
        } else {
            ws.software_run(&app.module, app.entry, args, tel)?;
        }
    }
    steps.runs += t.elapsed().as_secs_f64();

    Ok(AdaptiveOutcome {
        runs_before: ws.runs_before(),
        runs_after: ws.runs_after(),
        cycles_before: ws.avg_before(),
        cycles_after: ws.avg_after(),
        observed_speedup: ws.observed_speedup(),
        overhead: report.as_ref().map_or(SimTime::ZERO, |r| r.makespan),
        report,
        degraded,
        results: ws.into_results(),
    })
}

impl Workload for PaperAdaptive {
    fn ops(&self) -> u64 {
        self.expected.len() as u64
    }

    fn size(&self) -> String {
        format!(
            "\"op\": \"adaptive session\", \"apps\": {}, \"runs_per_session\": {RUNS}, \
             \"ready_after\": {READY_AFTER}, \"cad_workers\": 1",
            self.expected.len()
        )
    }

    fn threads(&self) -> usize {
        2
    }

    fn setup_s(&self, _scratch: &Path) -> f64 {
        crate::time_setup(|| setup(Telemetry::disabled()))
    }

    fn pass(&self, _scratch: &Path) -> Pass {
        let t = Instant::now();
        let (ctx, apps) = setup(Telemetry::disabled());
        let setup_s = t.elapsed().as_secs_f64();
        let mut op_s = Vec::new();
        let ops: Vec<OpResult> = apps
            .iter()
            .map(|app| {
                let t = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    run_adaptive_with(
                        &ctx,
                        &ctx.bitstreams,
                        &app.module,
                        app.entry,
                        &app.datasets[DATASET].args,
                        RUNS,
                        READY_AFTER,
                        &AdaptiveOptions::default(),
                    )
                }))
                .map_err(panic_label)
                .and_then(|r| r.map_err(|e| format!("err: {e}")));
                op_s.push(t.elapsed().as_secs_f64());
                out
            })
            .collect();
        self.record(setup_s, op_s, ops)
    }

    fn traced(&self, _scratch: &Path, untraced_wall_s: f64) -> Traced {
        let tel = Telemetry::enabled();
        let t = Instant::now();
        let (ctx, apps) = setup(tel.clone());
        let setup_s = t.elapsed().as_secs_f64();
        let mut steps = Steps::default();
        let (ops, wall_s, totals) = traced_window(&tel, || {
            apps.iter()
                .map(|app| {
                    catch_unwind(AssertUnwindSafe(|| replay(&ctx, app, &mut steps)))
                        .map_err(panic_label)
                        .and_then(|r| r.map_err(|e| format!("err: {e}")))
                })
                .collect::<Vec<OpResult>>()
        });

        let attributed = steps.profile
            + steps.search
            + steps.begin
            + steps.execute
            + steps.finalize
            + steps.runs;
        let layers = Layers {
            vm_busy_s: steps.runs,
            vm_profile_busy_s: steps.profile,
            vm_guest_insts: totals.counter(jitise_telemetry::names::VM_INSTRUCTIONS),
            ise_search_s: steps.search,
            ise_selected: steps.selected,
            core_dispatch_s: steps.begin,
            core_finalize_s: steps.finalize,
            core_failed: steps.failed,
            core_retries: steps.retries,
            cad_busy_s: steps.execute,
            cad_jobs: steps.jobs,
            cad_sim_tool_s: steps.sim_tool.as_secs_f64(),
            trace_overhead_ratio: wall_s / untraced_wall_s,
            trace_unattributed_s: wall_s - attributed,
            tel: totals,
            ..Layers::default()
        };
        Traced {
            pass: self.record(setup_s, vec![wall_s], ops),
            layers: layers.metrics(),
        }
    }
}
