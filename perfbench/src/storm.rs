//! `phase-storm`: seeded `run_storm` sessions with a store attached.
//!
//! The write side of the specialization layers. Each session runs a
//! rotating `build_phased` hot set (every kernel gets a phase), so the
//! detector fires, zero-benefit CIs are evicted (journaled as `Evict`
//! tombstones in an fsynced WAL) and the new hot set is re-specialized;
//! every run is profiled for the hotness window. Each session ends with a
//! warm-restart `Store::open` that must recover exactly the committed
//! state. `--seed` derives every session's module seed.

use crate::layers::{traced_window, Layers};
use crate::report::{geomean, median, panic_label, quantile, Metrics};
use crate::{Pass, Traced, Workload};
use jitise_apps::{build_phased, PhasedSpec};
use jitise_base::hash::SigHasher;
use jitise_base::SimTime;
use jitise_core::{
    break_even_simplistic, run_storm, AdaptiveOptions, BitstreamCache, EvalContext, PhasePolicy,
    PhaseSegment, StormOptions, StormOutcome, NEVER_AMORTIZE_CAP_NS,
};
use jitise_ir::Module;
use jitise_store::{Store, StoreOptions};
use jitise_telemetry::Telemetry;
use jitise_vm::{CostModel, Interpreter, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: u64 = 16;
const KERNELS: u32 = 3;
const HOT_ITERS: i32 = 240;
const FIRST_RUNS: u32 = 8;
const PHASE_RUNS: u32 = 10;

/// One session's inputs and reference answers.
struct Session {
    spec: PhasedSpec,
    schedule: Vec<PhaseSegment>,
    expected: Vec<Option<Value>>,
    /// Software-only cycles of every run, in order.
    software_cycles: Vec<u64>,
}

pub struct PhaseStorm {
    sessions: Vec<Session>,
}

fn schedule() -> Vec<PhaseSegment> {
    (0..KERNELS)
        .map(|k| {
            let runs = if k == 0 { FIRST_RUNS } else { PHASE_RUNS };
            PhaseSegment::new(vec![Value::I(k as i64), Value::I(2)], runs)
        })
        .collect()
}

fn session_runs() -> u32 {
    schedule().iter().map(|s| s.runs).sum()
}

fn options(store: Arc<Store>) -> StormOptions {
    StormOptions {
        base: AdaptiveOptions {
            store: Some(store),
            ..AdaptiveOptions::default()
        },
        policy: PhasePolicy {
            window: 2,
            cold_share: 0.2,
            hysteresis: 2,
            cooldown: 2,
            max_respecs: KERNELS,
        },
        ready_after_runs: 2,
        ..StormOptions::default()
    }
}

fn open_store(dir: &Path, tel: &Telemetry) -> jitise_base::Result<Store> {
    Store::open_with(
        dir,
        StoreOptions {
            telemetry: tel.clone(),
            ..StoreOptions::default()
        },
    )
}

/// What one pass observed, beyond the outcomes themselves.
#[derive(Default)]
struct StoreTotals {
    bytes_written: u64,
    recover_s: f64,
    recovered_records: u64,
}

type OpResult = Result<StormOutcome, String>;

impl PhaseStorm {
    pub fn new(seed: u64) -> PhaseStorm {
        let sessions = (0..SESSIONS)
            .map(|i| {
                let mut h = SigHasher::new();
                h.write_str("perfbench.storm");
                h.write_u64(seed).write_u64(i);
                let spec = PhasedSpec {
                    seed: h.finish(),
                    kernels: KERNELS,
                    hot_iters: HOT_ITERS,
                    ..PhasedSpec::default()
                };
                let module = build_phased(&spec);
                let schedule = schedule();
                let (mut expected, mut software_cycles) = (Vec::new(), Vec::new());
                for seg in &schedule {
                    let out = Interpreter::new(&module)
                        .run("main", &seg.args)
                        .expect("reference run of a phased workload");
                    for _ in 0..seg.runs {
                        expected.push(out.ret);
                        software_cycles.push(out.cycles);
                    }
                }
                Session {
                    spec,
                    schedule,
                    expected,
                    software_cycles,
                }
            })
            .collect();
        PhaseStorm { sessions }
    }

    /// Fresh context, modules and stores for one pass.
    fn setup(
        &self,
        scratch: &Path,
        tel: &Telemetry,
    ) -> (EvalContext, Vec<Module>, Vec<Arc<Store>>) {
        let ctx = EvalContext::with_telemetry(tel.clone());
        let modules = self
            .sessions
            .iter()
            .map(|s| build_phased(&s.spec))
            .collect();
        let stores = (0..self.sessions.len())
            .map(|i| {
                Arc::new(open_store(&scratch.join(format!("s{i}")), tel).expect("store opens"))
            })
            .collect();
        (ctx, modules, stores)
    }

    /// Runs every session, each followed by its warm restart.
    fn run(
        &self,
        scratch: &Path,
        tel: &Telemetry,
        ctx: &EvalContext,
        modules: &[Module],
        stores: Vec<Arc<Store>>,
    ) -> (Vec<OpResult>, Vec<f64>, StoreTotals) {
        let mut totals = StoreTotals::default();
        let mut op_s = Vec::new();
        let mut ops = Vec::new();
        for (i, ((session, module), store)) in
            self.sessions.iter().zip(modules).zip(stores).enumerate()
        {
            let start = Instant::now();
            let cache = BitstreamCache::new();
            let opts = options(Arc::clone(&store));
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_storm(ctx, &cache, module, "main", &session.schedule, &opts)
            }));
            drop(opts);
            let live = store.state().fingerprint();
            totals.bytes_written += store.bytes_written();
            drop(store);

            let t = Instant::now();
            let reopened = open_store(&scratch.join(format!("s{i}")), tel);
            totals.recover_s += t.elapsed().as_secs_f64();
            let recovered = match reopened {
                Ok(s) => {
                    totals.recovered_records += s.recovery().records_recovered;
                    s.state().fingerprint() == live
                }
                Err(_) => false,
            };
            ops.push(match out {
                Err(payload) => Err(panic_label(payload)),
                Ok(Err(e)) => Err(format!("err: {e}")),
                Ok(Ok(_)) if !recovered => Err("warm restart lost committed state".into()),
                Ok(Ok(out)) => Ok(out),
            });
            op_s.push(start.elapsed().as_secs_f64());
        }
        (ops, op_s, totals)
    }

    fn record(&self, setup_s: f64, op_s: Vec<f64>, ops: &[OpResult]) -> Pass {
        let cost = CostModel::ppc405();
        let mut failed = 0;
        let mut fingerprints = Vec::new();
        let mut speedups = Vec::new();
        let mut break_even = Vec::new();
        let mut ttfs = Vec::new();
        let mut overhead = SimTime::ZERO;
        let mut served = 0u32;
        for (op, session) in ops.iter().zip(&self.sessions) {
            let out = match op {
                Ok(out) if out.results == session.expected => out,
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
            fingerprints.push(format!(
                "{} ov={}",
                out.fingerprint(),
                out.overhead.as_nanos()
            ));
            let software: u64 = session.software_cycles.iter().sum();
            let actual: u64 = out.run_cycles.iter().sum();
            speedups.push(software as f64 / actual.max(1) as f64);
            overhead += out.overhead;
            if out.degraded.is_none() && out.swaps > 0 {
                served += 1;
            }
            let runs = out.run_cycles.len().max(1) as u64;
            let be = break_even_simplistic(
                cost.cycles_to_time(software / runs),
                cost.cycles_to_time(software.saturating_sub(actual) / runs),
                out.overhead,
            )
            .map_or(NEVER_AMORTIZE_CAP_NS, |t| {
                t.as_nanos().min(NEVER_AMORTIZE_CAP_NS)
            });
            break_even.push(be as f64 * 1e-9);
            // Modeled time to first speedup: the profiling run, then the
            // initial specialization's makespan.
            if let (Some(first), Some(report)) = (out.run_cycles.first(), out.reports.first()) {
                ttfs.push((cost.cycles_to_time(*first) + report.makespan).as_secs_f64());
            }
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
            served as f64 / self.sessions.len() as f64,
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

impl Workload for PhaseStorm {
    fn ops(&self) -> u64 {
        self.sessions.len() as u64
    }

    fn size(&self) -> String {
        let runs = session_runs();
        format!(
            "\"op\": \"storm session\", \"sessions\": {SESSIONS}, \"storm_runs\": {}, \
             \"runs_per_session\": {runs}, \"kernels\": {KERNELS}, \"cad_workers\": 1",
            SESSIONS * runs as u64
        )
    }

    fn threads(&self) -> usize {
        2
    }

    fn setup_s(&self, scratch: &Path) -> f64 {
        crate::time_setup(|| self.setup(scratch, &Telemetry::disabled()))
    }

    fn pass(&self, scratch: &Path) -> Pass {
        let tel = Telemetry::disabled();
        let t = Instant::now();
        let (ctx, modules, stores) = self.setup(scratch, &tel);
        let setup_s = t.elapsed().as_secs_f64();
        let (ops, op_s, _) = self.run(scratch, &tel, &ctx, &modules, stores);
        self.record(setup_s, op_s, &ops)
    }

    fn traced(&self, scratch: &Path, untraced_wall_s: f64) -> Traced {
        let tel = Telemetry::enabled();
        let t = Instant::now();
        let (ctx, modules, stores) = self.setup(scratch, &tel);
        let setup_s = t.elapsed().as_secs_f64();
        let ((ops, op_s, store), wall_s, totals) =
            traced_window(&tel, || self.run(scratch, &tel, &ctx, &modules, stores));
        let outs: Vec<&StormOutcome> = ops.iter().filter_map(|o| o.as_ref().ok()).collect();
        let reports = || outs.iter().flat_map(|o| &o.reports);
        let sum = |f: fn(&StormOutcome) -> u64| outs.iter().map(|o| f(o)).sum::<u64>();
        // Sessions run one after another; each starts with its profiling
        // run, and every run feeds the hotness window.
        let (vm_busy_s, vm_profile_busy_s) = totals.vm_split_s(session_runs() as usize);
        let layers = Layers {
            vm_busy_s,
            vm_profile_busy_s,
            vm_guest_insts: totals.counter(jitise_telemetry::names::VM_INSTRUCTIONS),
            ise_search_s: totals.span_s("ise.search"),
            ise_selected: reports()
                .map(|r| r.search.selection.selected.len() as u64)
                .sum(),
            core_failed: reports().map(|r| r.failed.len() as u64).sum(),
            core_retries: reports().map(|r| r.retries).sum(),
            cad_busy_s: totals.cad_busy_s(),
            cad_jobs: totals.cad_flow_runs(),
            cad_sim_tool_s: reports().map(|r| r.cpu_time).sum::<SimTime>().as_secs_f64(),
            store_bytes_written: store.bytes_written,
            store_recover_s: store.recover_s,
            store_recovered_records: store.recovered_records,
            storm_phases_detected: sum(|o| o.phases_detected as u64),
            storm_evictions: sum(|o| o.evictions),
            storm_respecs: sum(|o| o.respecs as u64),
            storm_swaps: sum(|o| o.swaps as u64),
            trace_overhead_ratio: wall_s / untraced_wall_s,
            trace_unattributed_s: wall_s - store.recover_s - totals.main_leaf_s,
            tel: totals,
            ..Layers::default()
        };
        Traced {
            pass: self.record(setup_s, op_s, &ops),
            layers: layers.metrics(),
        }
    }
}
