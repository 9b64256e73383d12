//! `serve-fleet`: one overloaded multi-tenant `run_serve` fleet.
//!
//! The CAD-dominated, shared-cache-read workload, and the only one that
//! runs admission control, deficit-round-robin pool scheduling and the
//! two-tier overlay install and upgrade path. The fleet is sized so that
//! well over 1,000 tenants reach a speedup while defer and shed fire; it
//! cycles over 6 distinct workloads on 2 CAD lanes with a shared cache
//! large enough never to evict. `--seed` is the fleet seed.

use crate::layers::{traced_window, Layers};
use crate::report::{geomean, panic_label, Metrics};
use crate::{Pass, Traced, Workload};
use jitise_base::SimTime;
use jitise_cad::OverlayLibrary;
use jitise_core::EvalContext;
use jitise_serve::{admission_schedule, fleet, run_serve, Admission, ServeConfig, ServeOutcome};
use jitise_telemetry::Telemetry;
use jitise_vm::{CostModel, Interpreter, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: u32 = 1_700;
const CAD_LANES: usize = 2;
const RUNS_PER_TENANT: u32 = 3;

pub struct ServeFleet {
    seed: u64,
    /// Expected answers and software-only cycles of one run, per tenant.
    expected: Vec<(Vec<Option<Value>>, u64)>,
}

/// The fleet's configuration with the given overlay library and
/// observability sink.
fn config(seed: u64, overlay: Option<Arc<OverlayLibrary>>, tel: Telemetry) -> ServeConfig {
    ServeConfig {
        seed,
        tenants: TENANTS,
        cad_workers: CAD_LANES,
        max_active: 12,
        defer_capacity: 8,
        arrival_spacing_us: 100,
        service_model_us: 2_000,
        runs_per_tenant: RUNS_PER_TENANT,
        distinct_workloads: 6,
        kernels: 4,
        hot_iters: 40,
        cache_capacity: 1 << 20,
        overlay,
        telemetry: tel,
        ..ServeConfig::default()
    }
}

fn setup() -> EvalContext {
    EvalContext::new().with_overlay()
}

impl ServeFleet {
    pub fn new(seed: u64) -> ServeFleet {
        let cfg = config(seed, None, Telemetry::disabled());
        let specs = fleet(
            cfg.seed,
            cfg.tenants,
            cfg.arrival_spacing_us,
            cfg.service_model_us,
            cfg.distinct_workloads,
            cfg.kernels,
        );
        let mut memo: HashMap<(u64, i64), (Option<Value>, u64)> = HashMap::new();
        let expected = specs
            .iter()
            .map(|spec| {
                let (ret, cycles) =
                    *memo
                        .entry((spec.workload_seed, spec.sel))
                        .or_insert_with(|| {
                            let module = jitise_serve::workload_module(
                                spec,
                                cfg.kernels,
                                cfg.hot_iters,
                                cfg.near_duplicate,
                            );
                            let out = Interpreter::new(&module)
                                .run("main", &[Value::I(spec.sel), Value::I(2)])
                                .expect("reference run of a tenant workload");
                            (out.ret, out.cycles)
                        });
                (vec![ret; cfg.runs_per_tenant as usize], cycles)
            })
            .collect();
        ServeFleet { seed, expected }
    }

    fn record(&self, setup_s: f64, wall_s: f64, op: Result<&ServeOutcome, String>) -> Pass {
        let op_s = vec![wall_s];
        let out = match op {
            Ok(out) => out,
            Err(e) => {
                return Pass {
                    setup_s,
                    op_s,
                    fingerprints: vec![e],
                    failed: self.ops(),
                    exact: Metrics::default(),
                }
            }
        };
        let mut failed = 0u64;
        let mut speedups = Vec::new();
        let mut served = 0u32;
        // Fleet-level amortization: one run of every tenant's workload
        // against the shared pool's makespan.
        let (mut software_cycles, mut saved_cycles) = (0u64, 0i128);
        for (t, (want, cycles)) in out.tenants.iter().zip(&self.expected) {
            if &t.results != want {
                failed += 1;
            }
            let speedup = f64::from_bits(t.speedup_bits);
            speedups.push(speedup);
            if t.admission != Admission::Shed && t.degraded.is_none() {
                served += 1;
            }
            software_cycles += cycles;
            saved_cycles += *cycles as i128 - (*cycles as f64 / speedup).round() as i128;
        }
        failed += (self.expected.len() as u64).saturating_sub(out.tenants.len() as u64);
        let cost = CostModel::ppc405();
        let break_even = jitise_core::break_even_simplistic(
            cost.cycles_to_time(software_cycles),
            cost.cycles_to_time(saved_cycles.max(0) as u64),
            out.timing.makespan,
        )
        .map_or(jitise_core::NEVER_AMORTIZE_CAP_NS, |t| t.as_nanos());
        let mut exact = Metrics::default();
        exact.push("sim_speedup_geomean", geomean(&speedups), "x");
        exact.push("sim_overhead_s", out.timing.makespan.as_secs_f64(), "sim_s");
        exact.push("sim_break_even_s", break_even as f64 * 1e-9, "sim_s");
        let us = |v: u64| SimTime::from_micros(v).as_secs_f64();
        exact.push("sim_ttfs_p50_s", us(out.timing.ttfs_p50_us), "sim_s");
        exact.push("sim_ttfs_p99_s", us(out.timing.ttfs_p99_us), "sim_s");
        exact.push(
            "served_share",
            served as f64 / self.expected.len() as f64,
            "ratio",
        );
        Pass {
            setup_s,
            op_s,
            fingerprints: vec![out.fingerprint(), format!("{:?}", out.timing)],
            failed,
            exact,
        }
    }

    fn serve(&self, ctx: &EvalContext, tel: Telemetry) -> Result<ServeOutcome, String> {
        let cfg = config(self.seed, ctx.overlay.clone(), tel);
        catch_unwind(AssertUnwindSafe(|| run_serve(ctx, &cfg)))
            .map_err(panic_label)
            .and_then(|r| r.map_err(|e| format!("err: {e}")))
    }
}

impl Workload for ServeFleet {
    fn ops(&self) -> u64 {
        self.expected.len() as u64
    }

    fn size(&self) -> String {
        format!(
            "\"op\": \"tenant\", \"tenants\": {TENANTS}, \"cad_lanes\": {CAD_LANES}, \
             \"distinct_workloads\": 6, \"runs_per_tenant\": {RUNS_PER_TENANT}"
        )
    }

    fn threads(&self) -> usize {
        // The main thread waits while the CAD pool's lanes run.
        CAD_LANES
    }

    fn setup_s(&self, _scratch: &Path) -> f64 {
        crate::time_setup(setup)
    }

    fn pass(&self, _scratch: &Path) -> Pass {
        let t = Instant::now();
        let ctx = setup();
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let out = self.serve(&ctx, Telemetry::disabled());
        let wall_s = t.elapsed().as_secs_f64();
        self.record(setup_s, wall_s, out.as_ref().map_err(Clone::clone))
    }

    fn traced(&self, _scratch: &Path, untraced_wall_s: f64) -> Traced {
        let tel = Telemetry::enabled();
        let t = Instant::now();
        let ctx = setup();
        let setup_s = t.elapsed().as_secs_f64();

        let ((admissions, admission_s, out), wall_s, totals) = traced_window(&tel, || {
            // The admission layer, timed on its own: the same pure
            // functions `run_serve` calls first.
            let t = Instant::now();
            let cfg = config(self.seed, None, Telemetry::disabled());
            let admissions = admission_schedule(
                &fleet(
                    cfg.seed,
                    cfg.tenants,
                    cfg.arrival_spacing_us,
                    cfg.service_model_us,
                    cfg.distinct_workloads,
                    cfg.kernels,
                ),
                cfg.max_active,
                cfg.defer_capacity,
            );
            let admission_s = t.elapsed().as_secs_f64();
            (admissions, admission_s, self.serve(&ctx, tel.clone()))
        });
        let mut pass = self.record(setup_s, wall_s, out.as_ref().map_err(Clone::clone));
        // `run_serve` executes tenants one after another, each running
        // its profiling run first.
        let (vm_busy_s, vm_profile_busy_s) = totals.vm_split_s(RUNS_PER_TENANT as usize);
        let mut layers = Layers {
            vm_busy_s,
            vm_profile_busy_s,
            vm_guest_insts: totals.counter(jitise_telemetry::names::VM_INSTRUCTIONS),
            ise_search_s: totals.span_s("ise.search"),
            ise_selected: totals.counter(jitise_telemetry::names::CANDIDATES_SELECTED),
            cad_busy_s: totals.cad_busy_s(),
            cad_jobs: totals.cad_flow_runs(),
            serve_admission_s: admission_s,
            trace_overhead_ratio: wall_s / untraced_wall_s,
            trace_unattributed_s: wall_s - admission_s - totals.main_leaf_s,
            ..Layers::default()
        };
        if let Ok(out) = &out {
            let by_tenant: Vec<Admission> = out.tenants.iter().map(|t| t.admission).collect();
            if by_tenant != admissions {
                pass.failed += 1;
                pass.fingerprints.push("admission schedule differs".into());
            }
            layers.core_failed = out.tenants.iter().map(|t| t.failed as u64).sum();
            layers.core_retries = out.tenants.iter().map(|t| t.retries).sum();
            layers.cad_sim_tool_s = out
                .tenants
                .iter()
                .map(|t| t.cpu_time)
                .sum::<SimTime>()
                .as_secs_f64();
            layers.cad_overlay_installs = out.overlay_installs;
            layers.cad_upgrades = out.upgrades;
            layers.serve_shed = out.shed as u64;
            layers.serve_deferred = out.deferred as u64;
            layers.serve_degraded = out.degraded as u64;
            layers.serve_pool_jobs = out.timing.pool_jobs as u64;
            layers.serve_max_queue_depth = out.timing.max_queue_depth as u64;
            layers.serve_max_rounds_waited = out.timing.max_rounds_waited as u64;
            layers.serve_evictions = out.evictions;
        }
        layers.tel = totals;
        Traced {
            pass,
            layers: layers.metrics(),
        }
    }
}
