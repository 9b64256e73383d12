//! The multi-tenant serve engine.
//!
//! [`run_serve`] admits a seeded tenant fleet against **shared**
//! infrastructure — one content-addressed [`BitstreamCache`], one
//! [`Quarantine`], one optional [`Store`] WAL, one netlist cache, one
//! bounded CAD pool — and drives every tenant to completion with typed
//! degradation instead of failure. Three layers (DESIGN.md §16):
//!
//! 1. **Admission** ([`crate::tenant`]) — lane-invariant event
//!    simulation over modeled service times; decides admit / defer /
//!    shed per tenant.
//! 2. **Execution** — tenants are processed *serially in admission
//!    order* against the shared caches (so a later tenant naturally
//!    hits entries an earlier one committed), with intra-tenant CAD
//!    parallelism via `parallel_map_indexed`. Every observable here is
//!    bit-identical across `cad_workers` — the PR 3/7 determinism
//!    pattern. Per-tenant fault streams are keyed by (tenant id,
//!    epoch), so a tenant's schedule is invariant under admission order
//!    and fleet size. Worker faults, specialization errors, and
//!    deadline exhaustion degrade *that tenant* to software-only
//!    execution ([`DegradedReason`]) and leave every other tenant
//!    untouched.
//! 3. **Timing** — a deficit-round-robin post-pass
//!    ([`jitise_cad::sched`]) simulates the shared pool's contention
//!    and yields the fleet's time-to-first-speedup distribution, queue
//!    depth, and makespan. This is the only lane-*dependent* data, and
//!    [`ServeOutcome::fingerprint`] excludes it.

use crate::tenant::{admission_schedule, fleet, Admission, TenantSpec};
use jitise_base::hash::SigHasher;
use jitise_base::par::parallel_map_indexed;
use jitise_base::{Result, SimTime};
use jitise_cad::sched::{drr_dispatch, round_bound, DrrConfig, PoolJob};
use jitise_cad::OverlayLibrary;
use jitise_core::{
    BitstreamCache, DegradedReason, EvalContext, SpecializeConfig, SpecializeReport,
    SpecializeSession, WorkloadSession,
};
use jitise_faults::{FaultInjector, FaultSite, Quarantine, RetryPolicy};
use jitise_ir::Module;
use jitise_ise::{SearchConfig, SearchMemo};
use jitise_store::{Record, Store};
use jitise_telemetry::{names, HistogramSnapshot, Telemetry, Value as TelValue};
use jitise_vm::{DecodeCache, Value, VmTier};
use jitise_woolcano::Woolcano;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Knobs for one serve run. Everything observable is a pure function of
/// this config (and the store's recovered state, when present).
#[derive(Clone)]
pub struct ServeConfig {
    /// Fleet seed: arrivals, service times, and workload seeds derive
    /// from it.
    pub seed: u64,
    /// Fleet size.
    pub tenants: u32,
    /// Shared CAD pool width. Changes only the timing post-pass and
    /// intra-tenant wall clock — never the fingerprint.
    pub cad_workers: usize,
    /// Concurrent active-session slots (admission control).
    pub max_active: usize,
    /// Bounded defer-queue capacity; arrivals beyond it are shed.
    pub defer_capacity: usize,
    /// Mean inter-arrival gap of the open-loop schedule, microseconds.
    pub arrival_spacing_us: u64,
    /// Modeled active-session residency, microseconds (lane-invariant).
    pub service_model_us: u64,
    /// Workload runs per tenant (first is the profiling run; minimum 2).
    pub runs_per_tenant: u32,
    /// Per-tenant CAD budget: a specialization whose `cpu_time` exceeds
    /// it degrades the tenant to [`DegradedReason::DeadlineExceeded`].
    pub deadline: SimTime,
    /// Distinct workload seeds the fleet cycles over (cache-hit
    /// population: more tenants per seed → higher shared-cache hit
    /// rate).
    pub distinct_workloads: u32,
    /// Kernels per workload module (tenants also cycle the selector).
    pub kernels: u32,
    /// Kernel loop trip count (workload size knob).
    pub hot_iters: i32,
    /// Build every workload with near-duplicate kernels: structurally
    /// distinct blocks (distinct candidate signatures) with near-equal
    /// hotness. Combined with a small [`Self::cache_capacity`] this is
    /// the seeded cache-thrash scenario — many same-shaped signatures
    /// competing for few shared slots (ROADMAP item 5).
    pub near_duplicate: bool,
    /// Shared-cache capacity in entries; beyond it the oldest fresh
    /// entry is evicted (and journaled as a [`Record::Evict`]
    /// tombstone).
    pub cache_capacity: usize,
    /// DRR quantum for the timing post-pass.
    pub quantum: SimTime,
    /// Fault handle; scoped per tenant via `for_tenant(id).at_epoch(id)`.
    pub faults: FaultInjector,
    /// Retry policy shared by every tenant's pipeline.
    pub retry: RetryPolicy,
    /// Optional crash-consistent store. Hydrates the shared cache and
    /// quarantine at start (warm restart) and journals every commit and
    /// eviction during the run.
    pub store: Option<Arc<Store>>,
    /// Workload execution tier (default [`VmTier::default`], the fast
    /// tier; the reference [`VmTier::Interp`] yields the same
    /// fingerprint). On the fast tier every tenant takes its decodes from
    /// one fleet-scoped [`DecodeCache`], so each distinct base or
    /// specialized module is decoded once per fleet.
    pub vm_tier: VmTier,
    /// Optional overlay cell library: every tenant's specialization uses
    /// two-tier installation (millisecond overlay install + full-CAD
    /// background upgrade, DESIGN.md §17). `None` keeps the fleet
    /// byte-identical to the full-only pipeline.
    pub overlay: Option<Arc<OverlayLibrary>>,
    /// Observability sink.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 2011,
            tenants: 48,
            cad_workers: 1,
            max_active: 8,
            defer_capacity: 6,
            arrival_spacing_us: 400,
            service_model_us: 2_500,
            runs_per_tenant: 4,
            deadline: SimTime::from_hours(2),
            distinct_workloads: 6,
            kernels: 2,
            hot_iters: 40,
            cache_capacity: 64,
            quantum: SimTime::from_secs(60),
            near_duplicate: false,
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
            store: None,
            vm_tier: VmTier::default(),
            overlay: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One tenant's full outcome. Everything here is lane-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant id.
    pub id: u64,
    /// Admission decision.
    pub admission: Admission,
    /// Why this tenant fell back to software-only execution, if it did.
    /// Shed tenants are software-only by decision, not degradation.
    pub degraded: Option<DegradedReason>,
    /// Shared-cache hits during this tenant's specialization.
    pub cache_hits: u32,
    /// Freshly generated (non-hit) candidates.
    pub fresh: u32,
    /// Candidates that failed or were quarantine-skipped.
    pub failed: u32,
    /// Pipeline retries burned.
    pub retries: u64,
    /// Candidates that went live on the overlay fast path (two-tier
    /// installation; zero without [`ServeConfig::overlay`]).
    pub overlay_installs: u32,
    /// Overlay installs whose background full-CAD upgrade landed.
    pub upgrades: u32,
    /// Schedule-invariant total tool time of this tenant's
    /// specialization ([`SimTime::ZERO`] when it never specialized).
    pub cpu_time: SimTime,
    /// Observed workload speedup, as bits (1.0 for software-only).
    pub speedup_bits: u64,
    /// Return value of every workload run, in order. Degraded, shed, or
    /// healthy: these must equal a software-only run's answers.
    pub results: Vec<Option<Value>>,
}

/// Lane-*dependent* fleet timing from the DRR post-pass. Excluded from
/// [`ServeOutcome::fingerprint`] — the one place pool width shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTiming {
    /// Pool width the schedule was simulated over.
    pub cad_workers: usize,
    /// Latest CAD completion across the fleet.
    pub makespan: SimTime,
    /// Median time-to-first-speedup across sped-up tenants, µs.
    pub ttfs_p50_us: u64,
    /// 99th-percentile time-to-first-speedup, µs.
    pub ttfs_p99_us: u64,
    /// Peak ready-but-undispatched CAD backlog.
    pub max_queue_depth: usize,
    /// Worst per-job scheduling delay observed, in DRR visits. Always
    /// under the starvation bound `ceil(charge/quantum)`.
    pub max_rounds_waited: u32,
    /// CAD jobs simulated.
    pub pool_jobs: usize,
}

/// Outcome of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-tenant outcomes, ordered by tenant id.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants granted a slot at arrival.
    pub admitted: u32,
    /// Tenants admitted after a deferral.
    pub deferred: u32,
    /// Tenants shed at arrival.
    pub shed: u32,
    /// Admitted tenants that degraded to software-only execution.
    pub degraded: u32,
    /// Shared-cache hits across the fleet.
    pub cache_hits: u64,
    /// Freshly generated candidates across the fleet.
    pub fresh: u64,
    /// Overlay fast-path installs across the fleet.
    pub overlay_installs: u64,
    /// Completed full-CAD background upgrades across the fleet.
    pub upgrades: u64,
    /// Shared-cache evictions (capacity policy), each journaled.
    pub evictions: u64,
    /// The store's committed-state fingerprint after the run (`None`
    /// without a store).
    pub store_fingerprint: Option<String>,
    /// Lane-dependent timing; excluded from the fingerprint.
    pub timing: FleetTiming,
}

impl ServeOutcome {
    /// Deterministic digest of every lane-invariant observable: a
    /// fixed-seed run must produce the same fingerprint at any
    /// `cad_workers` (the PR 3/7 pattern — only [`Self::timing`] may
    /// differ, and it is excluded).
    pub fn fingerprint(&self) -> String {
        let mut h = SigHasher::new();
        for t in &self.tenants {
            h.write_u64(t.id);
            h.write_str(&format!(
                "{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{:?}",
                t.admission,
                t.degraded,
                t.cache_hits,
                t.fresh,
                t.failed,
                t.retries,
                t.overlay_installs,
                t.upgrades,
                t.cpu_time.as_nanos(),
                t.speedup_bits,
                t.results,
            ));
        }
        format!(
            "tenants={} admitted={} deferred={} shed={} degraded={} hits={} fresh={} \
             ovl={} upg={} evict={} store={} digest={:016x}",
            self.tenants.len(),
            self.admitted,
            self.deferred,
            self.shed,
            self.degraded,
            self.cache_hits,
            self.fresh,
            self.overlay_installs,
            self.upgrades,
            self.evictions,
            self.store_fingerprint.as_deref().unwrap_or("none"),
            h.finish(),
        )
    }
}

/// Builds the workload module for one tenant spec (memoized inside
/// [`run_serve`] per workload seed — same seed, same module, same
/// candidate signatures, shared cache entries). Public so tests and
/// benches can construct the byte-identical software-only reference.
pub fn workload_module(
    spec: &TenantSpec,
    kernels: u32,
    hot_iters: i32,
    near_duplicate: bool,
) -> Module {
    jitise_apps::build_phased(&jitise_apps::PhasedSpec {
        seed: spec.workload_seed,
        kernels: kernels.max(1),
        kernel_blocks: 1,
        block_ins: 48,
        seg_len: 6,
        hot_iters: hot_iters.max(1),
        near_duplicate,
    })
}

/// Tracks shared-cache residency in commit order for the capacity
/// eviction policy.
struct CacheLedger {
    order: VecDeque<u64>,
}

impl CacheLedger {
    fn new() -> CacheLedger {
        CacheLedger {
            order: VecDeque::new(),
        }
    }

    fn note_fresh(&mut self, signature: u64) {
        if !self.order.contains(&signature) {
            self.order.push_back(signature);
        }
    }

    /// Evicts down to `capacity`, oldest first. Returns the evicted
    /// signatures in eviction order.
    fn evict_to(&mut self, capacity: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while self.order.len() > capacity {
            out.push(self.order.pop_front().expect("len > capacity"));
        }
        out
    }
}

/// Runs the full multi-tenant serve session. See the module docs for
/// the three-layer structure. Never panics on overload or tenant
/// faults: every tenant terminates with correct workload results.
pub fn run_serve(ctx: &EvalContext, config: &ServeConfig) -> Result<ServeOutcome> {
    assert!(config.runs_per_tenant >= 2, "need profiling + one more run");
    let mut root = config.telemetry.span("serve.run");
    let tel = config.telemetry.under(&root);

    // ---- Layer 1: admission (lane-invariant event simulation). ----
    let specs = fleet(
        config.seed,
        config.tenants,
        config.arrival_spacing_us,
        config.service_model_us,
        config.distinct_workloads,
        config.kernels,
    );
    let admissions = admission_schedule(&specs, config.max_active, config.defer_capacity);

    // ---- Shared infrastructure. ----
    let cache = BitstreamCache::new();
    let quarantine = Arc::new(Quarantine::new());
    let memo = Arc::new(SearchMemo::new());
    if let Some(store) = &config.store {
        let state = store.state();
        if !state.is_empty() {
            let absorbed = cache.absorb_store(&state);
            let mut quarantined = 0u64;
            for (sig, reason) in &state.quarantine {
                if quarantine.insert(*sig, reason) {
                    quarantined += 1;
                }
            }
            tel.add(names::STORE_WARM_RESTARTS, 1);
            tel.event(
                "serve.warm_restart",
                &[
                    ("entries_absorbed", TelValue::U64(absorbed as u64)),
                    ("quarantine_absorbed", TelValue::U64(quarantined)),
                ],
            );
        }
    }
    let mut ledger = CacheLedger::new();
    // Entries hydrated from the store count against capacity too.
    if let Some(store) = &config.store {
        for sig in store.state().entries.keys() {
            ledger.note_fresh(*sig);
        }
    }

    // ---- Layer 2: execution, serially in admission order. ----
    // Admitted tenants run against the shared caches in the order their
    // slots were granted; shed tenants (software-only, no shared-infra
    // contact) follow in arrival order.
    let mut exec_order: Vec<usize> = (0..specs.len()).collect();
    exec_order.sort_by_key(|&i| match admissions[i] {
        Admission::Admitted { at_us } => (0u8, at_us, specs[i].id),
        Admission::Deferred { at_us, .. } => (0u8, at_us, specs[i].id),
        Admission::Shed => (1u8, specs[i].arrival_us, specs[i].id),
    });

    // Base modules by workload, shared with the fleet's decode cache.
    let mut modules: HashMap<u64, Arc<Module>> = HashMap::new();
    let decode = Arc::new(DecodeCache::new());
    let mut outcomes: Vec<Option<TenantOutcome>> = vec![None; specs.len()];
    let mut pool_jobs: Vec<PoolJob> = Vec::new();
    // Per-tenant index into `pool_jobs` for the timing post-pass.
    let mut tenant_jobs: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut evictions = 0u64;

    for &i in &exec_order {
        let spec = &specs[i];
        let admission = admissions[i];
        let module: &Module = modules.entry(spec.workload_seed).or_insert_with(|| {
            let m = Arc::new(workload_module(
                spec,
                config.kernels,
                config.hot_iters,
                config.near_duplicate,
            ));
            decode.add_base(Arc::clone(&m));
            m
        });
        let args = [Value::I(spec.sel), Value::I(2)];

        let mut ws = WorkloadSession::with_decode_cache(config.vm_tier, Arc::clone(&decode));
        let profile = ws.profile_run(module, "main", &args, &tel)?;

        let mut degraded: Option<DegradedReason> = None;
        let mut report: Option<SpecializeReport> = None;
        let mut specialized: Option<(Module, Woolcano)> = None;

        if admission.admitted_at_us().is_some() {
            // Fault streams are pure in (plan, tenant id, epoch, site,
            // key, attempt): invariant under admission order and fleet
            // size (satellite regression in jitise-faults).
            let tinj = config.faults.for_tenant(spec.id).at_epoch(spec.id);
            let worker_key = {
                let mut h = SigHasher::new();
                h.write_str("runtime.worker");
                h.write_str("main");
                h.finish()
            };
            let winj = tinj.scope(worker_key, 1);
            if winj.decide(FaultSite::WorkerDeath).is_some() {
                tel.add(names::FAULTS_INJECTED, 1);
                degraded = Some(DegradedReason::WorkerDisconnected);
            } else if winj.decide(FaultSite::WorkerStall).is_some() {
                tel.add(names::FAULTS_INJECTED, 1);
                degraded = Some(DegradedReason::WorkerStalled);
            } else {
                let spec_config = SpecializeConfig {
                    search: SearchConfig {
                        memo: Some(Arc::clone(&memo)),
                        ..SearchConfig::default()
                    },
                    telemetry: tel.clone(),
                    faults: tinj,
                    retry: config.retry,
                    quarantine: Arc::clone(&quarantine),
                    cad_workers: config.cad_workers,
                    store: config.store.clone(),
                    overlay: config.overlay.clone(),
                    ..SpecializeConfig::default()
                };
                let mut m = module.clone();
                let machine = Woolcano::with_telemetry(512, tel.clone());
                let (session, jobs) = SpecializeSession::begin(
                    &m,
                    &profile,
                    &machine,
                    &ctx.estimator,
                    &ctx.db,
                    &ctx.netlists,
                    &cache,
                    &spec_config,
                );
                let results =
                    parallel_map_indexed(config.cad_workers, &jobs, |_, job| session.execute(job));
                match session.finalize(&mut m, results) {
                    Err(e) => degraded = Some(DegradedReason::SpecializeFailed(e.to_string())),
                    Ok(r) => {
                        // Deadline check is lane-invariant by design:
                        // `cpu_time` is the schedule-invariant total,
                        // not the per-lane makespan.
                        if r.cpu_time > config.deadline {
                            degraded = Some(DegradedReason::DeadlineExceeded);
                        } else {
                            specialized = Some((m, machine));
                        }
                        report = Some(r);
                    }
                }
            }
            if let Some(reason) = &degraded {
                tel.add(names::SERVE_DEGRADED, 1);
                tel.add(names::RUNTIME_DEGRADED, 1);
                tel.event(
                    "serve.degraded",
                    &[
                        ("tenant", TelValue::U64(spec.id)),
                        ("reason", TelValue::Str(format!("{reason:?}"))),
                    ],
                );
            }
        }

        // The committed work stays shared even when the committing
        // tenant degraded on deadline: evict only on capacity.
        if let Some(r) = &report {
            for c in &r.candidates {
                if !c.cache_hit {
                    ledger.note_fresh(c.signature);
                }
            }
            for sig in ledger.evict_to(config.cache_capacity) {
                if cache.remove(sig) {
                    evictions += 1;
                    tel.add(names::SERVE_CACHE_EVICTIONS, 1);
                    if let Some(store) = &config.store {
                        let _ = store.append(Record::Evict { signature: sig });
                    }
                }
            }

            // Timing post-pass inputs: one pool job per candidate that
            // occupied a CAD lane (fresh work, retries, failures).
            let ready_at =
                SimTime::from_micros(admission.admitted_at_us().expect("report implies admitted"));
            let jobs = tenant_jobs.entry(spec.id).or_default();
            for c in &r.candidates {
                // Two-tier candidates charge the overlay assembly too:
                // both the fast install and its full-CAD upgrade occupy
                // the shared pool.
                let charge = if c.cache_hit {
                    c.time_lost
                } else {
                    c.total() + c.time_lost + c.overlay_time
                };
                if charge > SimTime::ZERO {
                    jobs.push(pool_jobs.len());
                    pool_jobs.push(PoolJob {
                        tenant: spec.id,
                        charge,
                        ready_at,
                    });
                }
            }
            for f in &r.failed {
                if f.time_lost > SimTime::ZERO {
                    jobs.push(pool_jobs.len());
                    pool_jobs.push(PoolJob {
                        tenant: spec.id,
                        charge: f.time_lost,
                        ready_at,
                    });
                }
            }
        }

        // Remaining workload runs: adapted when healthy, software-only
        // when shed or degraded. Answers never change either way.
        for _ in 1..config.runs_per_tenant {
            match &specialized {
                Some((m, machine)) => ws.adapted_run(m, machine, "main", &args, &tel)?,
                None => ws.software_run(module, "main", &args, &tel)?,
            }
        }

        outcomes[i] = Some(TenantOutcome {
            id: spec.id,
            admission,
            degraded,
            cache_hits: report.as_ref().map_or(0, |r| r.cache_hits as u32),
            fresh: report.as_ref().map_or(0, |r| {
                r.candidates.iter().filter(|c| !c.cache_hit).count() as u32
            }),
            failed: report.as_ref().map_or(0, |r| r.failed.len() as u32),
            retries: report.as_ref().map_or(0, |r| r.retries),
            overlay_installs: report.as_ref().map_or(0, |r| r.overlay_installs as u32),
            upgrades: report.as_ref().map_or(0, |r| r.upgrades as u32),
            cpu_time: report.as_ref().map_or(SimTime::ZERO, |r| r.cpu_time),
            speedup_bits: ws.observed_speedup().to_bits(),
            results: ws.into_results(),
        });
    }

    let mut tenants: Vec<TenantOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every tenant executed"))
        .collect();
    tenants.sort_by_key(|t| t.id);

    // ---- Layer 3: DRR timing post-pass (lane-dependent). ----
    let drr = DrrConfig {
        lanes: config.cad_workers.max(1),
        quantum: config.quantum,
    };
    let schedule = drr_dispatch(&pool_jobs, &drr);
    let mut max_rounds = 0u32;
    for d in &schedule.dispatched {
        debug_assert!(
            d.rounds_waited < round_bound(pool_jobs[d.job].charge, drr.quantum),
            "starvation bound violated"
        );
        max_rounds = max_rounds.max(d.rounds_waited);
    }
    let finish = schedule.finish_by_job();
    let mut ttfs_us: Vec<u64> = Vec::new();
    for t in &tenants {
        if t.degraded.is_some() {
            continue;
        }
        let Some(at_us) = t.admission.admitted_at_us() else {
            continue;
        };
        let spec = &specs[t.id as usize];
        let cad_done = tenant_jobs
            .get(&t.id)
            .into_iter()
            .flatten()
            .filter_map(|j| finish.get(j))
            .max()
            .copied()
            .unwrap_or(SimTime::ZERO);
        let first_speedup = cad_done.max(SimTime::from_micros(at_us));
        let us = (first_speedup.as_nanos() / 1_000).saturating_sub(spec.arrival_us);
        ttfs_us.push(us);
        tel.observe(names::SERVE_TTFS_US, us);
    }
    let hist = HistogramSnapshot::from_values("serve.ttfs_us", &ttfs_us);
    let timing = FleetTiming {
        cad_workers: drr.lanes,
        makespan: schedule.makespan,
        ttfs_p50_us: hist.quantile(0.5),
        ttfs_p99_us: hist.quantile(0.99),
        max_queue_depth: schedule.max_queue_depth,
        max_rounds_waited: max_rounds,
        pool_jobs: pool_jobs.len(),
    };

    // ---- Totals and counters. ----
    let mut admitted = 0u32;
    let mut deferred = 0u32;
    let mut shed = 0u32;
    let mut degraded_n = 0u32;
    let mut cache_hits = 0u64;
    let mut fresh = 0u64;
    let mut overlay_installs = 0u64;
    let mut upgrades = 0u64;
    for t in &tenants {
        match t.admission {
            Admission::Admitted { .. } => admitted += 1,
            Admission::Deferred { .. } => deferred += 1,
            Admission::Shed => shed += 1,
        }
        if t.degraded.is_some() {
            degraded_n += 1;
        }
        cache_hits += t.cache_hits as u64;
        fresh += t.fresh as u64;
        overlay_installs += t.overlay_installs as u64;
        upgrades += t.upgrades as u64;
    }
    tel.add(names::SERVE_ADMITTED, (admitted + deferred) as u64);
    tel.add(names::SERVE_DEFERRED, deferred as u64);
    tel.add(names::SERVE_SHED, shed as u64);

    let store_fingerprint = config.store.as_ref().map(|s| s.state().fingerprint());
    root.field("tenants", TelValue::U64(tenants.len() as u64));
    root.field("shed", TelValue::U64(shed as u64));
    root.field("degraded", TelValue::U64(degraded_n as u64));
    root.set_sim_time(schedule.makespan);
    drop(root);

    Ok(ServeOutcome {
        tenants,
        admitted,
        deferred,
        shed,
        degraded: degraded_n,
        cache_hits,
        fresh,
        overlay_installs,
        upgrades,
        evictions,
        store_fingerprint,
        timing,
    })
}
