//! The concurrent JIT runtime.
//!
//! Fig. 1's right half: the application executes on the VM while the ASIP
//! specialization process runs *concurrently* ("this process is performed
//! concurrently with the execution of the application. As soon as it is
//! completed … the adaptation phase occurs where [the] ASIP architecture
//! is reconfigured and the application binary is modified").
//!
//! [`run_adaptive`] models exactly that: the main thread keeps executing
//! the workload run after run; a background worker profiles-and-
//! specializes; on completion the main loop hot-swaps to the specialized
//! binary and the loaded Woolcano machine. §VI-B's observation that one
//! can "run the FPGA tool concurrently" is realized by the CAD lanes, and
//! a VM thread that reaches the swap gate early runs CAD jobs too instead
//! of idling (DESIGN.md §19).
//!
//! The runtime never depends on the worker's health: a dead, panicked, or
//! stalled worker degrades the session to software-only execution
//! (correct results, speedup 1.0) instead of hanging or crashing the
//! application — see [`DegradedReason`] and DESIGN.md §9.

use crate::cache::BitstreamCache;
use crate::evaluation::EvalContext;
use crate::pipeline::{
    specialize, CadJob, CadJobResult, SpecializeConfig, SpecializeReport, SpecializeSession,
};
use jitise_base::hash::SigHasher;
use jitise_base::par::Claims;
use jitise_base::sync::RwLock;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::OverlayLibrary;
use jitise_faults::{FaultInjector, FaultSite, Quarantine, RetryPolicy};
use jitise_ir::Module;
use jitise_ise::{SearchConfig, SearchMemo};
use jitise_store::{Record, Store};
use jitise_telemetry::{names, Telemetry, Value as TelValue};
use jitise_vm::decode::decode;
use jitise_vm::{
    BlockKey, CostModel, DecodeCache, HotnessWindow, Interpreter, PredecodedModule, Profile, Value,
    VmTier,
};
use jitise_woolcano::Woolcano;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a session fell back to software-only execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedReason {
    /// The worker thread died (or was killed) without reporting.
    WorkerDisconnected,
    /// The worker missed the watchdog deadline and was abandoned.
    WorkerStalled,
    /// Specialization itself returned an error.
    SpecializeFailed(String),
    /// The tenant's specialization exceeded its per-tenant deadline
    /// budget and the session fell back to software-only execution
    /// (multi-tenant serve runtime; see DESIGN.md §16). The single-
    /// session runtime never emits this — its wall-clock bound is the
    /// watchdog, reported as [`DegradedReason::WorkerStalled`].
    DeadlineExceeded,
}

/// Robustness knobs for [`run_adaptive_with`].
pub struct AdaptiveOptions {
    /// Wall-clock budget the main loop grants the worker before abandoning
    /// it and degrading to software-only execution. This is *host* time —
    /// the one place the runtime must bound a real thread, not a simulated
    /// clock.
    pub watchdog: Duration,
    /// Fault injection handle, threaded through to the pipeline and used
    /// for worker stall/death injection (disabled by default).
    pub faults: FaultInjector,
    /// Retry policy for the specialization pipeline.
    pub retry: RetryPolicy,
    /// Quarantine list shared with the pipeline (and, if the caller keeps
    /// the `Arc`, across sessions).
    pub quarantine: Arc<Quarantine>,
    /// Modeled CAD worker lanes (default 1 = the sequential pipeline). The
    /// worker runs one lane and spawns a thread per other lane; the VM
    /// thread claims jobs at the swap gate too, so one lane keeps the
    /// session on its two threads. More lanes shrink the simulated
    /// adaptation overhead; every other observable stays bit-identical.
    pub cad_workers: usize,
    /// Candidate-search worker lanes inside the specialization worker
    /// (default 1 = sequential search). Changes only wall-clock, never
    /// results.
    pub search_workers: usize,
    /// Optional identification memo. Keep the `Arc` across sessions and
    /// repeated adaptive searches skip re-identifying unchanged blocks.
    pub search_memo: Option<Arc<SearchMemo>>,
    /// Optional crash-consistent store (opened/recovered by the caller).
    /// At session start its recovered cache entries hydrate the bitstream
    /// cache (a warm restart: they count as cache hits) and its recovered
    /// quarantine signatures are honored; during the session every fresh
    /// implementation and quarantine decision is journaled back. `None`
    /// (the default) leaves the session byte-identical to today.
    pub store: Option<Arc<Store>>,
    /// Execution tier for every workload run in the session (default
    /// [`VmTier::default`], the fast tier). The fast tier pre-decodes each
    /// binary once — base module at session start, specialized module at
    /// swap — and is bit-identical in results, cycles, and profiles, so
    /// the reference [`VmTier::Interp`] gives the same fingerprints; only
    /// host wall-clock differs.
    pub vm_tier: VmTier,
    /// Optional overlay cell library enabling two-tier installation in
    /// every specialization this session runs (initial install and storm
    /// re-specializations alike): candidates go live on a millisecond
    /// cell-assembly overlay while the full CAD flow runs as a background
    /// upgrade (DESIGN.md §17). `None` (the default) keeps the session
    /// byte-identical to the full-only pipeline.
    pub overlay: Option<Arc<OverlayLibrary>>,
}

impl AdaptiveOptions {
    /// The pipeline configuration of every specialization the session
    /// runs, recording to `telemetry` and injecting faults from `faults`.
    fn specialize_config(&self, telemetry: Telemetry, faults: FaultInjector) -> SpecializeConfig {
        SpecializeConfig {
            search: SearchConfig {
                workers: self.search_workers,
                memo: self.search_memo.clone(),
                ..SearchConfig::default()
            },
            telemetry,
            faults,
            retry: self.retry,
            quarantine: Arc::clone(&self.quarantine),
            cad_workers: self.cad_workers,
            store: self.store.clone(),
            overlay: self.overlay.clone(),
            ..SpecializeConfig::default()
        }
    }
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            watchdog: Duration::from_secs(30),
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
            quarantine: Arc::new(Quarantine::new()),
            cad_workers: 1,
            search_workers: 1,
            search_memo: None,
            store: None,
            vm_tier: VmTier::default(),
            overlay: None,
        }
    }
}

/// Outcome of an adaptive execution session.
pub struct AdaptiveOutcome {
    /// Workload runs executed before the specialized binary was ready.
    pub runs_before: u32,
    /// Runs executed after adaptation.
    pub runs_after: u32,
    /// Average cycles per run before adaptation.
    pub cycles_before: u64,
    /// Average cycles per run after adaptation.
    pub cycles_after: u64,
    /// Observed speedup (before / after).
    pub observed_speedup: f64,
    /// The specialization report from the worker; `None` when the session
    /// degraded before the worker reported.
    pub report: Option<SpecializeReport>,
    /// Why the session fell back to software-only execution, if it did.
    pub degraded: Option<DegradedReason>,
    /// Return value of every workload run, in order (profiling run first).
    /// Degraded or not, these must match a fault-free session: the
    /// workload's answers are never allowed to change.
    pub results: Vec<Option<Value>>,
    /// Simulated specialization overhead (what a real deployment would
    /// wait for; the worker's wall time is irrelevant here). This is the
    /// pipeline's makespan: with one CAD lane, the sum of all tool time
    /// plus the fault ledger — wasted tool time and retry backoff are real
    /// waiting — and with more lanes, the critical path.
    pub overhead: SimTime,
}

impl AdaptiveOutcome {
    /// Deterministic digest of every observable field (see
    /// [`SpecializeReport::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!(
            "rb={} ra={} cb={} ca={} sp={:016x} ov={} degraded={:?} results={:?} report={}",
            self.runs_before,
            self.runs_after,
            self.cycles_before,
            self.cycles_after,
            self.observed_speedup.to_bits(),
            self.overhead.as_nanos(),
            self.degraded,
            self.results,
            self.report
                .as_ref()
                .map(|r| r.fingerprint())
                .unwrap_or_else(|| "none".into()),
        )
    }
}

fn note_degraded(tel: &Telemetry, reason: DegradedReason) -> DegradedReason {
    tel.add(names::RUNTIME_DEGRADED, 1);
    tel.event(
        "runtime.degraded",
        &[("reason", TelValue::Str(format!("{reason:?}")))],
    );
    reason
}

/// Runs `f`, turning a panic into `Err` carrying the panic message.
fn catch_panic<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic".into()
        }
    })
}

/// Records a worker-level injector firing (counter + journal event).
fn injected_worker_fault(tel: &Telemetry, inj: &FaultInjector, site: FaultSite) -> bool {
    let Some(kind) = inj.decide(site) else {
        return false;
    };
    tel.add(names::FAULTS_INJECTED, 1);
    tel.event(
        "fault.injected",
        &[
            ("site", TelValue::Str(site.name().into())),
            ("kind", TelValue::Str(kind.name().into())),
        ],
    );
    true
}

/// The scope key of worker-level faults: stall and death decisions are
/// deterministic per (plan seed, session entry point).
fn worker_key(entry: &str) -> u64 {
    let mut h = SigHasher::new();
    h.write_str("runtime.worker");
    h.write_str(entry);
    h.finish()
}

/// Warm restart: hydrates the bitstream cache and the quarantine from the
/// store's recovered state before any specialization work. The recovered
/// entries then count as ordinary cache hits, so a second session after a
/// restart pays zero regeneration overhead (§VI-A's break-even improves
/// exactly as if the process had never died). Because storm evictions are
/// journaled, the recovered state is the *post-eviction* cache — a restart
/// mid-storm does not resurrect CIs the session already retired.
fn warm_restart(options: &AdaptiveOptions, cache: &BitstreamCache, tel: &Telemetry) {
    let Some(store) = &options.store else {
        return;
    };
    let state = store.state();
    if state.is_empty() {
        return;
    }
    let absorbed = cache.absorb_store(&state);
    let mut quarantined = 0u64;
    for (sig, reason) in &state.quarantine {
        if options.quarantine.insert(*sig, reason) {
            quarantined += 1;
        }
    }
    tel.add(names::STORE_WARM_RESTARTS, 1);
    tel.event(
        "runtime.warm_restart",
        &[
            ("entries_absorbed", TelValue::U64(absorbed as u64)),
            ("quarantine_absorbed", TelValue::U64(quarantined)),
        ],
    );
}

/// What a finished background worker hands the VM thread: the specialized
/// module, the loaded machine, and the report.
type Specialized = (Module, Arc<Woolcano>, SpecializeReport);

/// What the background worker tells the VM thread.
enum FromWorker {
    /// The worker's CAD jobs are open for claiming in [`SwapGate::lent`].
    Lending,
    /// The outcome; the worker exits after sending it.
    Report(Box<Result<Specialized>>),
}

/// The background worker's pipeline configuration and machine. They live
/// outside the worker thread because the CAD jobs it lends borrow them.
struct WorkerEnv {
    config: SpecializeConfig,
    machine: Arc<Woolcano>,
}

/// How a lent CAD job runs: [`SpecializeSession::execute`], except in the
/// tests that make jobs fail.
type RunJob<'r> = dyn Fn(&SpecializeSession<'_>, &CadJob) -> CadJobResult + Sync + 'r;

/// A specialization's CAD jobs, open for claiming.
struct Lent<'s> {
    session: SpecializeSession<'s>,
    jobs: Vec<CadJob>,
    claims: Claims<CadJobResult>,
}

/// Where a session's VM thread meets its background specialization worker
/// (DESIGN.md §19).
struct SwapGate<'g, 's> {
    /// The CAD jobs the worker lends. The VM thread claims them under a
    /// read lock; the worker takes them back with the write lock, which
    /// waits for the job the VM thread may still be running.
    lent: &'g RwLock<Option<Lent<'s>>>,
    from_worker: Receiver<FromWorker>,
    run_job: &'g RunJob<'g>,
}

impl SwapGate<'_, '_> {
    /// The VM thread at the swap gate: runs the worker's unclaimed CAD jobs
    /// until none is left, then waits for the report. The watchdog counts
    /// from the call: past it the thread claims no more jobs, and a worker
    /// that has not reported by then is abandoned as stalled.
    fn wait(&self, watchdog: Duration) -> std::result::Result<Specialized, DegradedReason> {
        let deadline = Instant::now() + watchdog;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.from_worker.recv_timeout(left) {
                Ok(FromWorker::Lending) => {
                    if let Some(lent) = &*self.lent.read() {
                        let expired = || Instant::now() >= deadline;
                        let run = |i| (self.run_job)(&lent.session, &lent.jobs[i]);
                        lent.claims.run_claims(expired, run);
                    }
                }
                Ok(FromWorker::Report(report)) => {
                    return (*report).map_err(|e| DegradedReason::SpecializeFailed(e.to_string()))
                }
                Err(RecvTimeoutError::Timeout) => return Err(DegradedReason::WorkerStalled),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DegradedReason::WorkerDisconnected)
                }
            }
        }
    }
}

/// Runs `vm_loop` on the calling thread, the VM thread, while a background
/// worker specializes `module` from `profile` (Fig. 1); `vm_loop` meets the
/// worker through [`SwapGate::wait`], and either thread runs a CAD job
/// with `run_job`. The worker runs the pipeline under
/// `catch_unwind` — a panic anywhere in it, in a CAD job the VM thread ran
/// included, becomes an error the VM thread degrades on — and its spans
/// stitch under the session's root span. Whatever `vm_loop` does — return,
/// fail, or panic — the worker is released and joined before this returns.
#[allow(clippy::too_many_arguments)]
fn with_background_worker<R>(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    profile: Profile,
    options: &AdaptiveOptions,
    slots: usize,
    tel: &Telemetry,
    run_job: &RunJob<'_>,
    vm_loop: impl FnOnce(&SwapGate<'_, '_>) -> Result<R>,
) -> Result<R> {
    let (env, lent) = (OnceLock::new(), RwLock::new(None));
    let inj = options.faults.scope(worker_key(entry), 1);
    let (tx, from_worker) = channel();
    // Dropping `release` on every exit path of `vm_loop`, panics included,
    // releases a stalled worker so `thread::scope` can join it.
    let (release, released) = channel::<()>();
    let gate = SwapGate {
        lent: &lent,
        from_worker,
        run_job,
    };
    std::thread::scope(|scope| {
        let _release_worker = release;
        let (env, lent, profile, inj) = (&env, &lent, &profile, &inj);
        scope.spawn(move || {
            let wspan = tel.span("runtime.worker");
            let wtel = tel.under(&wspan);
            // An injected death: the worker exits without reporting, and
            // the dropped `tx` reads as a disconnect at the gate.
            if injected_worker_fault(&wtel, inj, FaultSite::WorkerDeath) {
                return;
            }
            // An injected stall: the worker hangs (a wedged CAD tool) until
            // the VM thread is done with it. The hard cap keeps a lost
            // release from hanging the scope.
            if injected_worker_fault(&wtel, inj, FaultSite::WorkerStall) {
                let cap = options.watchdog.saturating_mul(20);
                let _ = released.recv_timeout(cap.max(Duration::from_millis(100)));
                return;
            }
            let report = catch_panic(|| {
                let env = env.get_or_init(|| WorkerEnv {
                    config: options.specialize_config(wtel.clone(), options.faults.clone()),
                    machine: Arc::new(Woolcano::with_telemetry(slots, wtel.clone())),
                });
                let mut m = module.clone();
                let (session, jobs) = SpecializeSession::begin(
                    &m,
                    profile,
                    &env.machine,
                    &ctx.estimator,
                    &ctx.db,
                    &ctx.netlists,
                    cache,
                    &env.config,
                );
                let claims = Claims::new(jobs.len());
                *lent.write() = Some(Lent {
                    session,
                    jobs,
                    claims,
                });
                let _ = tx.send(FromWorker::Lending);
                if let Some(lent) = &*lent.read() {
                    let run = |i| run_job(&lent.session, &lent.jobs[i]);
                    lent.claims.drain(env.config.cad_workers, run);
                }
                let lent = lent.write().take().expect("the worker lent its jobs");
                let results = lent.claims.into_results();
                (lent.session.finalize(&mut m, results))
                    .map(|report| (m, Arc::clone(&env.machine), report))
            })
            .unwrap_or_else(|msg| Err(Error::Arch(format!("worker panicked: {msg}"))));
            drop(wspan);
            let _ = tx.send(FromWorker::Report(Box::new(report)));
        });
        vm_loop(&gate)
    })
}

/// Runs `total_runs` executions of `entry(args)`, specializing in the
/// background after the first (profiling) run and hot-swapping when ready.
///
/// `ready_after_runs` models the tool-flow latency in units of workload
/// runs: the swap happens once specialization has finished *and* at least
/// that many runs have completed (deterministic tests set it explicitly).
///
/// Equivalent to [`run_adaptive_with`] under [`AdaptiveOptions::default`].
pub fn run_adaptive(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    args: &[Value],
    total_runs: u32,
    ready_after_runs: u32,
) -> Result<AdaptiveOutcome> {
    run_adaptive_with(
        ctx,
        cache,
        module,
        entry,
        args,
        total_runs,
        ready_after_runs,
        &AdaptiveOptions::default(),
    )
}

/// Builds a workload VM on the session's execution tier, recording to
/// `tel`. On the fast tier the module is pre-decoded once (memoized in
/// `pd`) and the decoded form is shared by every subsequent run of the
/// same binary — the whole point of paying the decode: the adaptive loop
/// executes each module many times. With a shared `cache`, that one
/// decode is itself shared with every other session that runs an equal
/// module.
fn tiered_vm<'m>(
    module: &'m Module,
    tier: VmTier,
    pd: &mut Option<Arc<PredecodedModule>>,
    cache: Option<&DecodeCache>,
    tel: &Telemetry,
) -> Interpreter<'m> {
    let mut vm = Interpreter::new(module);
    if tier == VmTier::Fast {
        let pd = pd.get_or_insert_with(|| {
            let cost = CostModel::ppc405();
            match cache {
                Some(cache) => cache.get_or_decode(module, &cost, tel),
                None => decode(module, &cost, tel),
            }
        });
        vm.set_predecoded(Arc::clone(pd));
    }
    vm.set_telemetry(tel.clone());
    vm
}

/// Per-session workload execution state: the run/swap/cycle accounting
/// from [`run_adaptive_with`]'s main loop, factored into a struct so a
/// multi-session runtime (`jitise-serve`, DESIGN.md §16) can interleave
/// many tenants' workload runs while each tenant keeps exactly the
/// accounting a dedicated [`run_adaptive_with`] session would produce.
///
/// The profiling run charges the *profiled* cycle total (the VM's cycle
/// field is zero when profiling) and every later run charges the run's
/// own cycle count, matching the single-session runtime bit for bit.
/// On the fast tier the base and specialized modules are each
/// pre-decoded once, the base decode living until the first post-swap
/// run and the specialized one until the session ends; a session
/// built with [`WorkloadSession::with_decode_cache`] takes those decodes from
/// a cache shared with other sessions.
pub struct WorkloadSession {
    tier: VmTier,
    decode_cache: Option<Arc<DecodeCache>>,
    base_pd: Option<Arc<PredecodedModule>>,
    spec_pd: Option<Arc<PredecodedModule>>,
    runs_before: u32,
    runs_after: u32,
    cycles_before: u64,
    cycles_after: u64,
    results: Vec<Option<Value>>,
}

impl WorkloadSession {
    /// A fresh session on the given execution tier; no runs yet.
    pub fn new(tier: VmTier) -> WorkloadSession {
        WorkloadSession {
            tier,
            decode_cache: None,
            base_pd: None,
            spec_pd: None,
            runs_before: 0,
            runs_after: 0,
            cycles_before: 0,
            cycles_after: 0,
            results: Vec::new(),
        }
    }

    /// A fresh session whose fast-tier decodes come from `cache`, so the
    /// sessions sharing it decode each distinct module once between them.
    /// Identical to [`WorkloadSession::new`] on [`VmTier::Interp`].
    pub fn with_decode_cache(tier: VmTier, cache: Arc<DecodeCache>) -> WorkloadSession {
        WorkloadSession {
            decode_cache: Some(cache),
            ..WorkloadSession::new(tier)
        }
    }

    /// The profiling run: executes `entry(args)` on the unmodified
    /// module, charges the profiled cycle total to the pre-swap bucket,
    /// and returns the [`Profile`] that seeds specialization.
    pub fn profile_run(
        &mut self,
        module: &Module,
        entry: &str,
        args: &[Value],
        tel: &Telemetry,
    ) -> Result<Profile> {
        let mut vm = tiered_vm(
            module,
            self.tier,
            &mut self.base_pd,
            self.decode_cache.as_deref(),
            tel,
        );
        let out = vm.run(entry, args)?;
        let profile: Profile = vm.take_profile();
        self.cycles_before += profile.total_cycles();
        self.runs_before += 1;
        self.results.push(out.ret);
        Ok(profile)
    }

    /// A pre-swap (or degraded software-only) run of the base module.
    pub fn software_run(
        &mut self,
        module: &Module,
        entry: &str,
        args: &[Value],
        tel: &Telemetry,
    ) -> Result<()> {
        let mut vm = tiered_vm(
            module,
            self.tier,
            &mut self.base_pd,
            self.decode_cache.as_deref(),
            tel,
        );
        let out = vm.run(entry, args)?;
        self.cycles_before += out.cycles;
        self.runs_before += 1;
        self.results.push(out.ret);
        Ok(())
    }

    /// A post-swap run of the specialized module on the loaded machine.
    pub fn adapted_run(
        &mut self,
        module: &Module,
        machine: &Woolcano,
        entry: &str,
        args: &[Value],
        tel: &Telemetry,
    ) -> Result<()> {
        // Sessions do not return to the base module after the swap, so
        // its decode is released first and one decode stays resident
        // instead of two (a later software run would simply decode again).
        self.base_pd = None;
        let binding = machine.bind();
        let mut vm = tiered_vm(
            module,
            self.tier,
            &mut self.spec_pd,
            self.decode_cache.as_deref(),
            tel,
        );
        vm.set_custom_handler(&binding);
        let out = vm.run(entry, args)?;
        self.cycles_after += out.cycles;
        self.runs_after += 1;
        self.results.push(out.ret);
        Ok(())
    }

    /// Runs executed before the swap (profiling run included).
    pub fn runs_before(&self) -> u32 {
        self.runs_before
    }

    /// Runs executed after the swap.
    pub fn runs_after(&self) -> u32 {
        self.runs_after
    }

    /// Return value of every run so far, in execution order.
    pub fn results(&self) -> &[Option<Value>] {
        &self.results
    }

    /// Average cycles per pre-swap run.
    pub fn avg_before(&self) -> u64 {
        self.cycles_before / self.runs_before.max(1) as u64
    }

    /// Average cycles per post-swap run; with no post-swap runs this is
    /// the pre-swap average (speedup 1.0), matching the degraded path
    /// of [`run_adaptive_with`].
    pub fn avg_after(&self) -> u64 {
        if self.runs_after > 0 {
            self.cycles_after / self.runs_after as u64
        } else {
            self.avg_before()
        }
    }

    /// Observed speedup: pre-swap average over post-swap average.
    pub fn observed_speedup(&self) -> f64 {
        self.avg_before() as f64 / self.avg_after().max(1) as f64
    }

    /// Consumes the session, yielding the per-run return values.
    pub fn into_results(self) -> Vec<Option<Value>> {
        self.results
    }
}

/// [`run_adaptive`] with explicit robustness options.
///
/// The session *always* terminates with correct workload results: a
/// worker that dies, panics, stalls past the watchdog, or fails
/// specialization degrades the session to software-only execution and
/// records the [`DegradedReason`] instead of propagating the failure.
#[allow(clippy::too_many_arguments)]
pub fn run_adaptive_with(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    args: &[Value],
    total_runs: u32,
    ready_after_runs: u32,
    options: &AdaptiveOptions,
) -> Result<AdaptiveOutcome> {
    let execute = |session: &SpecializeSession<'_>, job: &CadJob| session.execute(job);
    let (runs, ready) = (total_runs, ready_after_runs);
    adaptive_session(
        ctx, cache, module, entry, args, runs, ready, options, &execute,
    )
}

/// [`run_adaptive_with`], running each CAD job with `run_job`.
#[allow(clippy::too_many_arguments)]
fn adaptive_session(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    args: &[Value],
    total_runs: u32,
    ready_after_runs: u32,
    options: &AdaptiveOptions,
    run_job: &RunJob<'_>,
) -> Result<AdaptiveOutcome> {
    assert!(total_runs >= 2, "need at least profiling + one more run");

    let mut root = ctx.telemetry.span("runtime.adaptive");
    let tel = ctx.telemetry.under(&root);
    warm_restart(options, cache, &tel);

    // Per-session workload state: fast-tier pre-decode memos plus run
    // and cycle accounting. Profiling run first.
    let mut ws = WorkloadSession::new(options.vm_tier);
    let profile = ws.profile_run(module, entry, args, &tel)?;

    let vm_loop = |gate: &SwapGate<'_, '_>| -> Result<AdaptiveOutcome> {
        // Keep running the workload; swap when the worker is done and the
        // latency gate has passed. A degraded session stops waiting and
        // keeps executing the unmodified binary.
        let mut specialized: Option<Specialized> = None;
        let mut degraded: Option<DegradedReason> = None;

        for run in 1..total_runs {
            if specialized.is_none() && degraded.is_none() && run >= ready_after_runs {
                // Meet the worker the first time we are allowed to swap;
                // afterwards the specialized binary is in place.
                match gate.wait(options.watchdog) {
                    Ok(t) => {
                        specialized = Some(t);
                        tel.event("runtime.swap", &[("run", TelValue::U64(run as u64))]);
                    }
                    Err(reason) => degraded = Some(note_degraded(&tel, reason)),
                }
            }
            match &specialized {
                Some((m, machine, _)) => ws.adapted_run(m, machine, entry, args, &tel)?,
                None => ws.software_run(module, entry, args, &tel)?,
            }
        }
        // If the gate never opened (all runs before readiness), collect
        // the report now — unless the session already degraded.
        let report = match specialized {
            Some((_, _, report)) => Some(report),
            None if degraded.is_none() => match gate.wait(options.watchdog) {
                Ok((_, _, report)) => Some(report),
                Err(reason) => {
                    degraded = Some(note_degraded(&tel, reason));
                    None
                }
            },
            None => None,
        };

        Ok(AdaptiveOutcome {
            runs_before: ws.runs_before(),
            runs_after: ws.runs_after(),
            cycles_before: ws.avg_before(),
            cycles_after: ws.avg_after(),
            observed_speedup: ws.observed_speedup(),
            overhead: report.as_ref().map(|r| r.makespan).unwrap_or(SimTime::ZERO),
            report,
            degraded,
            results: ws.into_results(),
        })
    };
    let outcome = with_background_worker(
        ctx, cache, module, entry, profile, options, 512, &tel, run_job, vm_loop,
    )?;

    root.field("runs_before", TelValue::U64(outcome.runs_before as u64));
    root.field("runs_after", TelValue::U64(outcome.runs_after as u64));
    if let Some(reason) = &outcome.degraded {
        root.field("degraded", TelValue::Str(format!("{reason:?}")));
    }
    root.set_sim_time(outcome.overhead);
    drop(root);
    Ok(outcome)
}

/// One segment of a phased workload schedule: `runs` executions of the
/// session entry point with these arguments. A storm schedule is a list
/// of segments — the argument change *is* the phase change (e.g. the
/// kernel selector of [`jitise_apps::build_phased`]'s `main`).
#[derive(Debug, Clone)]
pub struct PhaseSegment {
    /// Arguments for every run in this segment.
    pub args: Vec<Value>,
    /// Number of workload runs in this segment.
    pub runs: u32,
}

impl PhaseSegment {
    /// Convenience constructor.
    pub fn new(args: Vec<Value>, runs: u32) -> PhaseSegment {
        PhaseSegment { args, runs }
    }
}

/// Phase-detector, eviction, and re-specialization policy (DESIGN.md §14).
///
/// All thresholds operate on exact integer cycle counts from the
/// [`HotnessWindow`], so decisions are bit-identical for a fixed seed
/// regardless of host or CAD worker count.
#[derive(Debug, Clone, Copy)]
pub struct PhasePolicy {
    /// Runs retained by the hotness window. The detector only trusts a
    /// full window, so this is also the minimum lag before a phase change
    /// can be noticed.
    pub window: usize,
    /// An installed CI set whose share of windowed cycles falls below
    /// this is "cold" — it has stopped earning its slot.
    pub cold_share: f64,
    /// Consecutive cold runs required before declaring a phase change.
    /// This is the anti-thrash hysteresis: a workload that alternates its
    /// hot set faster than the window keeps the installed share warm and
    /// never accumulates a streak.
    pub hysteresis: u32,
    /// Runs after any swap (install or re-specialization) before the
    /// detector re-arms — the backoff that stops a detect/respec loop
    /// from oscillating.
    pub cooldown: u32,
    /// Re-specialization attempts allowed per session. Once exhausted,
    /// further phase changes are detected and evicted but not re-
    /// specialized (the session stays correct, merely cold).
    pub max_respecs: u32,
}

impl Default for PhasePolicy {
    fn default() -> Self {
        PhasePolicy {
            window: 4,
            cold_share: 0.10,
            hysteresis: 3,
            cooldown: 4,
            max_respecs: 4,
        }
    }
}

/// Options for [`run_storm`].
pub struct StormOptions {
    /// The underlying robustness options (watchdog, faults, retry,
    /// quarantine, CAD/search lanes, store).
    pub base: AdaptiveOptions,
    /// Phase-detection and eviction policy.
    pub policy: PhasePolicy,
    /// Latency gate for the *initial* background specialization, in
    /// workload runs (as in [`run_adaptive`]).
    pub ready_after_runs: u32,
    /// ICAP slot capacity of each Woolcano machine instantiated by the
    /// session.
    pub slots: usize,
}

impl Default for StormOptions {
    fn default() -> Self {
        StormOptions {
            base: AdaptiveOptions::default(),
            policy: PhasePolicy::default(),
            ready_after_runs: 2,
            slots: 512,
        }
    }
}

/// Outcome of a storm session ([`run_storm`]).
pub struct StormOutcome {
    /// Return value of every workload run, in order. Degraded, evicted,
    /// re-specialized or not: these must match a software-only session.
    pub results: Vec<Option<Value>>,
    /// Simulated cycles of every run, in order (the speedup trajectory
    /// across phase changes).
    pub run_cycles: Vec<u64>,
    /// Phase changes declared by the detector.
    pub phases_detected: u32,
    /// Bitstream-cache entries evicted as zero-benefit.
    pub evictions: u64,
    /// Successful re-specializations (each one is also a hot-swap).
    pub respecs: u32,
    /// Phase changes that wanted a re-specialization but were denied by
    /// the `max_respecs` budget.
    pub respecs_denied: u32,
    /// Hot-swaps performed (initial install + re-specializations).
    pub swaps: u32,
    /// Degraded transitions observed (worker faults, failed respecs).
    /// Unlike [`AdaptiveOutcome`], a storm session survives degradation
    /// and may re-specialize successfully later, so this is a count.
    pub degraded_events: u32,
    /// The most recent degradation, if any.
    pub degraded: Option<DegradedReason>,
    /// Every specialization report, in chronological order (initial
    /// install first, then one per successful re-specialization).
    pub reports: Vec<SpecializeReport>,
    /// Total simulated specialization overhead (initial makespan + every
    /// respec makespan). Lane-dependent, hence excluded from
    /// [`Self::fingerprint`].
    pub overhead: SimTime,
}

impl StormOutcome {
    /// Deterministic digest of every observable that must be bit-identical
    /// for a fixed seed across `cad_workers` / `search_workers` settings.
    /// Deliberately excludes `overhead` (makespans shrink with more lanes;
    /// see [`SpecializeReport::fingerprint`], which excludes makespan for
    /// the same reason).
    pub fn fingerprint(&self) -> String {
        format!(
            "phases={} evict={} respec={} denied={} swaps={} dev={} degraded={:?} cycles={:?} results={:?} reports=[{}]",
            self.phases_detected,
            self.evictions,
            self.respecs,
            self.respecs_denied,
            self.swaps,
            self.degraded_events,
            self.degraded,
            self.run_cycles,
            self.results,
            self.reports
                .iter()
                .map(|r| r.fingerprint())
                .collect::<Vec<_>>()
                .join(" | "),
        )
    }
}

/// (signature, block, saved_per_exec) of every CI a report installed — the
/// set a storm's phase detector and eviction scorer watch.
fn installed_set(report: &SpecializeReport) -> Vec<(u64, BlockKey, u64)> {
    (report.candidates.iter())
        .map(|c| (c.signature, c.key, c.saved_per_exec))
        .collect()
}

/// Runs a phased workload schedule under the full storm machinery:
/// background initial specialization (as [`run_adaptive_with`]), a
/// windowed-hotness phase detector, benefit-scored eviction of cold CIs
/// from the bitstream cache (journaled to the store as
/// [`Record::Evict`] tombstones), and bounded synchronous
/// re-specialization from the window's aggregate profile.
///
/// Robustness contract: whatever the fault plan does — worker deaths and
/// stalls (burst-correlated or not), CAD failures, store crashes — the
/// session terminates with workload results bit-identical to a
/// software-only run. Degradation is survivable: a respec denied by a
/// fault burst can succeed at the next phase change.
pub fn run_storm(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    schedule: &[PhaseSegment],
    options: &StormOptions,
) -> Result<StormOutcome> {
    assert!(!schedule.is_empty(), "storm schedule must not be empty");
    let total_runs: u32 = schedule.iter().map(|s| s.runs).sum();
    assert!(total_runs >= 2, "need at least profiling + one more run");

    // Segment index of every run, precomputed so the loop body is a
    // plain indexed lookup.
    let mut seg_of: Vec<usize> = Vec::with_capacity(total_runs as usize);
    for (i, seg) in schedule.iter().enumerate() {
        for _ in 0..seg.runs {
            seg_of.push(i);
        }
    }

    let mut root = ctx.telemetry.span("runtime.storm");
    let tel = ctx.telemetry.under(&root);

    warm_restart(&options.base, cache, &tel);

    // Pre-decoded forms (fast tier only): the base module is decoded once
    // for the whole storm; each installed binary is decoded at its swap
    // and the decode is dropped when a re-specialization replaces it.
    let tier = options.base.vm_tier;
    let mut base_pd: Option<Arc<PredecodedModule>> = None;
    let mut spec_pd: Option<Arc<PredecodedModule>> = None;

    // Profiling run (first segment's arguments).
    let mut vm = tiered_vm(module, tier, &mut base_pd, None, &tel);
    let first = vm.run(entry, &schedule[seg_of[0]].args)?;
    let profile: Profile = vm.take_profile();
    let first_cycles = profile.total_cycles();

    // The initial specialization runs in the background, seeded from the
    // profiling run, on the same worker machinery as [`run_adaptive_with`].
    let worker_profile = profile.clone();
    let vm_loop = |gate: &SwapGate<'_, '_>| -> Result<StormOutcome> {
        // Main loop state.
        let mut specialized: Option<(Module, Arc<Woolcano>)> = None;
        let mut current_report: Option<SpecializeReport> = None;
        let mut installed: Vec<(u64, BlockKey, u64)> = Vec::new();
        let mut window = HotnessWindow::new(options.policy.window);
        window.push(profile);
        let mut reports: Vec<SpecializeReport> = Vec::new();
        let mut results: Vec<Option<Value>> = Vec::with_capacity(total_runs as usize);
        results.push(first.ret);
        let mut run_cycles: Vec<u64> = Vec::with_capacity(total_runs as usize);
        run_cycles.push(first_cycles);
        let mut degraded: Option<DegradedReason> = None;
        let mut worker_collected = false;
        let mut overhead = SimTime::ZERO;
        let mut phases_detected = 0u32;
        let mut evictions = 0u64;
        let mut respecs = 0u32;
        let mut respecs_denied = 0u32;
        let mut respec_attempts = 0u32;
        let mut degraded_events = 0u32;
        let mut swaps = 0u32;
        let mut cold_streak = 0u32;
        let mut cooldown_until = 0u32;

        for run in 1..total_runs {
            let args = &schedule[seg_of[run as usize]].args;

            // Initial install gate (one-shot, as in run_adaptive).
            if !worker_collected && degraded.is_none() && run >= options.ready_after_runs {
                worker_collected = true;
                match gate.wait(options.base.watchdog) {
                    Ok((m, machine, report)) => {
                        installed = installed_set(&report);
                        overhead += report.makespan;
                        current_report = Some(report);
                        spec_pd = None;
                        specialized = Some((m, machine));
                        swaps += 1;
                        window.clear();
                        cold_streak = 0;
                        cooldown_until = run + options.policy.cooldown;
                        tel.event("runtime.swap", &[("run", TelValue::U64(run as u64))]);
                    }
                    Err(reason) => {
                        degraded_events += 1;
                        degraded = Some(note_degraded(&tel, reason));
                    }
                }
            }

            // Execute the run on whatever binary is current.
            let (ret, cycles, run_profile) = match &specialized {
                Some((m, machine)) => {
                    let binding = machine.bind();
                    let mut vm = tiered_vm(m, tier, &mut spec_pd, None, &tel);
                    vm.set_custom_handler(&binding);
                    let out = vm.run(entry, args)?;
                    let p = vm.take_profile();
                    (out.ret, out.cycles, p)
                }
                None => {
                    let mut vm = tiered_vm(module, tier, &mut base_pd, None, &tel);
                    let out = vm.run(entry, args)?;
                    let p = vm.take_profile();
                    (out.ret, out.cycles, p)
                }
            };
            results.push(ret);
            run_cycles.push(cycles);
            window.push(run_profile);

            // Phase detector: only with something installed, a full
            // window, and past the post-swap cooldown.
            if specialized.is_none() || run < cooldown_until || !window.is_full() {
                continue;
            }
            let keys: Vec<BlockKey> = installed.iter().map(|&(_, k, _)| k).collect();
            let share = window.cycles_share(&keys);
            if share < options.policy.cold_share {
                cold_streak += 1;
            } else {
                cold_streak = 0;
            }
            if cold_streak < options.policy.hysteresis {
                continue;
            }

            // Phase change declared.
            cold_streak = 0;
            phases_detected += 1;
            tel.add(names::RUNTIME_PHASE_DETECTED, 1);
            tel.event(
                "runtime.phase_change",
                &[
                    ("run", TelValue::U64(run as u64)),
                    ("share_permille", TelValue::U64((share * 1000.0) as u64)),
                ],
            );

            // Benefit-scored eviction: a CI whose windowed benefit
            // (executions × saved cycles per execution) is zero has
            // stopped earning its cache slot. Journal each eviction so a
            // crash-restart rehydrates the post-eviction cache.
            for &(sig, key, saved) in &installed {
                let benefit = window.count_of(key) * saved;
                if benefit == 0 && cache.remove(sig) {
                    evictions += 1;
                    tel.add(names::RUNTIME_EVICTIONS, 1);
                    tel.event("runtime.evict", &[("signature", TelValue::U64(sig))]);
                    if let Some(store) = &options.base.store {
                        // A dead store must not kill the session; the
                        // append failure is already counted by the store.
                        let _ = store.append(Record::Evict { signature: sig });
                    }
                }
            }

            // Bounded re-specialization.
            if respec_attempts >= options.policy.max_respecs {
                respecs_denied += 1;
                tel.event(
                    "runtime.respec_denied",
                    &[("run", TelValue::U64(run as u64))],
                );
                cooldown_until = run + options.policy.cooldown;
                continue;
            }
            respec_attempts += 1;
            // Worker faults apply to respecs too, epoch-keyed by run so
            // burst plans can concentrate them into storm windows. A
            // firing degrades this respec (the old binary stays — cold
            // but correct) without blocking a later retry.
            let rinj = options
                .base
                .faults
                .scope(worker_key(entry), 1)
                .at_epoch(run as u64);
            if injected_worker_fault(&tel, &rinj, FaultSite::WorkerDeath) {
                degraded_events += 1;
                degraded = Some(note_degraded(&tel, DegradedReason::WorkerDisconnected));
                cooldown_until = run + options.policy.cooldown;
                continue;
            }
            if injected_worker_fault(&tel, &rinj, FaultSite::WorkerStall) {
                degraded_events += 1;
                degraded = Some(note_degraded(&tel, DegradedReason::WorkerStalled));
                cooldown_until = run + options.policy.cooldown;
                continue;
            }
            // Synchronous re-specialization from the window's aggregate —
            // the workload's *current* behavior, not its history. Runs on
            // the main thread for determinism; its simulated makespan is
            // the price, accounted in `overhead`.
            let rspan = tel.span("runtime.respec");
            let rtel = tel.under(&rspan);
            let mut m2 = module.clone();
            let machine2 = Arc::new(Woolcano::with_telemetry(options.slots, rtel.clone()));
            let agg = window.aggregate();
            let spec = catch_panic(|| {
                specialize(
                    &mut m2,
                    &agg,
                    &machine2,
                    &ctx.estimator,
                    &ctx.db,
                    &ctx.netlists,
                    cache,
                    &options
                        .base
                        .specialize_config(rtel.clone(), options.base.faults.at_epoch(run as u64)),
                )
                .map_err(|e| e.to_string())
            })
            .unwrap_or_else(|msg| Err(format!("respec panicked: {msg}")));
            drop(rspan);
            match spec {
                Ok(report) => {
                    // Retire the old machine: every occupied slot is an
                    // ICAP-level eviction.
                    if let Some((_, old_machine)) = &specialized {
                        let (_, _, occupied, _) = old_machine.slot_stats();
                        tel.add(names::ICAP_EVICTIONS, occupied as u64);
                    }
                    installed = installed_set(&report);
                    overhead += report.makespan;
                    if let Some(prev) = current_report.replace(report) {
                        reports.push(prev);
                    }
                    spec_pd = None;
                    specialized = Some((m2, machine2));
                    respecs += 1;
                    swaps += 1;
                    tel.add(names::RUNTIME_RESPECS, 1);
                    tel.event("runtime.respec", &[("run", TelValue::U64(run as u64))]);
                    window.clear();
                }
                Err(msg) => {
                    degraded_events += 1;
                    degraded = Some(note_degraded(&tel, DegradedReason::SpecializeFailed(msg)));
                }
            }
            cold_streak = 0;
            cooldown_until = run + options.policy.cooldown;
        }

        // Collect the initial worker if the gate never opened.
        if !worker_collected && degraded.is_none() {
            match gate.wait(options.base.watchdog) {
                Ok((_, _, report)) => {
                    overhead += report.makespan;
                    reports.push(report);
                }
                Err(reason) => {
                    degraded_events += 1;
                    degraded = Some(note_degraded(&tel, reason));
                }
            }
        }
        if let Some(r) = current_report.take() {
            reports.push(r);
        }

        Ok(StormOutcome {
            results,
            run_cycles,
            phases_detected,
            evictions,
            respecs,
            respecs_denied,
            swaps,
            degraded_events,
            degraded,
            reports,
            overhead,
        })
    };
    let outcome = with_background_worker(
        ctx,
        cache,
        module,
        entry,
        worker_profile,
        &options.base,
        options.slots,
        &tel,
        &|session, job| session.execute(job),
        vm_loop,
    )?;

    root.field("phases", TelValue::U64(outcome.phases_detected as u64));
    root.field("evictions", TelValue::U64(outcome.evictions));
    root.field("respecs", TelValue::U64(outcome.respecs as u64));
    root.field("swaps", TelValue::U64(outcome.swaps as u64));
    if let Some(reason) = &outcome.degraded {
        root.field("degraded", TelValue::Str(format!("{reason:?}")));
    }
    root.set_sim_time(outcome.overhead);
    drop(root);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::hot_module;
    use jitise_faults::FaultPlan;

    #[test]
    fn adapts_and_speeds_up() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let out = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2).unwrap();
        assert!(out.runs_after >= 1, "must run specialized at least once");
        assert!(
            out.observed_speedup > 1.0,
            "specialized runs must be faster: {}",
            out.observed_speedup
        );
        assert!(out.overhead > SimTime::ZERO);
        assert!(out.degraded.is_none());
        assert!(!out.report.as_ref().unwrap().candidates.is_empty());
        assert_eq!(out.results.len(), 6);
        assert!(out.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn late_gate_still_returns_report() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        // Gate beyond total runs: everything executes unspecialized, but
        // the report must still arrive.
        let out = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(500)], 3, 99).unwrap();
        assert_eq!(out.runs_after, 0);
        assert_eq!(out.runs_before, 3);
        assert!((out.observed_speedup - 1.0).abs() < 1e-9);
        assert!(out.degraded.is_none());
        assert!(!out.report.as_ref().unwrap().candidates.is_empty());
    }

    #[test]
    fn second_session_hits_cache() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let first = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2).unwrap();
        assert_eq!(first.report.as_ref().unwrap().cache_hits, 0);
        let second = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2).unwrap();
        let report = second.report.as_ref().unwrap();
        assert_eq!(
            report.cache_hits,
            report.candidates.len(),
            "second session must be served from the bitstream cache"
        );
        assert_eq!(second.overhead, SimTime::ZERO);
    }

    fn degraded_options(site: FaultSite, watchdog_ms: u64) -> AdaptiveOptions {
        AdaptiveOptions {
            watchdog: Duration::from_millis(watchdog_ms),
            faults: FaultInjector::from_plan(FaultPlan::none(23).with_rate(site, 1.0)),
            ..AdaptiveOptions::default()
        }
    }

    fn software_results(m: &Module, n: i64, runs: usize) -> Vec<Option<Value>> {
        let mut vm = Interpreter::new(m);
        let want = vm.run("main", &[Value::I(n)]).unwrap().ret;
        vec![want; runs]
    }

    #[test]
    fn dead_worker_degrades_to_software_only() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = degraded_options(FaultSite::WorkerDeath, 2_000);
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(800)], 4, 2, &opts).unwrap();
        assert_eq!(out.degraded, Some(DegradedReason::WorkerDisconnected));
        assert!(out.report.is_none());
        assert_eq!(out.runs_after, 0);
        assert_eq!(out.runs_before, 4);
        assert!((out.observed_speedup - 1.0).abs() < 1e-9);
        assert_eq!(out.overhead, SimTime::ZERO);
        assert_eq!(out.results, software_results(&m, 800, 4));
    }

    #[test]
    fn stalled_worker_is_abandoned_by_the_watchdog() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = degraded_options(FaultSite::WorkerStall, 200);
        let start = std::time::Instant::now();
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(800)], 4, 2, &opts).unwrap();
        assert_eq!(out.degraded, Some(DegradedReason::WorkerStalled));
        assert!(out.report.is_none());
        assert_eq!(out.runs_before, 4);
        assert_eq!(out.results, software_results(&m, 800, 4));
        // One watchdog expiry plus the joined (cancelled) worker — never
        // the stall cap.
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn cad_job_panic_on_the_vm_thread_degrades_to_software_only() {
        // adpcm has several CAD jobs. The worker's first job waits until
        // the VM thread has claimed one at the swap gate, and every job the
        // VM thread claims panics.
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let app = jitise_apps::App::build("adpcm").unwrap();
        let args = &app.datasets[0].args;
        let vm_thread = std::thread::current().id();
        let meet = std::sync::Barrier::new(2);
        let worker_met = std::sync::atomic::AtomicBool::new(false);
        let run_job = |session: &SpecializeSession<'_>, job: &CadJob| {
            if std::thread::current().id() == vm_thread {
                meet.wait();
                panic!("injected CAD job panic at the swap gate");
            }
            if !worker_met.swap(true, std::sync::atomic::Ordering::Relaxed) {
                meet.wait();
            }
            session.execute(job)
        };
        let opts = AdaptiveOptions::default();
        let (m, entry) = (&app.module, app.entry);
        let out = adaptive_session(&ctx, &cache, m, entry, args, 4, 2, &opts, &run_job).unwrap();
        match &out.degraded {
            Some(DegradedReason::SpecializeFailed(msg)) => assert!(
                msg.contains("worker panicked: injected CAD job panic at the swap gate"),
                "{msg}"
            ),
            other => panic!("expected a re-raised job panic, got {other:?}"),
        }
        assert!(out.report.is_none());
        assert_eq!(out.runs_after, 0);
        assert_eq!(out.overhead, SimTime::ZERO);
        let dead = degraded_options(FaultSite::WorkerDeath, 2_000);
        let software = run_adaptive_with(&ctx, &cache, m, entry, args, 4, 2, &dead).unwrap();
        assert!(software.degraded.is_some());
        assert_eq!(out.results, software.results);
    }

    #[test]
    fn one_lane_session_runs_on_its_two_threads() {
        // adpcm has several CAD jobs, so a spawned pool thread would claim
        // some and record spans (two lanes read three threads here).
        let tel = Telemetry::enabled();
        let ctx = EvalContext::with_telemetry(tel.clone());
        let cache = BitstreamCache::new();
        let app = jitise_apps::App::build("adpcm").unwrap();
        let args = &app.datasets[0].args;
        let out = run_adaptive(&ctx, &cache, &app.module, app.entry, args, 4, 2).unwrap();
        assert!(out.degraded.is_none());
        assert!(!out.report.as_ref().unwrap().candidates.is_empty());
        assert_eq!(
            tel.snapshot().threads.len(),
            2,
            "only the VM thread and the worker may record"
        );
    }

    #[test]
    fn warm_restart_serves_recovered_entries_as_cache_hits() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm");
        let m = hot_module();

        // Session 1: fresh process, store-backed. Everything is a miss and
        // gets journaled.
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let opts = AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            };
            let out = run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts)
                .unwrap();
            let report = out.report.as_ref().unwrap();
            assert_eq!(report.cache_hits, 0);
            assert!(!report.candidates.is_empty());
            assert!(
                !store.state().entries.is_empty(),
                "commits must be journaled"
            );
        }

        // Session 2: simulated process restart — fresh cache, fresh store
        // handle recovered from disk. Every candidate must be a cache hit
        // and the adaptation overhead must vanish.
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        assert!(!store.recovery().wal_stale);
        let opts = AdaptiveOptions {
            store: Some(Arc::clone(&store)),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts).unwrap();
        let report = out.report.as_ref().unwrap();
        assert_eq!(
            report.cache_hits,
            report.candidates.len(),
            "warm restart must serve every candidate from the recovered cache"
        );
        assert_eq!(out.overhead, SimTime::ZERO);
    }

    #[test]
    fn warm_restart_matches_session_seeded_with_recovered_cache() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm-ident");
        let m = hot_module();
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let opts = AdaptiveOptions {
                store: Some(store),
                ..AdaptiveOptions::default()
            };
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(700)], 4, 2, &opts).unwrap();
        }
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());

        // Reference: a storeless session whose cache was seeded by hand
        // from the recovered state.
        let ctx = EvalContext::new();
        let seeded = BitstreamCache::new();
        seeded.absorb_store(&store.state());
        let want = run_adaptive(&ctx, &seeded, &m, "main", &[Value::I(700)], 4, 2).unwrap();

        // Warm restart through the store must be observationally identical.
        let ctx2 = EvalContext::new();
        let cache = BitstreamCache::new();
        let opts = AdaptiveOptions {
            store: Some(store),
            ..AdaptiveOptions::default()
        };
        let got =
            run_adaptive_with(&ctx2, &cache, &m, "main", &[Value::I(700)], 4, 2, &opts).unwrap();
        assert_eq!(
            got.report.as_ref().unwrap().fingerprint(),
            want.report.as_ref().unwrap().fingerprint(),
            "warm restart must be bit-identical to a hand-seeded session"
        );
        assert_eq!(got.fingerprint(), want.fingerprint());
    }

    fn overlay_lib(ctx: &EvalContext) -> Option<Arc<OverlayLibrary>> {
        Some(Arc::new(OverlayLibrary::from_db(&ctx.db)))
    }

    #[test]
    fn adaptive_overlay_session_installs_fast_then_upgrades() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = AdaptiveOptions {
            overlay: overlay_lib(&ctx),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2, &opts).unwrap();
        assert!(out.degraded.is_none());
        let report = out.report.as_ref().unwrap();
        assert!(!report.candidates.is_empty());
        assert_eq!(report.overlay_installs, report.candidates.len());
        assert_eq!(report.upgrades, report.candidates.len());
        assert!(report
            .candidates
            .iter()
            .all(|c| c.tier == jitise_cad::InstallTier::Full && c.upgraded));
        assert!(out.observed_speedup > 1.0);

        // Two-tier or not, the workload's answers never change.
        let ctx2 = EvalContext::new();
        let cache2 = BitstreamCache::new();
        let base = run_adaptive(&ctx2, &cache2, &m, "main", &[Value::I(3_000)], 6, 2).unwrap();
        assert_eq!(out.results, base.results);
    }

    #[test]
    fn warm_restart_rehydrates_overlay_tier_and_upgrades() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm-overlay");
        let m = hot_module();

        // Session 1: full generation is persistently dead, so every
        // candidate is served by the overlay and journaled at the overlay
        // tier.
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let mut plan = FaultPlan::none(29).with_rate(FaultSite::CadMap, 1.0);
            plan.persistent_frac = 1.0;
            let opts = AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                faults: FaultInjector::from_plan(plan),
                overlay: overlay_lib(&ctx),
                ..AdaptiveOptions::default()
            };
            let out = run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts)
                .unwrap();
            assert!(out.degraded.is_none(), "the overlay must carry the session");
            let report = out.report.as_ref().unwrap();
            assert!(!report.candidates.is_empty());
            assert!(report
                .candidates
                .iter()
                .all(|c| c.tier == jitise_cad::InstallTier::Overlay));
            let state = store.state();
            assert!(!state.entries.is_empty(), "overlay commits must journal");
            assert!(
                state
                    .entries
                    .values()
                    .all(|r| r.tier == jitise_cad::InstallTier::Overlay),
                "the journal must record the overlay tier"
            );
        }

        // Session 2: simulated restart — fresh cache, store recovered from
        // disk, faults gone. The rehydrated overlay entries serve the fast
        // path with zero re-assembly and every candidate upgrades to Full.
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        let opts = AdaptiveOptions {
            store: Some(Arc::clone(&store)),
            overlay: overlay_lib(&ctx),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts).unwrap();
        let report = out.report.as_ref().unwrap();
        assert_eq!(report.overlay_installs, report.candidates.len());
        assert_eq!(report.upgrades, report.candidates.len());
        assert!(report
            .candidates
            .iter()
            .all(|c| c.tier == jitise_cad::InstallTier::Full));
        assert_eq!(
            report.overlay_time,
            SimTime::ZERO,
            "rehydrated entries need no re-assembly"
        );
        // The journal now carries the full-tier artifact for session 3.
        assert!(store
            .state()
            .entries
            .values()
            .all(|r| r.tier == jitise_cad::InstallTier::Full));
    }

    #[test]
    fn storeless_session_is_byte_identical_to_default() {
        let m = hot_module();
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let base = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(900)], 4, 2).unwrap();

        let ctx2 = EvalContext::new();
        let cache2 = BitstreamCache::new();
        let opts = AdaptiveOptions {
            store: None,
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx2, &cache2, &m, "main", &[Value::I(900)], 4, 2, &opts).unwrap();
        assert_eq!(
            out.fingerprint(),
            base.fingerprint(),
            "store: None must leave the session untouched"
        );
    }

    #[test]
    fn degraded_session_matches_healthy_results() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let healthy = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(600)], 4, 2).unwrap();
        let cache2 = BitstreamCache::new();
        let opts = degraded_options(FaultSite::WorkerDeath, 2_000);
        let degraded =
            run_adaptive_with(&ctx, &cache2, &m, "main", &[Value::I(600)], 4, 2, &opts).unwrap();
        assert_eq!(
            healthy.results, degraded.results,
            "degradation must never change workload answers"
        );
    }

    // ---- storm runtime ----

    use jitise_apps::{build_phased, PhasedSpec};

    fn storm_module(near_duplicate: bool) -> Module {
        build_phased(&PhasedSpec {
            kernels: 2,
            hot_iters: 120,
            near_duplicate,
            ..PhasedSpec::default()
        })
    }

    fn seg(sel: i64, runs: u32) -> PhaseSegment {
        PhaseSegment::new(vec![Value::I(sel), Value::I(2)], runs)
    }

    fn storm_options() -> StormOptions {
        StormOptions {
            policy: PhasePolicy {
                window: 2,
                cold_share: 0.2,
                hysteresis: 2,
                cooldown: 2,
                max_respecs: 2,
            },
            ready_after_runs: 2,
            ..StormOptions::default()
        }
    }

    fn software_schedule_results(m: &Module, schedule: &[PhaseSegment]) -> Vec<Option<Value>> {
        let mut out = Vec::new();
        for s in schedule {
            for _ in 0..s.runs {
                let mut vm = Interpreter::new(m);
                out.push(vm.run("main", &s.args).unwrap().ret);
            }
        }
        out
    }

    #[test]
    fn storm_detects_phase_change_evicts_and_respecializes() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &storm_options()).unwrap();

        assert!(out.degraded.is_none(), "healthy storm must not degrade");
        assert!(out.phases_detected >= 1, "rotation must be detected");
        assert!(out.evictions >= 1, "cold CIs must be evicted");
        assert!(out.respecs >= 1, "a re-specialization must land");
        assert_eq!(out.swaps, 1 + out.respecs, "initial install + respecs");
        assert_eq!(out.reports.len() as u32, 1 + out.respecs);
        assert_eq!(out.run_cycles.len(), 20);

        // The workload's answers never change.
        assert_eq!(out.results, software_schedule_results(&m, &schedule));

        // Eviction pays off: after the respec, the new phase runs faster
        // than it did on the stale binary right after the phase change.
        let stale = out.run_cycles[8]; // first phase-B run, stale CIs
        let steady = *out.run_cycles.last().unwrap();
        assert!(
            steady < stale,
            "post-respec steady state ({steady}) must beat the stale binary ({stale})"
        );
    }

    #[test]
    fn storm_fingerprint_invariant_across_cad_workers() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |lanes: usize| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = StormOptions {
                base: AdaptiveOptions {
                    cad_workers: lanes,
                    search_workers: lanes.min(2),
                    ..AdaptiveOptions::default()
                },
                ..storm_options()
            };
            run_storm(&ctx, &cache, &m, "main", &schedule, &opts)
                .unwrap()
                .fingerprint()
        };
        let base = fp(1);
        assert_eq!(base, fp(4), "cad_workers must never change observables");
    }

    #[test]
    fn storm_fingerprint_invariant_across_cad_workers_with_overlay() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |lanes: usize| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = StormOptions {
                base: AdaptiveOptions {
                    cad_workers: lanes,
                    overlay: overlay_lib(&ctx),
                    ..AdaptiveOptions::default()
                },
                ..storm_options()
            };
            let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
            assert!(
                out.reports.iter().any(|r| r.overlay_installs > 0),
                "the two-tier path must actually engage"
            );
            out.fingerprint()
        };
        let base = fp(1);
        assert_eq!(base, fp(2), "two lanes must not change observables");
        assert_eq!(base, fp(8), "eight lanes must not change observables");
    }

    #[test]
    fn storm_fingerprint_invariant_across_vm_tiers() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |tier: VmTier| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = StormOptions {
                base: AdaptiveOptions {
                    vm_tier: tier,
                    ..AdaptiveOptions::default()
                },
                ..storm_options()
            };
            run_storm(&ctx, &cache, &m, "main", &schedule, &opts)
                .unwrap()
                .fingerprint()
        };
        assert_eq!(
            fp(VmTier::Interp),
            fp(VmTier::Fast),
            "the fast tier must never change observables"
        );
    }

    #[test]
    fn adaptive_session_identical_on_fast_tier() {
        let m = hot_module();
        let run = |tier: VmTier| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = AdaptiveOptions {
                vm_tier: tier,
                ..AdaptiveOptions::default()
            };
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2, &opts).unwrap()
        };
        let a = run(VmTier::Interp);
        let b = run(VmTier::Fast);
        assert_eq!(a.results, b.results);
        assert_eq!(a.cycles_before, b.cycles_before);
        assert_eq!(a.cycles_after, b.cycles_after);
        assert_eq!(
            a.report.as_ref().unwrap().fingerprint(),
            b.report.as_ref().unwrap().fingerprint()
        );
        assert!(b.runs_after >= 1, "fast tier must still hot-swap");
    }

    #[test]
    fn thrash_population_does_not_oscillate_the_installer() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(true);
        // Near-duplicate kernels alternating every run: faster than the
        // window, so the installed share stays warm and hysteresis holds.
        let schedule: Vec<PhaseSegment> = (0..16).map(|i| seg(i % 2, 1)).collect();
        let opts = StormOptions {
            policy: PhasePolicy {
                window: 4,
                cold_share: 0.2,
                hysteresis: 2,
                cooldown: 2,
                max_respecs: 4,
            },
            ready_after_runs: 2,
            ..StormOptions::default()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.degraded.is_none());
        assert_eq!(out.swaps, 1, "thrash must not oscillate the installer");
        assert_eq!(out.phases_detected, 0);
        assert_eq!(out.respecs, 0);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }

    #[test]
    fn respec_budget_bounds_the_installer() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        // Two real phase changes but a budget of zero: both are detected
        // (and evicted), neither re-specializes.
        let schedule = [seg(0, 8), seg(1, 8)];
        let opts = StormOptions {
            policy: PhasePolicy {
                max_respecs: 0,
                ..storm_options().policy
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.phases_detected >= 1);
        assert_eq!(out.respecs, 0);
        assert!(out.respecs_denied >= 1);
        assert_eq!(out.swaps, 1);
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }

    #[test]
    fn storm_journals_evictions_so_restart_sees_post_eviction_cache() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("storm-evict-journal");
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];

        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        let opts = StormOptions {
            base: AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.evictions >= 1, "need at least one journaled eviction");
        drop(store);

        // A fresh process recovering the store must reconstruct exactly
        // the live cache: evicted entries gone, respec entries present.
        let reopened = Store::open_with(tmp.path(), StoreOptions::default()).unwrap();
        let restored = BitstreamCache::new();
        restored.absorb_store(&reopened.state());
        assert_eq!(
            restored.to_bytes(),
            cache.to_bytes(),
            "recovered cache must equal the post-eviction live cache"
        );
    }

    #[test]
    fn respec_denied_by_worker_fault_keeps_session_correct() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];
        // Worker deaths fire only inside a burst window positioned so the
        // initial worker (epoch 0) is calm but every respec epoch (run
        // numbers ≥ 10, where phase-B detection lands) is hot:
        // pos(epoch) = (epoch + 190) % 200, window = [0, 150).
        let plan = FaultPlan::none(190)
            .with_rate(FaultSite::WorkerDeath, 1.0)
            .with_bursts(jitise_faults::Bursts {
                period: 200,
                width: 150,
                boost: 1.0,
                calm: 0.0,
            });
        let opts = StormOptions {
            base: AdaptiveOptions {
                faults: FaultInjector::from_plan(plan),
                ..AdaptiveOptions::default()
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.swaps >= 1, "initial install is outside the burst");
        assert!(out.phases_detected >= 1, "rotation still detected");
        assert_eq!(out.respecs, 0, "every respec attempt dies in the burst");
        assert_eq!(out.degraded, Some(DegradedReason::WorkerDisconnected));
        assert!(out.degraded_events >= 1);
        // Degraded mid-storm or not, answers stay bit-identical.
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }
}
