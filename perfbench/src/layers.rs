//! Per-layer metrics of a traced pass.
//!
//! Every workload reports the same catalogue ([`Layers::metrics`]); a
//! layer a workload never exercises reads 0. Host times come either from
//! timers around calls the benchmark makes itself or from the program's
//! existing telemetry: span *totals* of leaf spans (never self times)
//! and counters.

use crate::report::Metrics;
use jitise_telemetry::{names, Snapshot, Telemetry};
use std::collections::HashMap;
use std::time::Instant;

/// Spans the main-thread attribution sums: the program's leaf work. Only
/// the outermost of any nested pair counts, so nothing is counted twice.
const LEAVES: &[&str] = &[
    "vm.run",
    "ise.search",
    "pivpav.c2v",
    "cad.syntax",
    "cad.xst",
    "cad.translate",
    "cad.map",
    "cad.par",
    "cad.bitgen",
    "woolcano.install",
    "woolcano.upgrade",
    "store.compact",
];

const CAD_STAGES: &[&str] = &[
    "cad.syntax",
    "cad.xst",
    "cad.translate",
    "cad.map",
    "cad.par",
    "cad.bitgen",
];

/// Raw per-layer quantities, filled by each workload's traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    pub vm_busy_s: f64,
    pub vm_profile_busy_s: f64,
    pub vm_guest_insts: u64,
    pub ise_search_s: f64,
    pub ise_selected: u64,
    pub core_dispatch_s: f64,
    pub core_finalize_s: f64,
    pub core_failed: u64,
    pub core_retries: u64,
    pub cad_busy_s: f64,
    pub cad_jobs: u64,
    pub cad_sim_tool_s: f64,
    pub cad_overlay_installs: u64,
    pub cad_upgrades: u64,
    pub store_bytes_written: u64,
    pub store_recover_s: f64,
    pub store_recovered_records: u64,
    pub storm_phases_detected: u64,
    pub storm_evictions: u64,
    pub storm_respecs: u64,
    pub storm_swaps: u64,
    pub serve_admission_s: f64,
    pub serve_shed: u64,
    pub serve_deferred: u64,
    pub serve_degraded: u64,
    pub serve_pool_jobs: u64,
    pub serve_max_queue_depth: u64,
    pub serve_max_rounds_waited: u64,
    pub serve_evictions: u64,
    /// Traced wall time over the untraced passes' median.
    pub trace_overhead_ratio: f64,
    /// Traced wall time not covered by main-thread layer times.
    pub trace_unattributed_s: f64,
    /// Telemetry of the traced pass.
    pub tel: TelemetryTotals,
}

/// What the traced pass read from the program's telemetry.
#[derive(Debug, Default)]
pub struct TelemetryTotals {
    counters: HashMap<String, u64>,
    /// Host seconds per span name, all threads.
    span_s: HashMap<&'static str, f64>,
    span_count: HashMap<&'static str, u64>,
    /// Host seconds of every `vm.run` span, in start order.
    vm_runs_s: Vec<f64>,
    /// Outermost [`LEAVES`] host seconds on the main thread inside the
    /// measured window.
    pub main_leaf_s: f64,
}

/// Runs `ops`, the measured part of a traced pass, inside a marker span
/// of the benchmark's own. Returns their result, their host seconds, and
/// what `tel` recorded meanwhile.
pub fn traced_window<R>(tel: &Telemetry, ops: impl FnOnce() -> R) -> (R, f64, TelemetryTotals) {
    let marker = tel.span("perfbench.wall");
    let t = Instant::now();
    let result = ops();
    let wall_s = t.elapsed().as_secs_f64();
    drop(marker);
    let snap = tel.snapshot();
    let mark = snap
        .spans
        .iter()
        .find(|s| s.name == "perfbench.wall")
        .expect("marker span recorded");
    let totals = TelemetryTotals::read(&snap, (mark.start_ns, mark.end_ns), mark.tid);
    (result, wall_s, totals)
}

impl TelemetryTotals {
    /// Reads the snapshot. `window` is the `(start, end)` host-clock
    /// interval of the measured operations and `main_tid` the thread that
    /// drove them, both taken from the marker span.
    fn read(snap: &Snapshot, window: (u64, u64), main_tid: u32) -> TelemetryTotals {
        let mut t = TelemetryTotals {
            counters: snap.counters.iter().cloned().collect(),
            ..TelemetryTotals::default()
        };
        let by_id: HashMap<u64, usize> = snap
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let nested_in_leaf = |mut parent: Option<u64>| {
            while let Some(id) = parent {
                let Some(&i) = by_id.get(&id) else {
                    return false;
                };
                if LEAVES.contains(&snap.spans[i].name) {
                    return true;
                }
                parent = snap.spans[i].parent;
            }
            false
        };
        for s in &snap.spans {
            if s.start_ns < window.0 || s.end_ns > window.1 {
                continue;
            }
            let secs = s.host_ns() as f64 * 1e-9;
            *t.span_s.entry(s.name).or_default() += secs;
            *t.span_count.entry(s.name).or_default() += 1;
            if s.name == "vm.run" {
                t.vm_runs_s.push(secs);
            }
            if s.tid == main_tid && LEAVES.contains(&s.name) && !nested_in_leaf(s.parent) {
                t.main_leaf_s += secs;
            }
        }
        t
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn span_s(&self, name: &str) -> f64 {
        self.span_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn span_count(&self, name: &str) -> u64 {
        self.span_count.get(name).copied().unwrap_or(0)
    }

    /// `vm.run` host seconds split into `(other runs, profiling runs)`
    /// for operations that each execute `runs_per_op` runs, one after
    /// another on one thread, the first being the profiling run.
    pub fn vm_split_s(&self, runs_per_op: usize) -> (f64, f64) {
        let (mut plain, mut profiled) = (0.0, 0.0);
        for (i, s) in self.vm_runs_s.iter().enumerate() {
            if i % runs_per_op == 0 {
                profiled += s;
            } else {
                plain += s;
            }
        }
        (plain, profiled)
    }

    /// Host seconds in the CAD tool-flow stages plus PivPav C2V, on any
    /// thread: the work `SpecializeSession::execute` does.
    pub fn cad_busy_s(&self) -> f64 {
        CAD_STAGES.iter().map(|s| self.span_s(s)).sum::<f64>() + self.span_s("pivpav.c2v")
    }

    /// Tool-flow runs: every run opens exactly one `cad.syntax` span.
    pub fn cad_flow_runs(&self) -> u64 {
        self.span_count("cad.syntax")
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl Layers {
    /// The per-layer catalogue, in a fixed order.
    pub fn metrics(&self) -> Metrics {
        let t = &self.tel;
        let vm_s = self.vm_busy_s + self.vm_profile_busy_s;
        let mut m = Metrics::default();
        m.push("vm.busy_s", self.vm_busy_s, "s");
        m.push("vm.profile_busy_s", self.vm_profile_busy_s, "s");
        m.push("vm.guest_insts", self.vm_guest_insts as f64, "count");
        let mips = if vm_s > 0.0 {
            self.vm_guest_insts as f64 / vm_s / 1e6
        } else {
            0.0
        };
        m.push("vm.guest_mips", mips, "MIPS");
        m.push("ise.search_s", self.ise_search_s, "s");
        m.push("ise.selected", self.ise_selected as f64, "count");
        m.push(
            "ise.memo_hit_ratio",
            ratio(
                t.counter(names::SEARCH_MEMO_HITS),
                t.counter(names::SEARCH_MEMO_MISSES),
            ),
            "ratio",
        );
        m.push("core.dispatch_s", self.core_dispatch_s, "s");
        m.push("core.finalize_s", self.core_finalize_s, "s");
        m.push(
            "core.cache_hit_ratio",
            ratio(
                t.counter(names::BITSTREAM_CACHE_HITS),
                t.counter(names::BITSTREAM_CACHE_MISSES),
            ),
            "ratio",
        );
        m.push("core.failed", self.core_failed as f64, "count");
        m.push("core.retries", self.core_retries as f64, "count");
        m.push("cad.busy_s", self.cad_busy_s, "s");
        m.push("cad.jobs", self.cad_jobs as f64, "count");
        let ms_per_job = if self.cad_jobs > 0 {
            self.cad_busy_s * 1e3 / self.cad_jobs as f64
        } else {
            0.0
        };
        m.push("cad.ms_per_job", ms_per_job, "ms");
        m.push("cad.par_s", t.span_s("cad.par"), "s");
        m.push("cad.sim_tool_s", self.cad_sim_tool_s, "sim_s");
        m.push(
            "cad.overlay_installs",
            self.cad_overlay_installs as f64,
            "count",
        );
        m.push("cad.upgrades", self.cad_upgrades as f64, "count");
        m.push(
            "cad.upgrades_failed",
            t.counter(names::OVERLAY_UPGRADES_FAILED) as f64,
            "count",
        );
        m.push(
            "pivpav.netlist_hit_ratio",
            ratio(
                t.counter(names::NETLIST_CACHE_HITS),
                t.counter(names::NETLIST_CACHE_MISSES),
            ),
            "ratio",
        );
        m.push("pivpav.c2v_s", t.span_s("pivpav.c2v"), "s");
        m.push(
            "woolcano.installs",
            t.span_count("woolcano.install") as f64,
            "count",
        );
        m.push(
            "woolcano.icap_bytes",
            t.counter(names::ICAP_BYTES) as f64,
            "bytes",
        );
        m.push(
            "store.records_appended",
            t.counter(names::STORE_RECORDS_APPENDED) as f64,
            "count",
        );
        m.push(
            "store.bytes_written",
            self.store_bytes_written as f64,
            "bytes",
        );
        m.push("store.recover_s", self.store_recover_s, "s");
        m.push(
            "store.recovered_records",
            self.store_recovered_records as f64,
            "count",
        );
        m.push(
            "storm.phases_detected",
            self.storm_phases_detected as f64,
            "count",
        );
        m.push("storm.evictions", self.storm_evictions as f64, "count");
        m.push("storm.respecs", self.storm_respecs as f64, "count");
        m.push("storm.swaps", self.storm_swaps as f64, "count");
        m.push("serve.admission_s", self.serve_admission_s, "s");
        m.push("serve.shed", self.serve_shed as f64, "count");
        m.push("serve.deferred", self.serve_deferred as f64, "count");
        m.push("serve.degraded", self.serve_degraded as f64, "count");
        m.push("serve.pool_jobs", self.serve_pool_jobs as f64, "count");
        m.push(
            "serve.max_queue_depth",
            self.serve_max_queue_depth as f64,
            "count",
        );
        m.push(
            "serve.max_rounds_waited",
            self.serve_max_rounds_waited as f64,
            "count",
        );
        m.push("serve.evictions", self.serve_evictions as f64, "count");
        m.push("trace.overhead_ratio", self.trace_overhead_ratio, "ratio");
        m.push("trace.unattributed_s", self.trace_unattributed_s, "s");
        m
    }
}
