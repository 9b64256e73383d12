//! The jitise repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-adaptive|serve-fleet|phase-storm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public entry points (`run_adaptive_with`,
//! `run_serve`, `run_storm`) from this one process. A run:
//!
//! 1. builds the seeded inputs and computes every operation's expected
//!    answers with the reference interpreter, outside any timed region;
//! 2. repeats *passes* for about `--seconds`: each pass sets up fresh
//!    state (evaluation context, caches, quarantine, store directories),
//!    times the set-up and the operations separately, and checks every
//!    answer. Every exact metric and fingerprint must be bit-identical
//!    across the passes of one run;
//! 3. with `--trace 1`, runs one more, traced pass that yields the
//!    per-layer metrics. It is never the measured pass, and it must
//!    reproduce the untraced passes' fingerprints.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! workload's size and thread use. Host times are medians over passes;
//! `sim_*` metrics use the modeled clock and repeat bit for bit. The exit
//! code is non-zero when any answer is wrong or any exact metric differs
//! between passes.

mod adaptive;
mod fleet;
mod layers;
mod report;
mod storm;

use report::{median, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The outcome of one pass over a workload's operations.
pub struct Pass {
    /// Host seconds spent building the pass's fresh state.
    pub setup_s: f64,
    /// Host seconds of each operation, in order.
    pub op_s: Vec<f64>,
    /// One deterministic digest per operation (`err:` or `panic:` on
    /// failure). Compared across passes.
    pub fingerprints: Vec<String>,
    /// Operations that returned `Err`, panicked, or answered wrongly.
    pub failed: u64,
    /// The exact end-to-end metrics (`sim_*`, `served_share`).
    pub exact: Metrics,
}

impl Pass {
    /// Host seconds of the whole pass's operations.
    pub fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }
}

/// A traced pass: the pass itself plus the per-layer metrics.
pub struct Traced {
    pub pass: Pass,
    pub layers: Metrics,
}

/// One benchmark workload. Constructing it builds the inputs and the
/// reference answers; the passes then only measure.
pub trait Workload {
    /// Operations per pass (sessions or tenants).
    fn ops(&self) -> u64;
    /// What one operation is, and the workload's size, for the record.
    fn size(&self) -> String;
    /// Busy threads the workload uses at most.
    fn threads(&self) -> usize;
    /// Builds one pass's fresh state, as [`Workload::pass`] does, drops
    /// it, and returns the host seconds the build took.
    fn setup_s(&self, scratch: &Path) -> f64;
    /// One untraced pass. `scratch` is an empty directory for stores.
    fn pass(&self, scratch: &Path) -> Pass;
    /// One traced pass; `untraced_wall_s` is the measured passes' wall.
    fn traced(&self, scratch: &Path, untraced_wall_s: f64) -> Traced;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2011u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-adaptive" => Box::new(adaptive::PaperAdaptive::new()),
        "serve-fleet" => Box::new(fleet::ServeFleet::new(seed)),
        "phase-storm" => Box::new(storm::PhaseStorm::new(seed)),
        _ => return None,
    })
}

/// Host seconds `build` takes, excluding dropping what it built.
pub fn time_setup<T>(build: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let state = build();
    let secs = t.elapsed().as_secs_f64();
    drop(state);
    secs
}

/// Extra set-up samples taken before the first pass and after each pass,
/// on top of each pass's own. Spreading them over the run keeps one slow
/// stretch of the host from setting the median.
const SETUP_SAMPLES: usize = 3;

/// Removes the run's store directories on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (paper-adaptive, serve-fleet, phase-storm)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let scratch =
        ScratchDir(PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id())));
    let fresh_dir = |name: String| {
        let dir = scratch.0.join(name);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    };
    let pass_dir = |i: usize| fresh_dir(format!("pass{i}"));
    let mut setups: Vec<f64> = Vec::new();
    let sample_setup = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_SAMPLES {
            let dir = fresh_dir(format!("setup{}", setups.len()));
            setups.push(workload.setup_s(&dir));
        }
    };

    // Measured passes: at least two (the bit-identity check needs a
    // pair), then more until the time budget is spent.
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    sample_setup(&mut setups);
    while passes.len() < 2 || started.elapsed() < budget {
        passes.push(workload.pass(&pass_dir(passes.len())));
        sample_setup(&mut setups);
    }
    let peak_rss_mb = report::peak_rss_mb();
    // One pass's wall time: each operation's median over the passes,
    // summed. Host speed drifts over seconds on a shared machine; the
    // per-operation medians keep a slow stretch from moving the result.
    let wall_s: f64 = (0..passes[0].op_s.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.op_s.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    setups.extend(passes.iter().map(|p| p.setup_s));
    let setup_s = median(&setups);

    let mut problems: Vec<String> = Vec::new();
    let reference = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        problems.extend(report::compare(reference, p, &format!("pass {i}")));
    }
    let traced = args.trace.then(|| {
        let t = workload.traced(&pass_dir(passes.len()), wall_s);
        problems.extend(report::compare(reference, &t.pass, "traced pass"));
        t
    });

    let failed: u64 =
        passes.iter().map(|p| p.failed).sum::<u64>() + traced.as_ref().map_or(0, |t| t.pass.failed);
    let attempted = workload.ops() * (passes.len() as u64 + u64::from(traced.is_some()));
    let metrics = match &traced {
        Some(t) => t.layers.clone(),
        None => {
            let mut m = Metrics::default();
            m.push("setup_s", setup_s, "s");
            m.push("wall_s", wall_s, "s");
            m.push("peak_rss_mb", peak_rss_mb, "MB");
            m.extend(&reference.exact);
            m
        }
    };
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} operations failed");
    }
    let correct = failed == 0 && problems.is_empty() && metrics.all_finite();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"threads\": {}, {}, \
         \"ops_per_pass\": {}, \"passes\": {}, \"pass_wall_s\": {:?}, \"traced\": {}}}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload.threads(),
        workload.size(),
        workload.ops(),
        passes.len(),
        passes.iter().map(Pass::wall_s).collect::<Vec<_>>(),
        traced.is_some(),
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
