//! Custom-instruction replay: the host cost of executing loaded CIs.
//!
//! For each of the 14 paper applications (dataset 0) this specializes the
//! app once and then times, best of 11 on the fast VM tier:
//!
//! * `sw_ms` — one run of the unmodified binary;
//! * `adapted_ms` — one run of the specialized binary on the loaded
//!   machine;
//! * `replay_ms` — the CI calls of one adapted run (slot and arguments,
//!   recorded once), replayed through the machine's binding with no VM
//!   around them; `ns/call` divides it by the call count.
//!
//! Run with: `cargo run --release --example ci_replay`

use jitise::apps::App;
use jitise::core::{specialize, EvalContext, SpecializeConfig};
use jitise::vm::{CostModel, CustomHandler, Interpreter, PredecodedModule, Value};
use jitise::woolcano::Woolcano;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 11;

/// Forwards to the machine's binding and records each call.
struct Recorder<'a, H: CustomHandler> {
    inner: &'a H,
    calls: RefCell<Vec<(u32, Vec<Value>)>>,
}

impl<H: CustomHandler> CustomHandler for Recorder<'_, H> {
    fn exec_custom(&self, slot: u32, args: &[Value]) -> jitise::base::Result<(Value, u64)> {
        self.calls.borrow_mut().push((slot, args.to_vec()));
        self.inner.exec_custom(slot, args)
    }
}

/// Best-of-`REPS` wall time of `f`, in seconds.
fn best(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let ctx = EvalContext::new();
    let cost = CostModel::ppc405();
    let mut totals = [0f64; 3];
    let mut total_calls = 0usize;
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "app", "sw_ms", "adapted_ms", "calls", "replay_ms", "ns/call"
    );
    for app in App::all() {
        let args = &app.datasets[0].args;
        let base_pd = Arc::new(PredecodedModule::build(&app.module, &cost));
        let run_base = || {
            let mut vm = Interpreter::new(&app.module);
            vm.set_predecoded(Arc::clone(&base_pd));
            vm.run(app.entry, args).expect("software run");
            vm
        };
        let profile = run_base().take_profile();
        let sw = best(|| {
            black_box(run_base());
        });

        let machine = Woolcano::new(512);
        let mut m = app.module.clone();
        specialize(
            &mut m,
            &profile,
            &machine,
            &ctx.estimator,
            &ctx.db,
            &ctx.netlists,
            &ctx.bitstreams,
            &SpecializeConfig::default(),
        )
        .expect("specialization");
        let spec_pd = Arc::new(PredecodedModule::build(&m, &cost));
        let adapted = best(|| {
            let binding = machine.bind();
            let mut vm = Interpreter::new(&m);
            vm.set_predecoded(Arc::clone(&spec_pd));
            vm.set_custom_handler(&binding);
            black_box(vm.run(app.entry, args).expect("adapted run"));
        });

        let binding = machine.bind();
        let recorder = Recorder {
            inner: &binding,
            calls: RefCell::new(Vec::new()),
        };
        let mut vm = Interpreter::new(&m);
        vm.set_predecoded(Arc::clone(&spec_pd));
        vm.set_custom_handler(&recorder);
        vm.run(app.entry, args).expect("recorded run");
        let calls = recorder.calls.into_inner();
        let replay = best(|| {
            for (slot, args) in &calls {
                black_box(binding.exec_custom(*slot, black_box(args)).expect("replay"));
            }
        });

        println!(
            "{:<12} {:>8.2} {:>10.2} {:>10} {:>10.2} {:>9.1}",
            app.name,
            sw * 1e3,
            adapted * 1e3,
            calls.len(),
            replay * 1e3,
            replay * 1e9 / calls.len().max(1) as f64
        );
        for (t, x) in totals.iter_mut().zip([sw, adapted, replay]) {
            *t += x;
        }
        total_calls += calls.len();
    }
    println!(
        "{:<12} {:>8.2} {:>10.2} {:>10} {:>10.2} {:>9.1}",
        "total",
        totals[0] * 1e3,
        totals[1] * 1e3,
        total_calls,
        totals[2] * 1e3,
        totals[2] * 1e9 / total_calls.max(1) as f64
    );
}
