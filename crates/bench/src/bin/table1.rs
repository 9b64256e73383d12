//! Reproduces **Table I**: source/compilation characteristics, execution
//! runtimes, the maximum ASIP ratio, code coverage, and kernel size for all
//! 14 applications, with the paper's AVG-S / AVG-E / RATIO aggregate rows.
//!
//! Usage: `cargo run --release -p jitise-bench --bin table1 [--vm-tier interp|fast]`
//!
//! The applications are profiled on the production VM tier, the
//! pre-decoded fast tier; `--vm-tier interp` profiles them on the
//! reference interpreter instead. The table is bit-identical either way
//! (the tiers agree on every observable — DESIGN.md §15); the flag exists
//! to demonstrate exactly that.

use jitise_apps::Domain;
use jitise_base::table::{fnum, fpct, TextTable};
use jitise_bench::{evaluate_domain, mean_of, ratio_row};
use jitise_core::{AppEvaluation, EvalContext};
use jitise_vm::VmTier;

struct Row {
    name: String,
    files: f64,
    loc: f64,
    compile_s: f64,
    blk: f64,
    ins: f64,
    vm_s: f64,
    native_s: f64,
    ratio: f64,
    asip: f64,
    live: f64,
    dead: f64,
    const_: f64,
    ksize: f64,
    kfreq: f64,
}

fn row_of(name: &str, ev: &AppEvaluation) -> Row {
    let paper = jitise_apps::paper_profile(name).unwrap();
    Row {
        name: name.to_string(),
        files: paper.files as f64, // source metadata: not synthesized
        loc: paper.loc as f64,
        compile_s: ev.compile_time.as_secs_f64(),
        blk: ev.blocks as f64,
        ins: ev.insts as f64,
        vm_s: ev.exec.vm.as_secs_f64(),
        native_s: ev.exec.native.as_secs_f64(),
        ratio: ev.exec.ratio,
        asip: ev.asip_ratio_max,
        live: ev.coverage.live_frac,
        dead: ev.coverage.dead_frac,
        const_: ev.coverage.const_frac,
        ksize: ev.kernel.size_frac,
        kfreq: ev.kernel.time_frac,
    }
}

fn avg_row(label: &str, rows: &[Row]) -> Row {
    Row {
        name: label.to_string(),
        files: mean_of(rows, |r| r.files),
        loc: mean_of(rows, |r| r.loc),
        compile_s: mean_of(rows, |r| r.compile_s),
        blk: mean_of(rows, |r| r.blk),
        ins: mean_of(rows, |r| r.ins),
        vm_s: mean_of(rows, |r| r.vm_s),
        native_s: mean_of(rows, |r| r.native_s),
        ratio: mean_of(rows, |r| r.ratio),
        asip: mean_of(rows, |r| r.asip),
        live: mean_of(rows, |r| r.live),
        dead: mean_of(rows, |r| r.dead),
        const_: mean_of(rows, |r| r.const_),
        ksize: mean_of(rows, |r| r.ksize),
        kfreq: mean_of(rows, |r| r.kfreq),
    }
}

fn push(t: &mut TextTable, r: &Row) {
    t.row(vec![
        r.name.clone(),
        fnum(r.files, 0),
        fnum(r.loc, 0),
        fnum(r.compile_s, 2),
        fnum(r.blk, 0),
        fnum(r.ins, 0),
        fnum(r.vm_s, 2),
        fnum(r.native_s, 2),
        fnum(r.ratio, 2),
        fnum(r.asip, 2),
        fpct(r.live),
        fpct(r.dead),
        fpct(r.const_),
        fpct(r.ksize),
        fpct(r.kfreq),
    ]);
}

fn parse_tier() -> VmTier {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut tier = VmTier::default();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vm-tier" => {
                let name = it.next().map(String::as_str);
                match name.and_then(VmTier::parse) {
                    Some(t) => tier = t,
                    None => {
                        eprintln!("table1: --vm-tier expects `interp` or `fast`, got {name:?}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("table1: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    tier
}

fn main() {
    println!("=== Table I: experimental data for scientific and embedded applications ===\n");
    let mut ctx = EvalContext::new();
    ctx.vm_tier = parse_tier();
    let sci = evaluate_domain(&ctx, Some(Domain::Scientific));
    let emb = evaluate_domain(&ctx, Some(Domain::Embedded));

    let sci_rows: Vec<Row> = sci.iter().map(|(a, e)| row_of(a.name, e)).collect();
    let emb_rows: Vec<Row> = emb.iter().map(|(a, e)| row_of(a.name, e)).collect();
    let avg_s = avg_row("AVG-S", &sci_rows);
    let avg_e = avg_row("AVG-E", &emb_rows);

    let mut t = TextTable::new(vec![
        "App",
        "files",
        "LOC",
        "real[s]",
        "blk",
        "ins",
        "VM[s]",
        "Native[s]",
        "Ratio",
        "ASIP",
        "live%",
        "dead%",
        "const%",
        "size%",
        "freq%",
    ]);
    for r in &sci_rows {
        push(&mut t, r);
    }
    t.rule();
    push(&mut t, &avg_s);
    t.rule();
    for r in &emb_rows {
        push(&mut t, r);
    }
    t.rule();
    push(&mut t, &avg_e);
    t.rule();
    let ratio = Row {
        name: "RATIO".into(),
        files: ratio_row(avg_s.files, avg_e.files),
        loc: ratio_row(avg_s.loc, avg_e.loc),
        compile_s: ratio_row(avg_s.compile_s, avg_e.compile_s),
        blk: ratio_row(avg_s.blk, avg_e.blk),
        ins: ratio_row(avg_s.ins, avg_e.ins),
        vm_s: ratio_row(avg_s.vm_s, avg_e.vm_s),
        native_s: ratio_row(avg_s.native_s, avg_e.native_s),
        ratio: ratio_row(avg_s.ratio, avg_e.ratio),
        asip: ratio_row(avg_s.asip, avg_e.asip),
        live: ratio_row(avg_s.live, avg_e.live),
        dead: ratio_row(avg_s.dead, avg_e.dead),
        const_: ratio_row(avg_s.const_, avg_e.const_),
        ksize: ratio_row(avg_s.ksize, avg_e.ksize),
        kfreq: ratio_row(avg_s.kfreq, avg_e.kfreq),
    };
    push(&mut t, &ratio);
    println!("{}", t.render());

    // Paper comparison for the headline aggregates.
    println!("\n--- paper vs measured (aggregates) ---");
    let paper_avg = |d: Domain, f: &dyn Fn(&jitise_apps::AppProfile) -> f64| {
        let xs: Vec<f64> = jitise_apps::PAPER_APPS
            .iter()
            .filter(|p| p.domain == d)
            .map(f)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let cmp = [
        (
            "max ASIP ratio AVG-S",
            paper_avg(Domain::Scientific, &|p| p.asip_ratio_max),
            avg_s.asip,
        ),
        (
            "max ASIP ratio AVG-E",
            paper_avg(Domain::Embedded, &|p| p.asip_ratio_max),
            avg_e.asip,
        ),
        (
            "kernel size% AVG-S",
            paper_avg(Domain::Scientific, &|p| p.kernel_size) * 100.0,
            avg_s.ksize * 100.0,
        ),
        (
            "kernel size% AVG-E",
            paper_avg(Domain::Embedded, &|p| p.kernel_size) * 100.0,
            avg_e.ksize * 100.0,
        ),
        (
            "kernel freq% AVG-S",
            paper_avg(Domain::Scientific, &|p| p.kernel_freq) * 100.0,
            avg_s.kfreq * 100.0,
        ),
        (
            "VM ratio AVG-S",
            paper_avg(Domain::Scientific, &|p| p.vm_ratio),
            avg_s.ratio,
        ),
        (
            "VM ratio AVG-E",
            paper_avg(Domain::Embedded, &|p| p.vm_ratio),
            avg_e.ratio,
        ),
    ];
    let mut pt = TextTable::new(vec!["quantity", "paper", "measured"]);
    for (name, p, m) in cmp {
        pt.row(vec![name.to_string(), fnum(p, 2), fnum(m, 2)]);
    }
    println!("{}", pt.render());
    println!(
        "\nshape check: embedded ASIP headroom exceeds scientific by {:.1}x (paper: {:.1}x)",
        avg_e.asip / avg_s.asip,
        7.21 / 1.71
    );
}
