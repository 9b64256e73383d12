//! Property-based cross-crate equivalence tests:
//!
//! * the `-O3` pass pipeline preserves interpreter results on randomized
//!   programs;
//! * MAXMISO invariants hold on randomized data-flow graphs;
//! * freezing + patching a candidate preserves program results under the
//!   Woolcano custom-instruction handler;
//! * a frozen CI computes what the interpreter computes on random
//!   datapaths over every integer and float width, traps included.

use jitise::ir::passes::{optimize_function, OptLevel};
use jitise::ir::{
    BinOp, BlockId, CmpOp, Dfg, FuncId, FunctionBuilder, Imm, InstKind, Module, Operand as Op,
    Type, UnOp,
};
use jitise::ise::{maxmiso, ForbiddenPolicy};
use jitise::vm::{BlockKey, CostModel, CustomHandler, Interpreter, RunConfig, Value, VmTier};
use jitise::woolcano::freeze_and_patch;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A recipe for one random straight-line+loop integer program.
#[derive(Debug, Clone)]
struct ProgramRecipe {
    ops: Vec<(u8, i32)>,
    loop_iters: u8,
}

fn recipe_strategy() -> impl Strategy<Value = ProgramRecipe> {
    (prop::collection::vec((0u8..7, -50i32..50), 1..24), 1u8..12)
        .prop_map(|(ops, loop_iters)| ProgramRecipe { ops, loop_iters })
}

/// Builds a module from a recipe. The program folds a value through the
/// op sequence inside a counted loop, with a memory cell in the middle so
/// DCE/CSE have real work without removing everything.
fn build(recipe: &ProgramRecipe) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(17), cell);
    b.counted_loop(
        "i",
        Op::ci32(0),
        Op::ci32(recipe.loop_iters as i32),
        |b, i| {
            let mut v = b.load(Type::I32, cell);
            v = b.add(v, i);
            for &(op, k) in &recipe.ops {
                let kc = Op::ci32(k);
                v = match op {
                    0 => b.add(v, kc),
                    1 => b.sub(v, kc),
                    2 => b.mul(v, kc),
                    3 => b.xor(v, kc),
                    4 => b.and(v, Op::ci32(k | 0xff)),
                    5 => b.or(v, kc),
                    _ => {
                        let c = b.cmp(CmpOp::Slt, v, kc);
                        b.select(c, kc, v)
                    }
                };
                // Sprinkle folding material.
                v = b.add(v, Op::ci32(0));
            }
            b.store(v, cell);
        },
    );
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut m = Module::new("prop");
    m.add_func(b.finish());
    m
}

fn run_module(m: &Module, arg: i64) -> Option<Value> {
    let mut vm = Interpreter::new(m);
    vm.run("main", &[Value::I(arg)]).expect("program runs").ret
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn o3_preserves_program_results(recipe in recipe_strategy(), arg in -100i64..100) {
        let base = build(&recipe);
        let mut optimized = base.clone();
        jitise::ir::passes::optimize_module(&mut optimized, OptLevel::O3);
        jitise::ir::verify::verify_module(&optimized).expect("optimized module verifies");
        prop_assert_eq!(run_module(&base, arg), run_module(&optimized, arg));
        // O3 never grows the program.
        prop_assert!(optimized.num_insts() <= base.num_insts());
    }

    #[test]
    fn maxmiso_invariants_on_random_blocks(recipe in recipe_strategy()) {
        let m = build(&recipe);
        let f = m.func(FuncId(0));
        for bid in f.block_ids() {
            let dfg = Dfg::build(f, bid);
            let policy = ForbiddenPolicy::default();
            let result = maxmiso(f, &dfg, BlockKey::new(FuncId(0), bid), &policy, 1);
            let forbidden = policy.mask(&dfg);
            let mut covered = vec![0u32; dfg.len()];
            for cand in &result.candidates {
                prop_assert_eq!(cand.outputs, 1, "single output");
                prop_assert!(cand.is_convex(&dfg), "convex");
                for &n in &cand.nodes {
                    prop_assert!(!forbidden[n as usize], "no forbidden nodes");
                    covered[n as usize] += 1;
                }
            }
            for (i, &c) in covered.iter().enumerate() {
                prop_assert!(c <= 1, "node {} in {} MISOs", i, c);
                if !forbidden[i] {
                    prop_assert_eq!(c, 1, "valid node {} uncovered", i);
                }
            }
        }
    }

    #[test]
    fn patching_preserves_results(recipe in recipe_strategy(), arg in -100i64..100) {
        let base = build(&recipe);
        let mut patched = base.clone();
        // Find the largest candidate anywhere and patch it.
        let f0 = patched.func(FuncId(0)).clone();
        let mut best: Option<(BlockId, jitise::ise::Candidate)> = None;
        for bid in f0.block_ids() {
            let dfg = Dfg::build(&f0, bid);
            for c in maxmiso(
                &f0, &dfg, BlockKey::new(FuncId(0), bid), &ForbiddenPolicy::default(), 2,
            ).candidates {
                if c.outputs == 1
                    && best.as_ref().map(|(_, b)| c.len() > b.len()).unwrap_or(true)
                {
                    best = Some((bid, c));
                }
            }
        }
        prop_assume!(best.is_some());
        let (bid, cand) = best.unwrap();
        let dfg = Dfg::build(&f0, bid);
        let (sem, _) = freeze_and_patch(patched.func_mut(FuncId(0)), &dfg, &cand, 0)
            .expect("patch");
        jitise::ir::verify::verify_module(&patched).expect("patched verifies");

        struct H(jitise::woolcano::CiSemantics);
        impl CustomHandler for H {
            fn exec_custom(&self, _s: u32, args: &[Value]) -> jitise::base::Result<(Value, u64)> {
                Ok((self.0.eval(args)?, 1))
            }
        }
        let h = H(sem);
        let mut vm = Interpreter::new(&patched);
        vm.set_custom_handler(&h);
        let got = vm.run("main", &[Value::I(arg)]).expect("patched runs").ret;
        prop_assert_eq!(run_module(&base, arg), got);
    }

    #[test]
    fn optimizer_is_idempotent(recipe in recipe_strategy()) {
        let mut m = build(&recipe);
        jitise::ir::passes::optimize_module(&mut m, OptLevel::O3);
        let once = m.clone();
        let reports = jitise::ir::passes::optimize_module(&mut m, OptLevel::O3);
        // A second run must converge immediately (no oscillation).
        for r in &reports {
            prop_assert!(r.iterations <= 2, "second O3 run iterated {}", r.iterations);
        }
        prop_assert_eq!(m.num_insts(), once.num_insts());
    }
}

// ---------------------------------------------------------------------------
// Fast-tier differential suite: the pre-decoded dispatch tier must be
// bit-identical to the reference interpreter in results, cycles, steps,
// per-block profiles, and error strings — on success paths AND on traps
// (division by zero, fuel exhaustion, out-of-bounds memory).
// ---------------------------------------------------------------------------

/// A control-flow-heavy module exercising everything the fast tier decodes
/// specially: a cross-function call, a switch with duplicate case targets,
/// selects (including an f64 round-trip), loop phis, and memory traffic.
/// `oob` routes the switch default through an out-of-bounds load.
fn build_tiered(recipe: &ProgramRecipe, oob: bool) -> Module {
    let mut m = Module::new("tiered");

    let mut h = FunctionBuilder::new("helper", vec![Type::I64], Type::I64);
    let x = Op::Arg(0);
    let t = h.mul(x, Op::ci64(3));
    let t = h.add(t, Op::ci64(7));
    let t = h.xor(t, x);
    h.ret(t);
    let helper = m.add_func(h.finish());

    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let arg = Op::Arg(0);
    let cell = b.alloca(8);
    b.store(Op::ci64(17), cell);
    let c0 = b.new_block("case.call");
    let c1 = b.new_block("case.select");
    let cdiv = b.new_block("case.div");
    let cdef = b.new_block("default");
    let join = b.new_block("join");
    // Cases 1 and 2 share a target: the decoder must dedup the edge.
    b.switch(arg, vec![(0, c0), (1, c1), (2, c1), (3, cdiv)], cdef);

    b.switch_to(c0);
    let x0 = b.call(helper, vec![arg], Type::I64);
    b.br(join);

    b.switch_to(c1);
    let cnd = b.cmp(CmpOp::Slt, arg, Op::ci64(2));
    let s = b.select(cnd, Op::ci64(5), arg);
    let f = b.sitofp(arg, Type::F64);
    let g = b.fmul(f, Op::cf64(1.5));
    let xi = b.fptosi(g, Type::I64);
    let x1 = b.add(s, xi);
    b.br(join);

    b.switch_to(cdiv);
    // Traps with "division by zero" when the selector is exactly 3.
    let d = b.sub(arg, Op::ci64(3));
    let x2 = b.sdiv(Op::ci64(100), d);
    b.br(join);

    b.switch_to(cdef);
    let x3 = if oob {
        // 8 MiB past a 1 MiB stack: an out-of-bounds load.
        let wild = b.gep(cell, Op::ci64(1 << 20), 8);
        b.load(Type::I64, wild)
    } else {
        b.srem(arg, Op::ci64(7))
    };
    b.br(join);

    b.switch_to(join);
    let merged = b.phi(Type::I64);
    b.add_incoming(merged, c0, x0);
    b.add_incoming(merged, c1, x1);
    b.add_incoming(merged, cdiv, x2);
    b.add_incoming(merged, cdef, x3);
    let cell2 = b.alloca(4);
    b.store(Op::ci32(17), cell2);
    b.counted_loop(
        "i",
        Op::ci32(0),
        Op::ci32(recipe.loop_iters as i32),
        |b, i| {
            let mut v = b.load(Type::I32, cell2);
            v = b.add(v, i);
            for &(op, k) in &recipe.ops {
                let kc = Op::ci32(k);
                v = match op {
                    0 => b.add(v, kc),
                    1 => b.sub(v, kc),
                    2 => b.mul(v, kc),
                    3 => b.xor(v, kc),
                    4 => b.and(v, Op::ci32(k | 0xff)),
                    5 => b.or(v, kc),
                    _ => {
                        let c = b.cmp(CmpOp::Slt, v, kc);
                        b.select(c, kc, v)
                    }
                };
            }
            b.store(v, cell2);
        },
    );
    let folded = b.load(Type::I32, cell2);
    let folded = b.sext(folded, Type::I64);
    let out = b.add(folded, merged);
    b.ret(out);
    m.add_func(b.finish());
    m
}

/// Runs `main` on both tiers and asserts every observable agrees:
/// `Ok` outcomes compare `ret`/`cycles`/`steps`, `Err` outcomes compare
/// the exact error string, and per-block profiles must be equal either way.
fn assert_tiers_agree(m: &Module, args: &[Value], max_steps: u64) -> Result<(), TestCaseError> {
    let run = |tier: VmTier| {
        let cfg = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        let mut vm = Interpreter::with_config(m, CostModel::ppc405(), cfg);
        vm.set_tier(tier);
        let r = vm.run("main", args).map_err(|e| e.to_string());
        (r, vm.take_profile())
    };
    let (ri, pi) = run(VmTier::Interp);
    let (rf, pf) = run(VmTier::Fast);
    prop_assert_eq!(ri, rf, "outcome diverged between tiers");
    prop_assert_eq!(pi, pf, "profile diverged between tiers");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_tier_matches_interpreter(
        recipe in recipe_strategy(),
        sel in -4i64..8,
        fuel in any::<bool>(),
        oob in any::<bool>(),
    ) {
        let m = build_tiered(&recipe, oob);
        jitise::ir::verify::verify_module(&m).expect("tiered module verifies");
        // A tiny budget trips "step budget ... exhausted" mid-loop; the
        // trap point and the partial profile must agree across tiers.
        let max_steps = if fuel { 120 } else { RunConfig::default().max_steps };
        assert_tiers_agree(&m, &[Value::I(sel)], max_steps)?;

        // The optimized module reshapes blocks and phis; the tiers must
        // still agree on it.
        let mut o = m.clone();
        jitise::ir::passes::optimize_module(&mut o, OptLevel::O3);
        assert_tiers_agree(&o, &[Value::I(sel)], max_steps)?;
    }
}

#[test]
fn tier_trap_sanity() {
    // One deterministic instance per trap class, debuggable without
    // proptest shrinking.
    let recipe = ProgramRecipe {
        ops: vec![(0, 3), (2, 5)],
        loop_iters: 5,
    };
    let full = RunConfig::default().max_steps;
    let m = build_tiered(&recipe, false);
    for sel in [-4, 0, 1, 2, 5] {
        assert_tiers_agree(&m, &[Value::I(sel)], full).unwrap();
    }
    // Division by zero (selector 3), fuel exhaustion, out-of-bounds load.
    assert_tiers_agree(&m, &[Value::I(3)], full).unwrap();
    assert_tiers_agree(&m, &[Value::I(0)], 40).unwrap();
    let moob = build_tiered(&recipe, true);
    assert_tiers_agree(&moob, &[Value::I(6)], full).unwrap();
}

#[test]
fn sanity_fixed_program() {
    // One deterministic instance to keep failures debuggable without
    // proptest shrinking.
    let recipe = ProgramRecipe {
        ops: vec![(0, 3), (2, 5), (3, 9), (6, 20)],
        loop_iters: 7,
    };
    let base = build(&recipe);
    let mut optimized = base.clone();
    let f = optimized.func_mut(FuncId(0));
    optimize_function(f, OptLevel::O3);
    assert_eq!(run_module(&base, 5), run_module(&optimized, 5));
    // Quieten the unused-import lint for BinOp, used only in debug paths.
    let _ = BinOp::Add;
}

// ---------------------------------------------------------------------------
// Custom-instruction differential suite: a frozen CI must compute what the
// reference interpreter computes for the instructions it replaces, on
// random single-block datapaths over every integer and float width —
// including traps (division by zero, non-finite float-to-int), constants,
// and selects whose arms are wider than their result.
// ---------------------------------------------------------------------------

/// The value types a random datapath draws from; `main` takes one
/// parameter of each.
const CI_TYPES: [Type; 6] = [
    Type::I8,
    Type::I16,
    Type::I32,
    Type::I64,
    Type::F32,
    Type::F64,
];

/// Type picks, weighted towards the types the paper apps' CIs compute in
/// (I32 and F64, which the lowering gives their own opcodes); picks past
/// the end reuse the previous step's value type.
const CI_TYPE_PICKS: [Type; 9] = [
    Type::I8,
    Type::I16,
    Type::I32,
    Type::I32,
    Type::I32,
    Type::I64,
    Type::F32,
    Type::F64,
    Type::F64,
];

/// One datapath step: `(kind, type pick, op pick, operand picks, seed)`.
/// Kinds: 0 binary, 1 unary/cast, 2 compare, 3 select; type picks index
/// [`CI_TYPE_PICKS`].
type CiStep = (u8, u8, u8, (u16, u16, u16), u64);

fn ci_steps() -> impl Strategy<Value = (Vec<CiStep>, Vec<u64>)> {
    let step = (
        0u8..4,
        0u8..18,
        any::<u8>(),
        (any::<u16>(), any::<u16>(), any::<u16>()),
        any::<u64>(),
    );
    (
        prop::collection::vec(step, 2..16),
        prop::collection::vec(any::<u64>(), 6..7),
    )
}

/// A value of `ty` from a seed, biased towards the edge cases: zero, ±1,
/// extremes, and for floats NaN, infinities and -0.
fn ci_imm(ty: Type, seed: u64) -> Imm {
    let pick = seed % 8;
    let raw = (seed >> 3) as i64;
    if ty.is_float() {
        let v = match pick {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -1.5,
            5 => -0.0,
            _ => (raw % 2_000_000) as f64 / 7.0,
        };
        if ty == Type::F32 {
            Imm::f32(v as f32)
        } else {
            Imm::f64(v)
        }
    } else {
        let bits = ty.bits();
        let v = match pick {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => ty.sext(1u64 << (bits - 1)),
            4 => ty.sext((1u64 << (bits - 1)) - 1),
            _ => raw,
        };
        Imm::int(ty, v)
    }
}

/// Every well-typed `(op, source, result)` cast over [`CI_TYPES`].
fn ci_casts() -> Vec<(UnOp, Type, Type)> {
    let mut casts = Vec::new();
    for &s in &CI_TYPES {
        for &d in &CI_TYPES {
            let op = match (s.is_float(), d.is_float()) {
                (false, false) if s == d => vec![UnOp::Neg, UnOp::Not],
                (false, false) if s.bits() > d.bits() => vec![UnOp::Trunc],
                (false, false) => vec![UnOp::SExt, UnOp::ZExt],
                (true, false) => vec![UnOp::FpToSi],
                (false, true) => vec![UnOp::SiToFp],
                (true, true) if s == d => vec![UnOp::FNeg],
                (true, true) if s == Type::F32 => vec![UnOp::FpExt],
                (true, true) => vec![UnOp::FpTrunc],
            };
            casts.extend(op.into_iter().map(|op| (op, s, d)));
        }
    }
    casts
}

/// Builds `main` from the steps; it returns the last step's value.
fn build_ci_datapath(steps: &[CiStep]) -> Module {
    const INT_OPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::UDiv,
        BinOp::SRem,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
    ];
    const FLOAT_OPS: [BinOp; 4] = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv];
    const INT_CMPS: [CmpOp; 10] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Slt,
        CmpOp::Sle,
        CmpOp::Sgt,
        CmpOp::Sge,
        CmpOp::Ult,
        CmpOp::Ule,
        CmpOp::Ugt,
        CmpOp::Uge,
    ];
    const FLOAT_CMPS: [CmpOp; 6] = [
        CmpOp::FOeq,
        CmpOp::FOne,
        CmpOp::FOlt,
        CmpOp::FOle,
        CmpOp::FOgt,
        CmpOp::FOge,
    ];
    let casts = ci_casts();
    let mut b = FunctionBuilder::new("main", CI_TYPES.to_vec(), Type::Void);
    // Live values per type; index 6 holds the i1 compare results.
    let mut pools: Vec<Vec<Op>> = (0..CI_TYPES.len() as u32)
        .map(|i| vec![Op::Arg(i)])
        .collect();
    pools.push(Vec::new());
    let slot = |ty: Type| match ty {
        Type::I1 => 6,
        ty => CI_TYPES
            .iter()
            .position(|&t| t == ty)
            .expect("datapath type"),
    };
    // A pool value other than `avoid`, mostly one of the newest two so
    // the steps chain into one CI; or (one pick in four, or nothing to
    // pick) a constant.
    let pick = |pools: &[Vec<Op>], ty: Type, sel: u16, seed: u64, avoid: Option<Op>| -> Op {
        let live: Vec<Op> = pools[slot(ty)]
            .iter()
            .rev()
            .copied()
            .filter(|&v| Some(v) != avoid)
            .collect();
        if sel.is_multiple_of(4) || live.is_empty() {
            let seed = seed.rotate_left(u32::from(sel % 64)) ^ u64::from(sel);
            if ty == Type::I1 {
                Op::Const(Imm::bool(seed & 1 == 1))
            } else {
                Op::Const(ci_imm(ty, seed))
            }
        } else {
            live[usize::from(sel / 4) % live.len().min(2)]
        }
    };
    let mut last = (Op::Arg(0), CI_TYPES[0]);
    let mut last_value_ty = CI_TYPES[0];
    for &(kind, t, op, (s1, s2, s3), seed) in steps {
        // Half the steps continue at the previous value type, and most
        // compares feed a select next.
        let ty = CI_TYPE_PICKS
            .get(usize::from(t))
            .copied()
            .unwrap_or(last_value_ty);
        let kind = if last.1 == Type::I1 && op % 4 != 0 {
            3
        } else {
            kind
        };
        last = match kind {
            0 => {
                let bin = if ty.is_float() {
                    FLOAT_OPS[usize::from(op) % FLOAT_OPS.len()]
                } else {
                    INT_OPS[usize::from(op) % INT_OPS.len()]
                };
                let x = pick(&pools, ty, s1, seed, None);
                let y = pick(&pools, ty, s2, !seed, Some(x));
                (b.bin(bin, x, y), ty)
            }
            1 => {
                let from_ty: Vec<_> = casts.iter().filter(|c| c.1 == ty).collect();
                let &(un, src, dst) = from_ty[usize::from(op) % from_ty.len()];
                (b.un(un, pick(&pools, src, s1, seed, None), dst), dst)
            }
            2 => {
                let cmp = if ty.is_float() {
                    FLOAT_CMPS[usize::from(op) % FLOAT_CMPS.len()]
                } else {
                    INT_CMPS[usize::from(op) % INT_CMPS.len()]
                };
                let x = pick(&pools, ty, s1, seed, None);
                let y = pick(&pools, ty, s2, !seed, Some(x));
                (b.cmp(cmp, x, y), Type::I1)
            }
            _ => {
                // Arms one width wider than the result, now and then: the
                // select must normalize what it picks.
                let arm_ty = match ty {
                    Type::F32 if op % 2 == 1 => Type::F64,
                    Type::I32 if op % 2 == 1 => Type::I64,
                    ty => ty,
                };
                let c = pick(&pools, Type::I1, s1 | 1, seed, None);
                let x = pick(&pools, arm_ty, s2, seed ^ 0x5a5a, None);
                let y = pick(&pools, arm_ty, s3, seed ^ 0xa5a5, Some(x));
                let v = Op::Inst(b.push(InstKind::Select(c, x, y), ty));
                (v, ty)
            }
        };
        if last.1 != Type::I1 {
            last_value_ty = last.1;
        }
        pools[slot(last.1)].push(last.0);
    }
    b.ret(last.0);
    let mut f = b.finish();
    f.ret = last.1;
    let mut m = Module::new("ci");
    m.add_func(f);
    m
}

/// A run's answer with floats compared bit for bit (NaN included).
fn answer_bits(out: &jitise::base::Result<jitise::vm::ExecOutcome>) -> Option<Option<(bool, u64)>> {
    out.as_ref().ok().map(|o| {
        o.ret.map(|v| match v {
            Value::I(i) => (false, i as u64),
            Value::F(f) => (true, f.to_bits()),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn custom_instructions_match_interpreter((steps, seeds) in ci_steps()) {
        let base = build_ci_datapath(&steps);
        let args: Vec<Value> = CI_TYPES
            .iter()
            .zip(&seeds)
            .map(|(&ty, &seed)| Value::from_imm(ci_imm(ty, seed)))
            .collect();

        // The CI: the largest MAXMISO candidate. `main` returns its
        // output, so every wrong bit of the CI shows in the answer.
        let mut base = base;
        let candidates = |m: &Module| {
            let f = m.func(FuncId(0));
            let dfg = Dfg::build(f, BlockId(0));
            let cands = maxmiso(
                f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), &ForbiddenPolicy::default(), 2,
            )
            .candidates;
            (dfg, cands)
        };
        let (dfg, cands) = candidates(&base);
        let largest = cands.into_iter().filter(|c| c.outputs == 1).max_by_key(|c| c.len());
        prop_assume!(largest.is_some());
        let largest = largest.unwrap();
        let f0 = base.func(FuncId(0));
        let sem = jitise::woolcano::CiSemantics::freeze(f0, &dfg, &largest).expect("freeze");
        let root = largest.insts[sem.output_op as usize];
        let f0 = base.func_mut(FuncId(0));
        f0.ret = f0.inst(root).ty;
        f0.block_mut(BlockId(0)).term = Some(jitise::ir::Terminator::Ret(Some(Op::Inst(root))));
        let (dfg, cands) = candidates(&base);
        let cand = cands.into_iter().find(|c| c.insts.contains(&root)).expect("root's MISO");
        prop_assert_eq!(cand.len(), largest.len());
        let mut patched = base.clone();
        let (sem, _) = freeze_and_patch(patched.func_mut(FuncId(0)), &dfg, &cand, 0)
            .expect("patch");

        struct H(jitise::woolcano::CiSemantics);
        impl CustomHandler for H {
            fn exec_custom(&self, _s: u32, args: &[Value]) -> jitise::base::Result<(Value, u64)> {
                Ok((self.0.eval(args)?, 1))
            }
        }
        let h = H(sem);
        let want = Interpreter::new(&base).run("main", &args);
        let mut vm = Interpreter::new(&patched);
        vm.set_custom_handler(&h);
        let got = vm.run("main", &args);
        prop_assert_eq!(
            answer_bits(&want),
            answer_bits(&got),
            "interpreter {:?} vs CI {:?}",
            want,
            got
        );
    }
}
