//! Algebraic simplification (instcombine).
//!
//! Pattern-based peephole rewrites, a small subset of LLVM's instcombine:
//!
//! * `x + 0`, `x - 0`, `x * 1`, `x / 1`, `x & -1`, `x | 0`, `x ^ 0`,
//!   `x << 0`, `x >> 0` → `x`
//! * `x * 0`, `x & 0` → `0`
//! * `x - x`, `x ^ x` → `0`
//! * `x & x`, `x | x` → `x`
//! * `x * 2^k` → `x << k` (strength reduction; integer multiply on the
//!   PPC405 costs 4 cycles vs 1 for a shift, and the same asymmetry holds
//!   in the PivPav hardware cost model)
//! * `select c, x, x` → `x`
//!
//! Float arithmetic is left untouched: `x + 0.0` is not an identity under
//! IEEE semantics (signed zeros), matching LLVM's default (non-fast-math)
//! behaviour.

use super::Pass;
use crate::function::{Function, InstId};
use crate::inst::{BinOp, Imm, Inst, InstKind, Operand};
use crate::verify::operand_ty;
use std::collections::HashMap;

/// The instcombine pass.
pub struct InstCombine;

fn const_val(op: Operand) -> Option<i64> {
    op.as_const().map(|imm| imm.as_i64())
}

fn same_value(a: Operand, b: Operand) -> bool {
    match (a, b) {
        (Operand::Inst(x), Operand::Inst(y)) => x == y,
        (Operand::Arg(x), Operand::Arg(y)) => x == y,
        (Operand::Const(x), Operand::Const(y)) => x.ty == y.ty && x.bits == y.bits,
        _ => false,
    }
}

/// Attempts to simplify one instruction; returns the replacement operand or
/// a rewritten instruction.
enum Rewrite {
    /// Replace all uses with this operand.
    Value(Operand),
    /// Replace the instruction body in place.
    Inst(InstKind),
    /// Nothing to do.
    None,
}

fn simplify(f: &Function, inst: &Inst) -> Rewrite {
    let ty = inst.ty;
    if let InstKind::Bin(op, a, b) = &inst.kind {
        let (a, b) = (*a, *b);
        if op.is_float() {
            return Rewrite::None;
        }
        let zero = Operand::Const(Imm::int(ty, 0));
        match op {
            BinOp::Add => {
                if const_val(b) == Some(0) {
                    return Rewrite::Value(a);
                }
                if const_val(a) == Some(0) {
                    return Rewrite::Value(b);
                }
            }
            BinOp::Sub => {
                if const_val(b) == Some(0) {
                    return Rewrite::Value(a);
                }
                if same_value(a, b) {
                    return Rewrite::Value(zero);
                }
            }
            BinOp::Mul => {
                if const_val(b) == Some(1) {
                    return Rewrite::Value(a);
                }
                if const_val(a) == Some(1) {
                    return Rewrite::Value(b);
                }
                if const_val(b) == Some(0) || const_val(a) == Some(0) {
                    return Rewrite::Value(zero);
                }
                // Strength reduction: x * 2^k -> x << k.
                if let Some(c) = const_val(b) {
                    if c > 1 && (c as u64).is_power_of_two() {
                        let k = (c as u64).trailing_zeros() as i64;
                        return Rewrite::Inst(InstKind::Bin(
                            BinOp::Shl,
                            a,
                            Operand::Const(Imm::int(ty, k)),
                        ));
                    }
                }
                if let Some(c) = const_val(a) {
                    if c > 1 && (c as u64).is_power_of_two() {
                        let k = (c as u64).trailing_zeros() as i64;
                        return Rewrite::Inst(InstKind::Bin(
                            BinOp::Shl,
                            b,
                            Operand::Const(Imm::int(ty, k)),
                        ));
                    }
                }
            }
            BinOp::SDiv | BinOp::UDiv if const_val(b) == Some(1) => {
                return Rewrite::Value(a);
            }
            BinOp::And => {
                if same_value(a, b) {
                    return Rewrite::Value(a);
                }
                if const_val(b) == Some(0) || const_val(a) == Some(0) {
                    return Rewrite::Value(zero);
                }
                if const_val(b) == Some(-1) {
                    return Rewrite::Value(a);
                }
                if const_val(a) == Some(-1) {
                    return Rewrite::Value(b);
                }
            }
            BinOp::Or => {
                if same_value(a, b) {
                    return Rewrite::Value(a);
                }
                if const_val(b) == Some(0) {
                    return Rewrite::Value(a);
                }
                if const_val(a) == Some(0) {
                    return Rewrite::Value(b);
                }
            }
            BinOp::Xor => {
                if same_value(a, b) {
                    return Rewrite::Value(zero);
                }
                if const_val(b) == Some(0) {
                    return Rewrite::Value(a);
                }
                if const_val(a) == Some(0) {
                    return Rewrite::Value(b);
                }
            }
            BinOp::Shl | BinOp::LShr | BinOp::AShr if const_val(b) == Some(0) => {
                return Rewrite::Value(a);
            }
            _ => {}
        }
        return Rewrite::None;
    }
    // The VM normalizes a select's arm to the select's type, so an arm of
    // another type is not the select's value.
    if let InstKind::Select(_, a, b) = &inst.kind {
        if same_value(*a, *b) && operand_ty(f, *a) == ty {
            return Rewrite::Value(*a);
        }
    }
    Rewrite::None
}

impl Pass for InstCombine {
    fn name(&self) -> &'static str {
        "instcombine"
    }

    fn run(&self, f: &mut Function) -> bool {
        let mut replace: HashMap<InstId, Operand> = HashMap::new();
        let mut rewrites: Vec<(InstId, InstKind)> = Vec::new();
        for bid in f.block_ids().collect::<Vec<_>>() {
            for &iid in &f.block(bid).insts {
                if replace.contains_key(&iid) {
                    continue;
                }
                match simplify(f, f.inst(iid)) {
                    Rewrite::Value(op) => {
                        replace.insert(iid, op);
                    }
                    Rewrite::Inst(kind) => rewrites.push((iid, kind)),
                    Rewrite::None => {}
                }
            }
        }
        let changed = !replace.is_empty() || !rewrites.is_empty();
        for (iid, kind) in rewrites {
            f.inst_mut(iid).kind = kind;
        }
        super::apply_replacements(f, &replace);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Operand as Op, Terminator};
    use crate::passes::dce::Dce;
    use crate::types::Type;

    fn run_to_fixpoint(f: &mut Function) {
        while InstCombine.run(f) {}
        Dce.run(f);
    }

    #[test]
    fn add_zero_identity() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::ci32(0));
        b.ret(x);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        assert_eq!(f.num_insts(), 0);
        assert!(matches!(
            f.blocks[0].term.as_ref().unwrap(),
            Terminator::Ret(Some(Op::Arg(0)))
        ));
    }

    #[test]
    fn xor_self_is_zero() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.xor(Op::Arg(0), Op::Arg(0));
        b.ret(x);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        match f.blocks[0].term.as_ref().unwrap() {
            Terminator::Ret(Some(Op::Const(imm))) => assert_eq!(imm.as_i64(), 0),
            other => panic!("expected ret 0, got {other:?}"),
        }
    }

    #[test]
    fn mul_pow2_becomes_shift() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::ci32(8));
        b.ret(x);
        let mut f = b.finish();
        InstCombine.run(&mut f);
        match &f.insts[0].kind {
            InstKind::Bin(BinOp::Shl, _, Op::Const(imm)) => assert_eq!(imm.as_i64(), 3),
            other => panic!("expected shl, got {other:?}"),
        }
    }

    #[test]
    fn mul_zero_collapses() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::ci32(0));
        b.ret(x);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn float_add_zero_not_touched() {
        let mut b = FunctionBuilder::new("f", vec![Type::F64], Type::F64);
        let x = b.fadd(Op::Arg(0), Op::cf64(0.0));
        b.ret(x);
        let mut f = b.finish();
        assert!(!InstCombine.run(&mut f));
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn and_all_ones_identity() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.and(Op::Arg(0), Op::ci32(-1));
        b.ret(x);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn select_same_arms() {
        let mut b = FunctionBuilder::new("f", vec![Type::I1, Type::I32], Type::I32);
        let s = b.select(Op::Arg(0), Op::Arg(1), Op::Arg(1));
        b.ret(s);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn sub_self_is_zero() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::ci32(5));
        let y = b.sub(x, x);
        b.ret(y);
        let mut f = b.finish();
        run_to_fixpoint(&mut f);
        match f.blocks[0].term.as_ref().unwrap() {
            Terminator::Ret(Some(Op::Const(imm))) => assert_eq!(imm.as_i64(), 0),
            other => panic!("expected ret 0, got {other:?}"),
        }
    }
}
