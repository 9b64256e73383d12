//! Constant folding.
//!
//! Evaluates instructions whose operands are all constants and replaces
//! their uses with the computed immediate. Folding semantics match the VM's
//! interpreter semantics exactly (wrap-around integer arithmetic at the
//! result width, IEEE float arithmetic); the equivalence proptest relies on
//! this.

use super::Pass;
use crate::function::Function;
use crate::inst::{BinOp, CmpOp, Imm, InstKind, Operand, UnOp};
use crate::types::Type;
use crate::verify::operand_ty;
use std::collections::HashMap;

/// The constant-folding pass.
pub struct ConstFold;

/// Folds an integer binary op at a given width. Returns `None` for division
/// by zero (left to trap at runtime, like LLVM's undef semantics would not
/// allow folding).
#[inline]
pub fn fold_int_bin(op: BinOp, ty: Type, a: i64, b: i64) -> Option<i64> {
    let wrap = |v: i64| ty.sext(ty.trunc(v));
    let ub = ty.trunc(b);
    let ua = ty.trunc(a);
    let shift_mask = ty.bits().max(1) - 1;
    Some(match op {
        BinOp::Add => wrap(a.wrapping_add(b)),
        BinOp::Sub => wrap(a.wrapping_sub(b)),
        BinOp::Mul => wrap(a.wrapping_mul(b)),
        BinOp::SDiv => {
            if b == 0 {
                return None;
            }
            wrap(a.wrapping_div(b))
        }
        BinOp::UDiv => {
            if ub == 0 {
                return None;
            }
            wrap((ua / ub) as i64)
        }
        BinOp::SRem => {
            if b == 0 {
                return None;
            }
            wrap(a.wrapping_rem(b))
        }
        BinOp::URem => {
            if ub == 0 {
                return None;
            }
            wrap((ua % ub) as i64)
        }
        BinOp::And => wrap(a & b),
        BinOp::Or => wrap(a | b),
        BinOp::Xor => wrap(a ^ b),
        BinOp::Shl => wrap(a.wrapping_shl(b as u32 & shift_mask)),
        BinOp::LShr => wrap((ua >> (b as u32 & shift_mask)) as i64),
        BinOp::AShr => wrap(ty.sext(ty.trunc(a)) >> (b as u32 & shift_mask)),
        _ => return None, // float ops handled separately
    })
}

/// Folds a float binary op.
#[inline]
pub fn fold_float_bin(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::FAdd => a + b,
        BinOp::FSub => a - b,
        BinOp::FMul => a * b,
        BinOp::FDiv => a / b,
        _ => return None,
    })
}

/// Folds a comparison; returns the boolean result.
#[inline]
pub fn fold_cmp(op: CmpOp, ty: Type, a: &Imm, b: &Imm) -> bool {
    if op.is_float() {
        let (x, y) = (a.as_f64(), b.as_f64());
        match op {
            CmpOp::FOeq => x == y,
            CmpOp::FOne => x != y,
            CmpOp::FOlt => x < y,
            CmpOp::FOle => x <= y,
            CmpOp::FOgt => x > y,
            CmpOp::FOge => x >= y,
            _ => unreachable!(),
        }
    } else {
        let (sx, sy) = (a.as_i64(), b.as_i64());
        let (ux, uy) = (ty.trunc(sx), ty.trunc(sy));
        match op {
            CmpOp::Eq => sx == sy,
            CmpOp::Ne => sx != sy,
            CmpOp::Slt => sx < sy,
            CmpOp::Sle => sx <= sy,
            CmpOp::Sgt => sx > sy,
            CmpOp::Sge => sx >= sy,
            CmpOp::Ult => ux < uy,
            CmpOp::Ule => ux <= uy,
            CmpOp::Ugt => ux > uy,
            CmpOp::Uge => ux >= uy,
            _ => unreachable!(),
        }
    }
}

/// Folds a unary op / cast.
#[inline]
pub fn fold_un(op: UnOp, ty: Type, a: &Imm) -> Option<Imm> {
    Some(match op {
        UnOp::Neg => Imm::int(ty, a.as_i64().wrapping_neg()),
        UnOp::Not => Imm::int(ty, !a.as_i64()),
        UnOp::FNeg => match ty {
            Type::F32 => Imm::f32(-(a.as_f64() as f32)),
            _ => Imm::f64(-a.as_f64()),
        },
        UnOp::Trunc => Imm::int(ty, a.as_i64()),
        UnOp::SExt => Imm::int(ty, a.as_i64()),
        UnOp::ZExt => Imm::int(ty, a.ty.trunc(a.as_i64()) as i64),
        UnOp::FpToSi => {
            let v = a.as_f64();
            if !v.is_finite() {
                return None;
            }
            Imm::int(ty, v as i64)
        }
        UnOp::SiToFp => match ty {
            Type::F32 => Imm::f32(a.as_i64() as f32),
            _ => Imm::f64(a.as_i64() as f64),
        },
        UnOp::FpExt => Imm::f64(a.as_f64()),
        UnOp::FpTrunc => Imm::f32(a.as_f64() as f32),
    })
}

/// `imm` as a value of type `ty`, normalized as the VM normalizes a
/// select's result: integers wrap to the width, floats round through the
/// type's precision. `None` when one is an integer and the other a float.
fn conform(imm: Imm, ty: Type) -> Option<Imm> {
    match ty {
        _ if imm.ty == ty => Some(imm),
        Type::F32 if imm.ty.is_float() => Some(Imm::f32(imm.as_f64() as f32)),
        Type::F64 if imm.ty.is_float() => Some(Imm::f64(imm.as_f64())),
        _ if ty.is_int() && imm.ty.is_int() => Some(Imm::int(ty, imm.as_i64())),
        _ => None,
    }
}

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&self, f: &mut Function) -> bool {
        let mut replace: HashMap<crate::function::InstId, Operand> = HashMap::new();
        for bid in f.block_ids().collect::<Vec<_>>() {
            for &iid in &f.block(bid).insts.clone() {
                if replace.contains_key(&iid) {
                    continue;
                }
                let inst = f.inst(iid);
                let folded: Option<Imm> = match &inst.kind {
                    InstKind::Bin(op, Operand::Const(a), Operand::Const(b)) => {
                        if op.is_float() {
                            fold_float_bin(*op, a.as_f64(), b.as_f64()).map(|v| match inst.ty {
                                Type::F32 => Imm::f32(v as f32),
                                _ => Imm::f64(v),
                            })
                        } else {
                            fold_int_bin(*op, inst.ty, a.as_i64(), b.as_i64())
                                .map(|v| Imm::int(inst.ty, v))
                        }
                    }
                    InstKind::Un(op, Operand::Const(a)) => fold_un(*op, inst.ty, a),
                    InstKind::Cmp(op, Operand::Const(a), Operand::Const(b)) => {
                        Some(Imm::bool(fold_cmp(*op, a.ty, a, b)))
                    }
                    // The VM normalizes the chosen arm to the select's
                    // type, so the fold does too; an arm of another type
                    // is forwarded only if the select cannot change it.
                    InstKind::Select(Operand::Const(c), a, b) => {
                        let chosen = if c.as_i64() != 0 { *a } else { *b };
                        match chosen {
                            Operand::Const(imm) => conform(imm, inst.ty),
                            other => {
                                if operand_ty(f, other) == inst.ty {
                                    replace.insert(iid, other);
                                }
                                None
                            }
                        }
                    }
                    // Phi with a single incoming value collapses to it.
                    InstKind::Phi(incoming) if incoming.len() == 1 => match incoming[0].1 {
                        Operand::Const(imm) => Some(imm),
                        other => {
                            replace.insert(iid, other);
                            None
                        }
                    },
                    _ => None,
                };
                if let Some(imm) = folded {
                    replace.insert(iid, Operand::Const(imm));
                }
            }
        }
        let changed = !replace.is_empty();
        super::apply_replacements(f, &replace);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Operand as Op;
    use crate::inst::Terminator;

    fn ret_const_of(f: &Function) -> Option<i64> {
        match f.blocks[0].term.as_ref().unwrap() {
            Terminator::Ret(Some(Op::Const(imm))) => Some(imm.as_i64()),
            _ => None,
        }
    }

    #[test]
    fn folds_arith_chain() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        let x = b.add(Op::ci32(2), Op::ci32(3)); // 5
        let y = b.mul(x, Op::ci32(4)); // 20
        let z = b.sub(y, Op::ci32(1)); // 19
        b.ret(z);
        let mut f = b.finish();
        // Iterate like the pass manager would.
        while ConstFold.run(&mut f) {}
        assert_eq!(ret_const_of(&f), Some(19));
    }

    #[test]
    fn fold_respects_width_wraparound() {
        // 200 + 100 in i8 wraps to 44 (300 mod 256 = 44).
        assert_eq!(fold_int_bin(BinOp::Add, Type::I8, 200, 100), Some(44));
        // i32 multiply wraps.
        let v = fold_int_bin(BinOp::Mul, Type::I32, i32::MAX as i64, 2).unwrap();
        assert_eq!(v, i32::MAX.wrapping_mul(2) as i64);
    }

    #[test]
    fn division_by_zero_not_folded() {
        assert_eq!(fold_int_bin(BinOp::SDiv, Type::I32, 1, 0), None);
        assert_eq!(fold_int_bin(BinOp::URem, Type::I32, 1, 0), None);
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        let x = b.sdiv(Op::ci32(1), Op::ci32(0));
        b.ret(x);
        let mut f = b.finish();
        assert!(!ConstFold.run(&mut f));
    }

    #[test]
    fn folds_comparisons_signed_vs_unsigned() {
        let a = Imm::i32(-1);
        let b = Imm::i32(1);
        assert!(fold_cmp(CmpOp::Slt, Type::I32, &a, &b));
        // Unsigned: 0xffffffff > 1.
        assert!(!fold_cmp(CmpOp::Ult, Type::I32, &a, &b));
        assert!(fold_cmp(CmpOp::Ugt, Type::I32, &a, &b));
    }

    #[test]
    fn folds_float() {
        assert_eq!(fold_float_bin(BinOp::FMul, 2.5, 4.0), Some(10.0));
        let a = Imm::f64(1.5);
        let b = Imm::f64(1.5);
        assert!(fold_cmp(CmpOp::FOeq, Type::F64, &a, &b));
    }

    #[test]
    fn folds_casts() {
        assert_eq!(
            fold_un(UnOp::ZExt, Type::I32, &Imm::int(Type::I8, -1))
                .unwrap()
                .as_i64(),
            255
        );
        assert_eq!(
            fold_un(UnOp::SExt, Type::I32, &Imm::int(Type::I8, -1))
                .unwrap()
                .as_i64(),
            -1
        );
        assert_eq!(
            fold_un(UnOp::FpToSi, Type::I32, &Imm::f64(3.9))
                .unwrap()
                .as_i64(),
            3
        );
        assert!(fold_un(UnOp::FpToSi, Type::I32, &Imm::f64(f64::NAN)).is_none());
    }

    #[test]
    fn const_select_folds_to_arm() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let s = b.select(Op::Const(Imm::bool(true)), Op::Arg(0), Op::ci32(9));
        b.ret(s);
        let mut f = b.finish();
        assert!(ConstFold.run(&mut f));
        match f.blocks[0].term.as_ref().unwrap() {
            Terminator::Ret(Some(Op::Arg(0))) => {}
            other => panic!("expected ret arg0, got {other:?}"),
        }
    }

    #[test]
    fn shift_masks_amount() {
        // Shifting an i32 by 33 behaves like shifting by 1 (LLVM-style mask).
        assert_eq!(fold_int_bin(BinOp::Shl, Type::I32, 1, 33), Some(2));
        assert_eq!(fold_int_bin(BinOp::LShr, Type::I32, 4, 33), Some(2));
    }
}
