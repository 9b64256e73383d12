//! Local common-subexpression elimination.
//!
//! Within each basic block, pure instructions with identical operation and
//! operands are collapsed to the first occurrence. Commutative operations
//! are canonicalized by sorting their operand keys so `a+b` and `b+a`
//! unify. Loads are not CSE'd (no alias analysis in this pipeline; the
//! paper's VM performs alias analysis, but correctness here beats parity).

use super::Pass;
use crate::function::{Function, InstId};
use crate::inst::{InstKind, Operand};
use std::collections::HashMap;

/// The local-CSE pass.
pub struct LocalCse;

/// A hashable key describing a pure computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum OpKey {
    Inst(u32),
    Arg(u32),
    // Constants keyed by type + raw bits.
    Const(u8, u64),
}

fn op_key(op: Operand) -> OpKey {
    match op {
        Operand::Inst(id) => OpKey::Inst(id.0),
        Operand::Arg(i) => OpKey::Arg(i),
        Operand::Const(imm) => OpKey::Const(
            imm.ty.bits() as u8 | ((imm.ty.is_float() as u8) << 7),
            imm.bits,
        ),
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(crate::inst::BinOp, OpKey, OpKey),
    Un(crate::inst::UnOp, u8, OpKey),
    Cmp(crate::inst::CmpOp, OpKey, OpKey),
    Select(crate::types::Type, OpKey, OpKey, OpKey),
    Gep(OpKey, OpKey, u32),
    GlobalAddr(u32),
}

fn expr_key(inst: &crate::inst::Inst) -> Option<ExprKey> {
    Some(match &inst.kind {
        InstKind::Bin(op, a, b) => {
            let (mut ka, mut kb) = (op_key(*a), op_key(*b));
            if op.is_commutative() && kb < ka {
                std::mem::swap(&mut ka, &mut kb);
            }
            ExprKey::Bin(*op, ka, kb)
        }
        InstKind::Un(op, a) => ExprKey::Un(*op, inst.ty.bits() as u8, op_key(*a)),
        InstKind::Cmp(op, a, b) => ExprKey::Cmp(*op, op_key(*a), op_key(*b)),
        InstKind::Select(c, a, b) => ExprKey::Select(inst.ty, op_key(*c), op_key(*a), op_key(*b)),
        InstKind::Gep {
            base,
            index,
            elem_bytes,
        } => ExprKey::Gep(op_key(*base), op_key(*index), *elem_bytes),
        InstKind::GlobalAddr(g) => ExprKey::GlobalAddr(g.0),
        // Loads, stores, calls, allocas, phis, custom ops: not CSE-able.
        _ => return None,
    })
}

impl Pass for LocalCse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, f: &mut Function) -> bool {
        let mut replace: HashMap<InstId, Operand> = HashMap::new();
        for bid in f.block_ids().collect::<Vec<_>>() {
            let mut seen: HashMap<ExprKey, InstId> = HashMap::new();
            for &iid in &f.block(bid).insts {
                if let Some(key) = expr_key(f.inst(iid)) {
                    match seen.get(&key) {
                        Some(&first) => {
                            replace.insert(iid, Operand::Inst(first));
                        }
                        None => {
                            seen.insert(key, iid);
                        }
                    }
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
    use crate::passes::dce::Dce;
    use crate::types::Type;
    use crate::verify::verify_function;

    #[test]
    fn unifies_identical_expressions() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let y = b.add(Op::Arg(0), Op::Arg(1));
        let z = b.mul(x, y);
        b.ret(z);
        let mut f = b.finish();
        assert!(LocalCse.run(&mut f));
        Dce.run(&mut f);
        assert!(verify_function(&f).is_ok());
        assert_eq!(f.num_insts(), 2, "one add must be removed");
    }

    #[test]
    fn unifies_commutative_swaps() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let y = b.add(Op::Arg(1), Op::Arg(0));
        let z = b.sub(x, y);
        b.ret(z);
        let mut f = b.finish();
        assert!(LocalCse.run(&mut f));
        Dce.run(&mut f);
        assert_eq!(f.num_insts(), 2);
    }

    #[test]
    fn does_not_unify_noncommutative_swaps() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.sub(Op::Arg(0), Op::Arg(1));
        let y = b.sub(Op::Arg(1), Op::Arg(0));
        let z = b.add(x, y);
        b.ret(z);
        let mut f = b.finish();
        assert!(!LocalCse.run(&mut f));
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn loads_never_cse() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr], Type::I32);
        let v1 = b.load(Type::I32, Op::Arg(0));
        b.store(Op::ci32(7), Op::Arg(0));
        let v2 = b.load(Type::I32, Op::Arg(0));
        let s = b.add(v1, v2);
        b.ret(s);
        let mut f = b.finish();
        assert!(!LocalCse.run(&mut f));
        assert_eq!(f.num_insts(), 4);
    }

    #[test]
    fn cse_is_block_local() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let next = b.new_block("next");
        let x = b.add(Op::Arg(0), Op::ci32(1));
        b.br(next);
        b.switch_to(next);
        let y = b.add(Op::Arg(0), Op::ci32(1)); // same expr, other block
        let z = b.add(x, y);
        b.ret(z);
        let mut f = b.finish();
        // Local CSE must NOT unify across blocks.
        assert!(!LocalCse.run(&mut f));
    }

    #[test]
    fn distinguishes_constant_types() {
        use crate::inst::Imm;
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        // Same bit pattern 1 but different const types must not unify.
        let x = b.add(Op::Arg(0), Op::Const(Imm::i64(1)));
        let y = b.add(Op::Arg(0), Op::Const(Imm::int(Type::I64, 1)));
        let z = b.add(x, y);
        b.ret(z);
        let mut f = b.finish();
        // These ARE the same type+bits, so they do unify.
        assert!(LocalCse.run(&mut f));
    }
}
