//! Custom-instruction semantics.
//!
//! When a candidate becomes hardware, the architecture still needs a
//! functional model to *execute* it (our substitute for the real FPGA
//! datapath, which is functionally identical by construction — the
//! datapath generator instantiates one core per IR operation). A
//! [`CiSemantics`] is the candidate's data-flow recipe frozen at patch
//! time: member operations in topological order with operands remapped to
//! CI input ports, earlier members, or baked-in constants.
//!
//! `freeze` also lowers the recipe once into a flat register program,
//! which is what [`CiSemantics::eval`] runs on every execution (DESIGN.md
//! §18). Inputs, constants and member results share one file of raw
//! 64-bit words — integers sign-extended, floats as `f64` bits — and the
//! (op, type) pairs of the measured CI mix get monomorphic opcodes. Every
//! other op goes through one generic opcode that calls the
//! constant-folding kernels, so hardware, interpreter and optimizer
//! semantics can never diverge.

use jitise_base::{Error, Result};
use jitise_ir::passes::constfold::{fold_cmp, fold_float_bin, fold_int_bin, fold_un};
use jitise_ir::{BinOp, CmpOp, Dfg, Function, Imm, InstKind, Operand, Type, UnOp};
use jitise_ise::Candidate;
use jitise_vm::Value;

/// An operand of a frozen CI operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiArg {
    /// The n-th CI input port.
    Input(u32),
    /// The result of an earlier member operation.
    Node(u32),
    /// A baked-in constant.
    Const(Imm),
}

/// One frozen member operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CiOp {
    /// Binary ALU op.
    Bin(BinOp, Type, CiArg, CiArg),
    /// Unary / cast op; the `Type` pair is (result, source).
    Un(UnOp, Type, Type, CiArg),
    /// Comparison (operand type recorded for signedness).
    Cmp(CmpOp, Type, CiArg, CiArg),
    /// 2:1 mux (condition, true arm, false arm); the chosen arm is
    /// normalized to the result `Type`, as the interpreter does.
    Select(Type, CiArg, CiArg, CiArg),
}

impl CiOp {
    /// The type of the value the op produces.
    fn result_ty(&self) -> Type {
        match self {
            CiOp::Bin(_, ty, ..) | CiOp::Un(_, ty, ..) | CiOp::Select(ty, ..) => *ty,
            CiOp::Cmp(..) => Type::I1,
        }
    }
}

/// The frozen datapath of one custom instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CiSemantics {
    /// Operations in topological order.
    pub ops: Vec<CiOp>,
    /// Number of input ports.
    pub num_inputs: u32,
    /// Which op produces the CI result (index into `ops`).
    pub output_op: u32,
    /// `ops` lowered to the register program [`Self::eval`] runs.
    program: Program,
}

impl CiSemantics {
    /// Freezes a single-output candidate into executable semantics.
    ///
    /// Fails for multi-output candidates (the IR's `Custom` instruction
    /// returns one value; the Woolcano patcher only offloads single-output
    /// candidates, which is all MAXMISO produces).
    pub fn freeze(f: &Function, dfg: &Dfg, cand: &Candidate) -> Result<CiSemantics> {
        if cand.outputs != 1 {
            return Err(Error::Arch(format!(
                "cannot freeze candidate with {} outputs into a 1-result CI",
                cand.outputs
            )));
        }
        // Input port table, in first-appearance order (must match the
        // operand order the patcher emits).
        let mut inputs: Vec<Operand> = Vec::new();
        let member_pos = |def: jitise_ir::InstId| -> Option<u32> {
            cand.insts.iter().position(|&i| i == def).map(|p| p as u32)
        };

        let mut ops = Vec::with_capacity(cand.nodes.len());
        for &iid in &cand.insts {
            let inst = f.inst(iid);
            let mut arg_of = |op: Operand| -> CiArg {
                match op {
                    Operand::Const(imm) => CiArg::Const(imm),
                    other => {
                        if let Operand::Inst(def) = other {
                            if let Some(pos) = member_pos(def) {
                                return CiArg::Node(pos);
                            }
                        }
                        match inputs.iter().position(|&o| o == other) {
                            Some(i) => CiArg::Input(i as u32),
                            None => {
                                inputs.push(other);
                                CiArg::Input((inputs.len() - 1) as u32)
                            }
                        }
                    }
                }
            };
            let op = match &inst.kind {
                InstKind::Bin(op, a, b) => CiOp::Bin(*op, inst.ty, arg_of(*a), arg_of(*b)),
                InstKind::Un(op, a) => {
                    let src_ty = jitise_ir::verify::operand_ty(f, *a);
                    CiOp::Un(*op, inst.ty, src_ty, arg_of(*a))
                }
                InstKind::Cmp(op, a, b) => {
                    let ty = jitise_ir::verify::operand_ty(f, *a);
                    CiOp::Cmp(*op, ty, arg_of(*a), arg_of(*b))
                }
                InstKind::Select(c, a, b) => {
                    CiOp::Select(inst.ty, arg_of(*c), arg_of(*a), arg_of(*b))
                }
                other => {
                    return Err(Error::Arch(format!(
                        "hardware-infeasible op {other:?} in candidate"
                    )))
                }
            };
            ops.push(op);
        }

        // The output op: the member whose value escapes.
        let member_set: std::collections::HashSet<u32> = cand.nodes.iter().copied().collect();
        let mut output_op = None;
        for (pos, &n) in cand.nodes.iter().enumerate() {
            let node = &dfg.nodes[n as usize];
            let feeds_outside = node.succs.iter().any(|&s| !member_set.contains(&s));
            if node.escapes || feeds_outside {
                output_op = Some(pos as u32);
            }
        }
        let output_op = output_op.ok_or_else(|| Error::Arch("candidate has no output".into()))?;

        let num_inputs = inputs.len() as u32;
        let program = Program::lower(&ops, num_inputs, output_op)?;
        Ok(CiSemantics {
            ops,
            num_inputs,
            output_op,
            program,
        })
    }

    /// The input operands (in port order) the patcher must pass at the
    /// call site. Recomputed the same way `freeze` discovered them.
    pub fn input_operands(f: &Function, cand: &Candidate) -> Vec<Operand> {
        let mut inputs: Vec<Operand> = Vec::new();
        for &iid in &cand.insts {
            for op in f.inst(iid).operands() {
                match op {
                    Operand::Const(_) => {}
                    other => {
                        let from_member =
                            other.as_inst().is_some_and(|def| cand.insts.contains(&def));
                        if !from_member && !inputs.contains(&other) {
                            inputs.push(other);
                        }
                    }
                }
            }
        }
        inputs
    }

    /// Evaluates the CI on input values. Allocation-free for CIs of up to
    /// `INLINE_REGS` registers (inputs + constants + members).
    pub fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.num_inputs as usize {
            return Err(Error::Arch(format!(
                "CI expects {} inputs, got {}",
                self.num_inputs,
                args.len()
            )));
        }
        if self.program.num_regs() <= INLINE_REGS {
            self.program.run(&self.ops, args, &mut [0; INLINE_REGS])
        } else {
            self.program.run(&self.ops, args, &mut regs_on_heap())
        }
    }
}

/// Register-file size [`CiSemantics::eval`] keeps on the stack.
const INLINE_REGS: usize = 64;

/// A register file for every [`Reg`] index, for CIs too large for the
/// stack.
fn regs_on_heap() -> Box<[u64; 1 << 16]> {
    vec![0; 1 << 16]
        .into_boxed_slice()
        .try_into()
        .expect("sized")
}

/// A lowered register index.
type Reg = u16;

/// One lowered operation. It writes the register after the previous
/// operation's, so member `i` lands in register `first_member + i`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Insn {
    code: Code,
    a: Reg,
    b: Reg,
    c: Reg,
}

/// Lowered opcodes: one per (op, type) pair of the measured CI mix, the
/// rest generic.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Code {
    AddI32,
    SubI32,
    MulI32,
    AndI32,
    OrI32,
    XorI32,
    ShlI32,
    AShrI32,
    LShrI32,
    FAddF64,
    FSubF64,
    FMulF64,
    /// Integer compare at the width whose sign bit is `64 - shift`.
    ICmp(CmpOp, u8),
    /// Integer (or `f64`) mux whose result is sign-extended from bit
    /// `64 - shift` (`shift` 0 passes the word through).
    Select(u8),
    /// Mux rounding its result through `f32`.
    SelectF32,
    /// Any other op: `ops[i]` evaluated through the constant-folding
    /// kernels.
    Generic(u32),
}

/// A CI's lowered datapath. Registers: inputs, then constants, then one
/// per member op.
#[derive(Debug, Clone, PartialEq)]
struct Program {
    num_inputs: usize,
    /// Constant words, copied to the registers after the inputs per call.
    consts: Vec<u64>,
    code: Vec<Insn>,
    /// Register of the CI result.
    out: Reg,
    /// Whether the result is a float.
    out_float: bool,
}

/// A value as a register word: integers sign-extended, floats as `f64`
/// bits.
fn to_word(v: Value) -> u64 {
    match v {
        Value::I(i) => i as u64,
        Value::F(f) => f.to_bits(),
    }
}

/// The shift that sign-extends a word from `ty`'s width
/// (`ty.sext(ty.trunc(v))` is `(v << s) >> s`, arithmetic).
fn width_shift(ty: Type) -> u8 {
    match ty.bits() {
        b @ 1..=63 => (64 - b) as u8,
        _ => 0,
    }
}

/// A register word as the immediate of type `ty` the folding kernels take
/// (the interpreter's conversion of a runtime value).
fn word_imm(w: u64, ty: Type) -> Imm {
    match ty {
        Type::F32 => Imm::f32(f64::from_bits(w) as f32),
        Type::F64 => Imm::f64(f64::from_bits(w)),
        _ => Imm::int(if ty.is_int() { ty } else { Type::I64 }, w as i64),
    }
}

impl Program {
    fn lower(ops: &[CiOp], num_inputs: u32, output_op: u32) -> Result<Program> {
        let mut consts: Vec<u64> = Vec::new();
        for op in ops {
            for arg in op_args(op) {
                if let CiArg::Const(imm) = arg {
                    let w = to_word(Value::from_imm(imm));
                    if !consts.contains(&w) {
                        consts.push(w);
                    }
                }
            }
        }
        let first_const = num_inputs as usize;
        let first_member = first_const + consts.len();
        if first_member + ops.len() > Reg::MAX as usize {
            return Err(Error::Arch(format!(
                "custom instruction needs {} registers",
                first_member + ops.len()
            )));
        }
        let reg = |arg: CiArg| -> Reg {
            (match arg {
                CiArg::Input(i) => i as usize,
                CiArg::Node(n) => first_member + n as usize,
                CiArg::Const(imm) => {
                    let w = to_word(Value::from_imm(imm));
                    first_const + consts.iter().position(|&c| c == w).expect("pooled")
                }
            }) as Reg
        };
        let code = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let generic = Code::Generic(i as u32);
                match *op {
                    CiOp::Bin(b, ty, x, y) => {
                        let code = match (b, ty) {
                            (BinOp::Add, Type::I32) => Code::AddI32,
                            (BinOp::Sub, Type::I32) => Code::SubI32,
                            (BinOp::Mul, Type::I32) => Code::MulI32,
                            (BinOp::And, Type::I32) => Code::AndI32,
                            (BinOp::Or, Type::I32) => Code::OrI32,
                            (BinOp::Xor, Type::I32) => Code::XorI32,
                            (BinOp::Shl, Type::I32) => Code::ShlI32,
                            (BinOp::AShr, Type::I32) => Code::AShrI32,
                            (BinOp::LShr, Type::I32) => Code::LShrI32,
                            (BinOp::FAdd, Type::F64) => Code::FAddF64,
                            (BinOp::FSub, Type::F64) => Code::FSubF64,
                            (BinOp::FMul, Type::F64) => Code::FMulF64,
                            _ => generic,
                        };
                        Insn {
                            code,
                            a: reg(x),
                            b: reg(y),
                            c: 0,
                        }
                    }
                    CiOp::Un(_, _, _, x) => Insn {
                        code: generic,
                        a: reg(x),
                        b: 0,
                        c: 0,
                    },
                    CiOp::Cmp(c, ty, x, y) => Insn {
                        code: if ty.is_int() {
                            Code::ICmp(c, width_shift(ty))
                        } else {
                            generic
                        },
                        a: reg(x),
                        b: reg(y),
                        c: 0,
                    },
                    CiOp::Select(ty, c, x, y) => Insn {
                        code: if ty == Type::F32 {
                            Code::SelectF32
                        } else {
                            Code::Select(width_shift(ty))
                        },
                        a: reg(c),
                        b: reg(x),
                        c: reg(y),
                    },
                }
            })
            .collect();
        Ok(Program {
            num_inputs: num_inputs as usize,
            consts,
            code,
            out: (first_member + output_op as usize) as Reg,
            out_float: ops[output_op as usize].result_ty().is_float(),
        })
    }

    fn num_regs(&self) -> usize {
        self.num_inputs + self.consts.len() + self.code.len()
    }

    /// Runs the program in a register file of at least
    /// [`Self::num_regs`] words. Register indices are reduced modulo `N`,
    /// which the lowering makes a no-op and which lets the compiler drop
    /// the bounds checks.
    fn run<const N: usize>(
        &self,
        ops: &[CiOp],
        args: &[Value],
        regs: &mut [u64; N],
    ) -> Result<Value> {
        for (r, &v) in regs.iter_mut().zip(args) {
            *r = to_word(v);
        }
        for (r, &c) in regs[self.num_inputs..].iter_mut().zip(&self.consts) {
            *r = c;
        }
        let reg = |i: Reg| usize::from(i) % N;
        let first_member = self.num_inputs + self.consts.len();
        for (dst, insn) in (first_member..).zip(&self.code) {
            let x = regs[reg(insn.a)];
            let y = regs[reg(insn.b)];
            let i32_of = |w: u64| w as i32;
            let f64_of = f64::from_bits;
            regs[dst % N] = match insn.code {
                Code::AddI32 => i32_of(x).wrapping_add(i32_of(y)) as i64 as u64,
                Code::SubI32 => i32_of(x).wrapping_sub(i32_of(y)) as i64 as u64,
                Code::MulI32 => i32_of(x).wrapping_mul(i32_of(y)) as i64 as u64,
                Code::AndI32 => (i32_of(x) & i32_of(y)) as i64 as u64,
                Code::OrI32 => (i32_of(x) | i32_of(y)) as i64 as u64,
                Code::XorI32 => (i32_of(x) ^ i32_of(y)) as i64 as u64,
                Code::ShlI32 => i32_of(x).wrapping_shl(y as u32 & 31) as i64 as u64,
                Code::AShrI32 => (i32_of(x) >> (y as u32 & 31)) as i64 as u64,
                Code::LShrI32 => ((x as u32) >> (y as u32 & 31)) as i32 as i64 as u64,
                Code::FAddF64 => (f64_of(x) + f64_of(y)).to_bits(),
                Code::FSubF64 => (f64_of(x) - f64_of(y)).to_bits(),
                Code::FMulF64 => (f64_of(x) * f64_of(y)).to_bits(),
                Code::ICmp(op, s) => icmp(op, s, x, y) as u64,
                Code::Select(s) => {
                    let w = if x & 1 != 0 { y } else { regs[reg(insn.c)] };
                    (((w << s) as i64) >> s) as u64
                }
                Code::SelectF32 => {
                    let w = if x & 1 != 0 { y } else { regs[reg(insn.c)] };
                    (f64_of(w) as f32 as f64).to_bits()
                }
                Code::Generic(i) => generic(&ops[i as usize], x, y)?,
            };
        }
        let w = regs[reg(self.out)];
        Ok(if self.out_float {
            Value::F(f64::from_bits(w))
        } else {
            Value::I(w as i64)
        })
    }
}

/// The operands of a recipe op, in lowering order.
fn op_args(op: &CiOp) -> impl Iterator<Item = CiArg> {
    let (a, b, c) = match *op {
        CiOp::Bin(_, _, x, y) | CiOp::Cmp(_, _, x, y) => (Some(x), Some(y), None),
        CiOp::Un(_, _, _, x) => (Some(x), None, None),
        CiOp::Select(_, c, x, y) => (Some(c), Some(x), Some(y)),
    };
    [a, b, c].into_iter().flatten()
}

/// `fold_cmp` on integers already at the register's width: both operands
/// are re-normalized through `shift` first, as `Imm::int` would.
#[inline]
fn icmp(op: CmpOp, shift: u8, x: u64, y: u64) -> bool {
    let (ux, uy) = ((x << shift) >> shift, (y << shift) >> shift);
    let (sx, sy) = (
        ((x << shift) as i64) >> shift,
        ((y << shift) as i64) >> shift,
    );
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
        _ => unreachable!("float compare lowered as an integer compare"),
    }
}

/// A recipe op the lowering has no monomorphic opcode for, on the words of
/// its operands, through the constant-folding kernels.
#[cold]
fn generic(op: &CiOp, x: u64, y: u64) -> Result<u64> {
    Ok(match *op {
        CiOp::Bin(b, ty, ..) => {
            if b.is_float() {
                let r = fold_float_bin(b, f64::from_bits(x), f64::from_bits(y));
                to_word(Value::F(r.expect("float binop")).normalize(ty))
            } else {
                fold_int_bin(b, ty, x as i64, y as i64)
                    .ok_or_else(|| Error::Arch("division by zero in custom instruction".into()))?
                    as u64
            }
        }
        CiOp::Un(u, ty, src_ty, _) => {
            let out = fold_un(u, ty, &word_imm(x, src_ty))
                .ok_or_else(|| Error::Arch("invalid cast in CI".into()))?;
            to_word(Value::from_imm(out))
        }
        CiOp::Cmp(c, ty, ..) => fold_cmp(c, ty, &word_imm(x, ty), &word_imm(y, ty)) as u64,
        CiOp::Select(..) => unreachable!("select always lowers to a mux opcode"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op};
    use jitise_ise::ForbiddenPolicy;
    use jitise_vm::BlockKey;

    fn freeze_first(build: impl FnOnce(&mut FunctionBuilder)) -> (Function, CiSemantics) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        build(&mut b);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(
            &f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .remove(0);
        let sem = CiSemantics::freeze(&f, &dfg, &cand).unwrap();
        (f, sem)
    }

    /// Freezes the largest MAXMISO candidate of `f`'s entry block.
    fn freeze_largest(f: &Function) -> CiSemantics {
        let dfg = Dfg::build(f, BlockId(0));
        let cand = jitise_ise::maxmiso(
            f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .into_iter()
        .max_by_key(|c| c.len())
        .expect("a candidate");
        CiSemantics::freeze(f, &dfg, &cand).unwrap()
    }

    #[test]
    fn freeze_and_eval_matches_direct_computation() {
        let (_, sem) = freeze_first(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::ci32(3));
            let z = b.xor(y, x);
            b.ret(z);
        });
        assert_eq!(sem.num_inputs, 2);
        assert_eq!(sem.ops.len(), 3);
        let out = sem.eval(&[Value::I(5), Value::I(7)]).unwrap();
        let x = 5 + 7;
        let y = x * 3;
        assert_eq!(out, Value::I((y ^ x) as i64));
    }

    #[test]
    fn constants_are_baked_in() {
        let (_, sem) = freeze_first(|b| {
            let x = b.mul(Op::Arg(0), Op::ci32(10));
            let y = b.add(x, Op::ci32(100));
            b.ret(y);
        });
        assert_eq!(sem.num_inputs, 1);
        assert_eq!(sem.eval(&[Value::I(4)]).unwrap(), Value::I(140));
    }

    #[test]
    fn repeated_input_uses_one_port() {
        let (_, sem) = freeze_first(|b| {
            let x = b.mul(Op::Arg(0), Op::Arg(0));
            let y = b.add(x, Op::Arg(0));
            b.ret(y);
        });
        assert_eq!(sem.num_inputs, 1);
        assert_eq!(sem.eval(&[Value::I(6)]).unwrap(), Value::I(42));
    }

    #[test]
    fn select_and_cmp_semantics() {
        let (_, sem) = freeze_first(|b| {
            let c = b.cmp(CmpOp::Slt, Op::Arg(0), Op::Arg(1));
            let big = b.select(c, Op::Arg(1), Op::Arg(0));
            let r = b.shl(big, Op::ci32(1));
            b.ret(r);
        });
        assert_eq!(sem.eval(&[Value::I(3), Value::I(9)]).unwrap(), Value::I(18));
        assert_eq!(sem.eval(&[Value::I(9), Value::I(3)]).unwrap(), Value::I(18));
    }

    #[test]
    fn wrong_arity_rejected() {
        let (_, sem) = freeze_first(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::ci32(3));
            b.ret(y);
        });
        assert!(sem.eval(&[Value::I(1)]).is_err());
    }

    #[test]
    fn division_by_zero_traps_in_hw_model() {
        let (_, sem) = freeze_first(|b| {
            let x = b.sdiv(Op::Arg(0), Op::Arg(1));
            let y = b.add(x, Op::ci32(1));
            b.ret(y);
        });
        assert!(sem.eval(&[Value::I(10), Value::I(0)]).is_err());
        assert_eq!(sem.eval(&[Value::I(10), Value::I(2)]).unwrap(), Value::I(6));
    }

    #[test]
    fn trap_messages_match_the_hardware_model() {
        let (_, sem) = freeze_first(|b| {
            let x = b.sdiv(Op::Arg(0), Op::Arg(1));
            let y = b.add(x, Op::ci32(1));
            b.ret(y);
        });
        let err = sem.eval(&[Value::I(10), Value::I(0)]).unwrap_err();
        assert!(err
            .to_string()
            .contains("division by zero in custom instruction"));

        let mut b = FunctionBuilder::new("f", vec![Type::F64], Type::I32);
        let x = b.fmul(Op::Arg(0), Op::cf64(2.0));
        let y = b.fptosi(x, Type::I32);
        b.ret(y);
        let f = b.finish();
        let sem = freeze_largest(&f);
        assert_eq!(sem.eval(&[Value::F(2.25)]).unwrap(), Value::I(4));
        let err = sem.eval(&[Value::F(f64::INFINITY)]).unwrap_err();
        assert!(err.to_string().contains("invalid cast in CI"));
    }

    /// A select's chosen arm is normalized to the select's result type,
    /// as the interpreter does: f64 constants feeding an f32 select come
    /// out rounded through f32.
    #[test]
    fn select_result_is_normalized_like_the_interpreter() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::F32);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let c = b.cmp(CmpOp::Slt, x, Op::ci32(10));
        let sel = b.push(InstKind::Select(c, Op::cf64(0.1), Op::cf64(0.2)), Type::F32);
        b.ret(Op::Inst(sel));
        let f = b.finish();
        let sem = freeze_largest(&f);
        assert_eq!(sem.ops.len(), 3, "add, cmp and select form one CI");
        let mut m = jitise_ir::Module::new("t");
        m.add_func(f);
        for (a0, a1) in [(3, 4), (30, 4)] {
            let want = jitise_vm::Interpreter::new(&m)
                .run("main", &[Value::I(a0), Value::I(a1)])
                .unwrap()
                .ret
                .unwrap();
            let got = sem.eval(&[Value::I(a0), Value::I(a1)]).unwrap();
            assert_eq!(got, want);
        }
        assert_eq!(
            sem.eval(&[Value::I(3), Value::I(4)]).unwrap(),
            Value::F(0.1f32 as f64)
        );
    }

    #[test]
    fn input_operand_order_matches_ports() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.mul(Op::Arg(1), Op::ci32(3)); // arg1 first!
        let y = b.add(x, Op::Arg(0));
        b.ret(y);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(
            &f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .remove(0);
        let sem = CiSemantics::freeze(&f, &dfg, &cand).unwrap();
        let inputs = CiSemantics::input_operands(&f, &cand);
        assert_eq!(inputs, vec![Op::Arg(1), Op::Arg(0)]);
        // eval with (arg1, arg0) order: arg1=2, arg0=5 -> 2*3+5 = 11.
        assert_eq!(sem.eval(&[Value::I(2), Value::I(5)]).unwrap(), Value::I(11));
    }
}
