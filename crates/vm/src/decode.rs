//! Traced decoding and the shared decode cache of the fast tier.
//!
//! Pre-decoding ([`PredecodedModule::build`]) is the fast tier's one-off
//! cost per module. [`decode`] wraps it in a `vm.decode` span and counts
//! it under [`names::VM_DECODE_BUILDS`], so a profile attributes decode
//! time instead of leaving it between `vm.run` spans. [`DecodeCache`]
//! shares decoded modules across VM sessions: a multi-tenant runtime whose
//! tenants run a handful of distinct modules decodes each of them once.

use crate::cost::CostModel;
use crate::predecode::PredecodedModule;
use jitise_base::hash::SigHasher;
use jitise_base::sync::Mutex;
use jitise_ir::{Block, Function, Inst, Module};
use jitise_telemetry::{names, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Decodes `m` under `cost` inside a `vm.decode` span, counted as one
/// [`names::VM_DECODE_BUILDS`].
pub fn decode(m: &Module, cost: &CostModel, tel: &Telemetry) -> Arc<PredecodedModule> {
    decode_reusing(m, cost, tel, None)
}

/// [`decode`], decoding only the functions `reuse` lists as changed and
/// taking the rest from its decoded module (see
/// [`PredecodedModule::build_reusing`]).
fn decode_reusing(
    m: &Module,
    cost: &CostModel,
    tel: &Telemetry,
    reuse: Option<(&PredecodedModule, &[usize])>,
) -> Arc<PredecodedModule> {
    let _span = tel.span("vm.decode");
    tel.add(names::VM_DECODE_BUILDS, 1);
    Arc::new(PredecodedModule::build_reusing(m, cost, reuse))
}

/// A sequence stored as its differences from a base sequence.
struct Delta<T> {
    len: usize,
    /// `(index, element)` wherever the sequence differs from the base,
    /// ascending.
    changed: Vec<(usize, T)>,
}

impl<T: Clone + PartialEq> Delta<T> {
    /// The differences of `v` from `base`.
    fn between(base: &[T], v: &[T]) -> Delta<T> {
        let changed = v
            .iter()
            .enumerate()
            .filter(|&(i, x)| base.get(i) != Some(x))
            .map(|(i, x)| (i, x.clone()))
            .collect();
        Delta {
            len: v.len(),
            changed,
        }
    }

    /// Whether `v` is `base` with these differences applied.
    fn matches(&self, base: &[T], v: &[T]) -> bool {
        let mut changed = self.changed.iter().peekable();
        v.len() == self.len
            && v.iter()
                .enumerate()
                .all(|(i, x)| match changed.next_if(|(j, _)| *j == i) {
                    Some((_, y)) => x == y,
                    None => base.get(i) == Some(x),
                })
    }
}

/// A function stored as its differences from a base function with the
/// same signature: what specialization patches — appended custom
/// instructions, rewired operands, spliced blocks.
struct FuncDelta {
    insts: Delta<Inst>,
    blocks: Delta<Block>,
}

impl FuncDelta {
    /// The differences of `f` from `base`, or `None` when their
    /// signatures differ.
    fn between(base: &Function, f: &Function) -> Option<FuncDelta> {
        let Function {
            name,
            params,
            ret,
            insts,
            blocks,
        } = f;
        (*name == base.name && *params == base.params && *ret == base.ret).then(|| FuncDelta {
            insts: Delta::between(&base.insts, insts),
            blocks: Delta::between(&base.blocks, blocks),
        })
    }

    /// Whether `f` is `base` with these differences applied: exactly
    /// `Function`'s `==`, field by field.
    fn matches(&self, base: &Function, f: &Function) -> bool {
        let Function {
            name,
            params,
            ret,
            insts,
            blocks,
        } = f;
        *name == base.name
            && *params == base.params
            && *ret == base.ret
            && self.insts.matches(&base.insts, insts)
            && self.blocks.matches(&base.blocks, blocks)
    }
}

/// The functions in which `m` differs from `base`, as `(index,
/// differences)`, or `None` when `m` differs in more than its function
/// bodies.
fn module_delta(base: &Module, m: &Module) -> Option<Vec<(usize, FuncDelta)>> {
    if base.name != m.name || base.globals != m.globals || base.funcs.len() != m.funcs.len() {
        return None;
    }
    (base.funcs.iter().zip(&m.funcs).enumerate())
        .filter(|(_, (b, f))| b != f)
        .map(|(i, (b, f))| Some((i, FuncDelta::between(b, f)?)))
        .collect()
}

/// One decoded module, held as the base module it was decoded from plus
/// its differences from it: what a lookup compares against.
struct Entry {
    base: Arc<Module>,
    /// `(function index, differences)` for every function that differs
    /// from `base`'s, ascending.
    patched: Vec<(usize, FuncDelta)>,
    pd: Arc<PredecodedModule>,
}

impl Entry {
    /// Whether this entry is the decode of a module equal to `m` (exactly
    /// `Module`'s `==`, field by field) under `cost`.
    fn is_decode_of(&self, m: &Module, cost: &CostModel) -> bool {
        let Module {
            name,
            funcs,
            globals,
        } = m;
        let base = &*self.base;
        let mut patched = self.patched.iter().peekable();
        *name == base.name
            && *globals == base.globals
            && funcs.len() == base.funcs.len()
            && (funcs.iter().zip(&base.funcs).enumerate()).all(|(i, (f, b))| {
                match patched.next_if(|(j, _)| *j == i) {
                    Some((_, d)) => d.matches(b, f),
                    None => f == b,
                }
            })
            && self.pd.matches(m, cost)
    }
}

#[derive(Default)]
struct Entries {
    /// Cached decodes by [`module_shape`].
    by_shape: HashMap<u64, Vec<Entry>>,
    /// The modules entries are stored against: those handed over with
    /// [`DecodeCache::add_base`], then a copy of each decoded module that
    /// differed from all of them in more than its function bodies.
    bases: Vec<Arc<Module>>,
}

impl Entries {
    /// The cached decode of a module equal to `m` under `cost`.
    fn find(&self, m: &Module, cost: &CostModel) -> Option<&Arc<PredecodedModule>> {
        let bucket = self.by_shape.get(&module_shape(m, cost))?;
        bucket
            .iter()
            .find(|e| e.is_decode_of(m, cost))
            .map(|e| &e.pd)
    }
}

/// Content-verified cache of pre-decoded modules, shared by reference
/// across sessions.
///
/// Lookups bucket by a *shape key* — module name, cost model, and each
/// function's name, instruction count and block count — which costs
/// O(functions), far less than hashing the instruction stream (or
/// decoding). A bucket hit is only served after the cached module
/// compares equal to the module being run (and the decode's cost model
/// matches), so two different modules of the same shape, such as two
/// specializations of one base module, each get their own entry and a
/// hit is always the exact decode [`decode`] would have built.
///
/// The cache keeps no copy of a module its owner already holds. A module
/// handed over with [`DecodeCache::add_base`] is shared by reference,
/// and a decoded module that equals one of those bases, or differs from
/// it only in some function bodies (a specialization), is stored as
/// that base plus the instructions and blocks that differ. Such a
/// module's decode also shares the decoded forms of its unchanged
/// functions with the base's decode, since a function's decode depends
/// only on the function, its index and the cost model.
///
/// A miss decodes while holding the cache lock, so concurrent requests
/// for one module decode it once and the fleet's
/// [`names::VM_DECODE_BUILDS`] is exactly the number of distinct modules
/// decoded.
#[derive(Default)]
pub struct DecodeCache {
    entries: Mutex<Entries>,
}

impl DecodeCache {
    /// An empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Shares `base` with the cache, which stores the decodes of `base`
    /// and of its specializations against it instead of copying them.
    pub fn add_base(&self, base: Arc<Module>) {
        self.entries.lock().bases.push(base);
    }

    /// The decode of `m` under `cost`: a cached one when an equal module
    /// was decoded before (counted under [`names::VM_DECODE_HITS`]),
    /// otherwise a fresh [`decode`], which is then cached.
    pub fn get_or_decode(
        &self,
        m: &Module,
        cost: &CostModel,
        tel: &Telemetry,
    ) -> Arc<PredecodedModule> {
        let mut entries = self.entries.lock();
        if let Some(pd) = entries.find(m, cost) {
            tel.add(names::VM_DECODE_HITS, 1);
            return Arc::clone(pd);
        }
        let nearest = (entries.bases.iter())
            .filter_map(|b| Some((Arc::clone(b), module_delta(b, m)?)))
            .min_by_key(|(_, patched)| patched.len());
        let (base, patched) = nearest.unwrap_or_else(|| {
            let own = Arc::new(m.clone());
            entries.bases.push(Arc::clone(&own));
            (own, Vec::new())
        });
        // Every function outside `patched` equals the base's, so the
        // base's decode of it is exactly the one `m` needs.
        let changed: Vec<usize> = patched.iter().map(|(i, _)| *i).collect();
        let pd = match entries.find(&base, cost) {
            Some(base_pd) => decode_reusing(m, cost, tel, Some((base_pd, &changed))),
            None => decode(m, cost, tel),
        };
        entries
            .by_shape
            .entry(module_shape(m, cost))
            .or_default()
            .push(Entry {
                base,
                patched,
                pd: Arc::clone(&pd),
            });
        pd
    }
}

/// The bucket key: everything [`PredecodedModule::matches`] checks plus
/// the module name and global count, hashed without walking any
/// instruction.
fn module_shape(m: &Module, cost: &CostModel) -> u64 {
    let mut h = SigHasher::new();
    h.write_str("vm.decode.module");
    h.write_str(&m.name);
    h.write_u64(cost.clock_hz);
    h.write_u64(cost.dispatch_overhead);
    h.write_usize(m.globals.len());
    for f in &m.funcs {
        h.write_str(&f.name);
        h.write_usize(f.insts.len());
        h.write_usize(f.blocks.len());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::value::Value;
    use jitise_ir::{BinOp, FunctionBuilder, Operand, Type};

    /// `name(x) = x <op> k`.
    fn func(name: &str, op: BinOp, k: i32) -> Function {
        let mut b = FunctionBuilder::new(name, vec![Type::I32], Type::I32);
        let x = b.bin(op, Operand::Arg(0), Operand::ci32(k));
        b.ret(x);
        b.finish()
    }

    /// `main(x) = x <op> k` next to a fixed `aux`: same shape for every
    /// `(op, k)`.
    fn module(op: BinOp, k: i32) -> Module {
        let mut m = Module::new("m");
        m.add_func(func("main", op, k));
        m.add_func(func("aux", BinOp::Add, 1));
        m
    }

    fn run(m: &Module, pd: Arc<PredecodedModule>) -> Option<Value> {
        let mut vm = Interpreter::new(m);
        vm.set_predecoded(pd);
        vm.run("main", &[Value::I(5)]).unwrap().ret
    }

    /// `(builds, hits, vm.decode spans)` recorded by `tel`.
    fn counts(tel: &Telemetry) -> (u64, u64, usize) {
        let snap = tel.snapshot();
        let spans = snap.spans.iter().filter(|s| s.name == "vm.decode");
        (
            snap.counter(names::VM_DECODE_BUILDS),
            snap.counter(names::VM_DECODE_HITS),
            spans.count(),
        )
    }

    #[test]
    fn equal_modules_decode_once() {
        let cache = DecodeCache::new();
        let tel = Telemetry::enabled();
        let cost = CostModel::ppc405();
        let a = module(BinOp::Add, 3);
        for _ in 0..4 {
            let copy = a.clone();
            assert_eq!(
                run(&copy, cache.get_or_decode(&copy, &cost, &tel)),
                Some(Value::I(8))
            );
        }
        assert_eq!(counts(&tel), (1, 3, 1));
    }

    #[test]
    fn same_shape_different_content_is_not_a_hit() {
        let cache = DecodeCache::new();
        let tel = Telemetry::enabled();
        let cost = CostModel::ppc405();
        let add = module(BinOp::Add, 3);
        let sub = module(BinOp::Sub, 3);
        let add7 = module(BinOp::Add, 7);
        assert_eq!(module_shape(&add, &cost), module_shape(&sub, &cost));
        assert_eq!(module_shape(&add, &cost), module_shape(&add7, &cost));
        for (m, want) in [(&add, 8), (&sub, 2), (&add7, 12), (&sub, 2), (&add, 8)] {
            assert_eq!(
                run(m, cache.get_or_decode(m, &cost, &tel)),
                Some(Value::I(want))
            );
        }
        assert_eq!(counts(&tel), (3, 2, 3));
    }

    #[test]
    fn decodes_are_stored_against_shared_bases() {
        let cache = DecodeCache::new();
        let tel = Telemetry::disabled();
        let cost = CostModel::ppc405();
        let base = Arc::new(module(BinOp::Add, 3));
        cache.add_base(Arc::clone(&base));
        let base_pd = cache.get_or_decode(&module(BinOp::Add, 3), &cost, &tel);
        // A specialization of `base`: `main`'s one instruction differs.
        let spec = module(BinOp::Sub, 3);
        let spec_pd = cache.get_or_decode(&spec, &cost, &tel);
        // An unrelated module is copied once and becomes a base itself.
        let mut other = module(BinOp::Add, 3);
        other.name = "other".into();
        cache.get_or_decode(&other, &cost, &tel);

        // The specialization's decode is exactly a fresh one, and shares
        // the decode of the unchanged `aux` with the base's.
        let fresh = PredecodedModule::build(&spec, &cost);
        assert_eq!(format!("{spec_pd:?}"), format!("{fresh:?}"));
        assert!(Arc::ptr_eq(&spec_pd.funcs[1], &base_pd.funcs[1]));
        assert!(!Arc::ptr_eq(&spec_pd.funcs[0], &base_pd.funcs[0]));

        let entries = cache.entries.lock();
        assert_eq!(entries.bases.len(), 2);
        // `(base name, [(function, changed insts, changed blocks)])`.
        let mut stored: Vec<_> = entries
            .by_shape
            .values()
            .flatten()
            .map(|e| {
                let sizes = e.patched.iter();
                let sizes = sizes.map(|(i, d)| (*i, d.insts.changed.len(), d.blocks.changed.len()));
                (e.base.name.as_str(), sizes.collect::<Vec<_>>())
            })
            .collect();
        stored.sort();
        // The base itself is stored as `base` with nothing patched, its
        // specialization as `base` plus `main`'s one differing instruction.
        assert_eq!(
            stored,
            [("m", vec![]), ("m", vec![(0, 1, 0)]), ("other", vec![])]
        );
        assert_eq!(Arc::strong_count(&base), 4);
    }

    #[test]
    fn delta_round_trips_through_length_changes() {
        let base = [1, 2, 3];
        for v in [vec![1, 5, 3, 4], vec![1, 2], vec![], vec![1, 2, 3]] {
            let d = Delta::between(&base, &v);
            assert!(d.matches(&base, &v));
            for other in [vec![1, 5, 3], vec![1, 2, 3, 4], vec![1, 2, 3], vec![9]] {
                assert_eq!(d.matches(&base, &other), other == v, "{v:?} vs {other:?}");
            }
        }
        assert_eq!(
            Delta::between(&base, &[1, 5, 3, 4]).changed,
            [(1, 5), (3, 4)]
        );
    }

    #[test]
    fn cost_model_is_part_of_the_key() {
        let cache = DecodeCache::new();
        let tel = Telemetry::enabled();
        let m = module(BinOp::Add, 3);
        let slow = CostModel {
            dispatch_overhead: 5,
            ..CostModel::ppc405()
        };
        cache.get_or_decode(&m, &CostModel::ppc405(), &tel);
        let pd = cache.get_or_decode(&m, &slow, &tel);
        assert_eq!(counts(&tel), (2, 0, 2));
        assert!(pd.matches(&m, &slow));
    }
}
