//! Linear memory.
//!
//! One flat byte-addressed memory per VM instance:
//!
//! ```text
//! 0x0000_0000  (null guard page, never mapped)
//! 0x0000_1000  globals, laid out in module order
//!      ...     stack (allocas), growing upward
//!      ...     top of memory
//! ```
//!
//! Loads and stores are bounds-checked; address 0 faults (null deref).
//!
//! Only a prefix of memory is backed by host memory: the globals and the
//! stack up to the highest address any alloca or store has reached. Bytes
//! past it read as zero, which is what they would hold in a fully
//! zero-filled memory. A run that uses a few KB of its 1 MB stack
//! therefore allocates and clears a few KB, not 1 MB.

use crate::value::Value;
use jitise_base::{Error, Result};
use jitise_ir::{Module, Type};

/// Guard region below which no access is valid (catches null derefs).
const NULL_GUARD: u32 = 0x1000;

/// Flat memory with global segment and an upward-growing alloca stack.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Backed prefix of memory; everything from `bytes.len()` to `size`
    /// is zero.
    bytes: Vec<u8>,
    /// Memory size in bytes (the bounds every access is checked against).
    size: u32,
    global_base: Vec<u32>,
    stack_base: u32,
    stack_ptr: u32,
}

impl Memory {
    /// Builds memory for a module: globals placed after the null guard,
    /// then `stack_bytes` of alloca space.
    pub fn for_module(m: &Module, stack_bytes: u32) -> Memory {
        let mut cursor = NULL_GUARD;
        let mut global_base = Vec::with_capacity(m.globals.len());
        for g in &m.globals {
            // 8-byte align each global.
            cursor = (cursor + 7) & !7;
            global_base.push(cursor);
            cursor += g.size.max(1);
        }
        cursor = (cursor + 15) & !15;
        let stack_base = cursor;
        let mut bytes = vec![0u8; stack_base as usize];
        for (g, &base) in m.globals.iter().zip(&global_base) {
            bytes[base as usize..base as usize + g.init.len()].copy_from_slice(&g.init);
        }
        Memory {
            bytes,
            size: stack_base + stack_bytes,
            global_base,
            stack_base,
            stack_ptr: stack_base,
        }
    }

    /// Base address of global `idx`.
    pub fn global_addr(&self, idx: usize) -> u32 {
        self.global_base[idx]
    }

    /// Current stack pointer (for frame save/restore).
    pub fn stack_mark(&self) -> u32 {
        self.stack_ptr
    }

    /// Restores the stack pointer to a previous mark (function return).
    pub fn stack_release(&mut self, mark: u32) {
        debug_assert!(mark >= self.stack_base && mark <= self.stack_ptr);
        self.stack_ptr = mark;
    }

    /// Allocates `bytes` (8-byte aligned) on the stack; returns the address.
    pub fn alloca(&mut self, bytes: u32) -> Result<u32> {
        let addr = (self.stack_ptr + 7) & !7;
        let end = addr as u64 + bytes as u64;
        if end > self.size as u64 {
            return Err(Error::Vm(format!(
                "stack overflow: alloca of {bytes} bytes at {addr:#x}"
            )));
        }
        self.stack_ptr = end as u32;
        if end as usize > self.bytes.len() {
            self.back(end as usize);
        }
        Ok(addr)
    }

    /// Extends the backed prefix to at least `end` bytes, at least
    /// doubling it (capped at the memory size) so a growing stack is
    /// backed in amortized constant time.
    #[cold]
    fn back(&mut self, end: usize) {
        let len = end.max(2 * self.bytes.len()).min(self.size as usize);
        self.bytes.resize(len, 0);
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize> {
        if addr < NULL_GUARD {
            return Err(Error::Vm(format!("null-page access at {addr:#x}")));
        }
        let end = addr as u64 + len as u64;
        if end > self.size as u64 {
            return Err(Error::Vm(format!(
                "out-of-bounds access at {addr:#x}+{len} (mem size {:#x})",
                self.size
            )));
        }
        Ok(addr as usize)
    }

    /// Loads the `len <= 8` bytes at `addr`, little-endian. The fast path
    /// is one null-guard and one bounds test against the backed prefix,
    /// which lies inside the memory, so passing it implies passing
    /// [`Memory::check`]. The slow path takes only scalars, so the fast
    /// path's buffer stays in registers.
    #[inline(always)]
    fn load_raw(&self, addr: u32, len: usize) -> Result<u64> {
        if addr >= NULL_GUARD {
            let at = addr as usize;
            if let Some(src) = self.bytes.get(at..at + len) {
                let mut buf = [0u8; 8];
                buf[..len].copy_from_slice(src);
                return Ok(u64::from_le_bytes(buf));
            }
        }
        self.load_slow(addr, len)
    }

    /// A load that faults or reaches past the backed prefix, where every
    /// byte is zero.
    #[cold]
    fn load_slow(&self, addr: u32, len: usize) -> Result<u64> {
        let at = self.check(addr, len as u32)?;
        let backed = self.bytes.get(at..).unwrap_or_default();
        let n = backed.len().min(len);
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(&backed[..n]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores the low `len <= 8` bytes of `raw` at `addr`, with the same
    /// fast path as [`Memory::load_raw`].
    #[inline(always)]
    fn store_raw(&mut self, addr: u32, raw: u64, len: usize) -> Result<()> {
        if addr >= NULL_GUARD {
            let at = addr as usize;
            if let Some(dst) = self.bytes.get_mut(at..at + len) {
                dst.copy_from_slice(&raw.to_le_bytes()[..len]);
                return Ok(());
            }
        }
        self.store_slow(addr, raw, len)
    }

    /// A store that faults or reaches past the backed prefix, which then
    /// grows to cover it.
    #[cold]
    fn store_slow(&mut self, addr: u32, raw: u64, len: usize) -> Result<()> {
        let at = self.check(addr, len as u32)?;
        self.back(at + len);
        self.bytes[at..at + len].copy_from_slice(&raw.to_le_bytes()[..len]);
        Ok(())
    }

    /// Fixed-width raw load for the fast tier: a compile-time `N` lets the
    /// copy lower to a single machine load instead of a variable-length
    /// `memcpy`. Same bounds/null checks and little-endian packing as
    /// [`Memory::load`].
    #[inline(always)]
    pub(crate) fn load_bytes<const N: usize>(&self, addr: u32) -> Result<u64> {
        self.load_raw(addr, N)
    }

    /// Fixed-width raw store, the counterpart of [`Memory::load_bytes`].
    #[inline(always)]
    pub(crate) fn store_bytes<const N: usize>(&mut self, addr: u32, raw: u64) -> Result<()> {
        self.store_raw(addr, raw, N)
    }

    /// Typed load.
    pub fn load(&self, ty: Type, addr: u32) -> Result<Value> {
        let raw = self.load_raw(addr, ty.byte_size().max(1) as usize)?;
        Ok(match ty {
            Type::F32 => Value::F(f32::from_bits(raw as u32) as f64),
            Type::F64 => Value::F(f64::from_bits(raw)),
            t => Value::I(t.sext(raw)),
        })
    }

    /// Typed store.
    pub fn store(&mut self, ty: Type, addr: u32, v: Value) -> Result<()> {
        let size = ty.byte_size().max(1);
        let raw: u64 = match (ty, v) {
            (Type::F32, Value::F(x)) => (x as f32).to_bits() as u64,
            (Type::F64, Value::F(x)) => x.to_bits(),
            (t, Value::I(x)) => t.trunc(x),
            (t, v) => {
                // A faulting address is reported before the mismatch.
                self.check(addr, size)?;
                return Err(Error::Vm(format!("store type mismatch: {t} <- {v:?}")));
            }
        };
        self.store_raw(addr, raw, size as usize)
    }

    /// Total memory size in bytes.
    pub fn size(&self) -> usize {
        self.size as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::Global;

    fn mem_with_globals() -> (Memory, Module) {
        let mut m = Module::new("t");
        m.add_global(Global::of_i32("a", &[10, 20, 30]));
        m.add_global(Global::of_f64("b", &[1.5]));
        (Memory::for_module(&m, 4096), m)
    }

    #[test]
    fn globals_initialized_and_aligned() {
        let (mem, _) = mem_with_globals();
        let a = mem.global_addr(0);
        let b = mem.global_addr(1);
        assert!(a >= NULL_GUARD);
        assert_eq!(b % 8, 0);
        assert_eq!(mem.load(Type::I32, a).unwrap(), Value::I(10));
        assert_eq!(mem.load(Type::I32, a + 8).unwrap(), Value::I(30));
        assert_eq!(mem.load(Type::F64, b).unwrap(), Value::F(1.5));
    }

    #[test]
    fn store_load_roundtrip_all_types() {
        let (mut mem, _) = mem_with_globals();
        let p = mem.alloca(64).unwrap();
        for (ty, v) in [
            (Type::I8, Value::I(-5)),
            (Type::I16, Value::I(1234)),
            (Type::I32, Value::I(-100_000)),
            (Type::I64, Value::I(i64::MIN / 3)),
            (Type::F32, Value::F(1.5)),
            (Type::F64, Value::F(-2.25e10)),
        ] {
            mem.store(ty, p, v).unwrap();
            assert_eq!(mem.load(ty, p).unwrap(), v, "type {ty}");
        }
    }

    #[test]
    fn narrow_store_sign_semantics() {
        let (mut mem, _) = mem_with_globals();
        let p = mem.alloca(8).unwrap();
        mem.store(Type::I8, p, Value::I(0x1ff)).unwrap();
        // Load back sign-extended: 0xff -> -1.
        assert_eq!(mem.load(Type::I8, p).unwrap(), Value::I(-1));
    }

    #[test]
    fn null_access_faults() {
        let (mem, _) = mem_with_globals();
        assert!(mem.load(Type::I32, 0).is_err());
        assert!(mem.load(Type::I32, 100).is_err());
    }

    #[test]
    fn out_of_bounds_faults() {
        let (mut mem, _) = mem_with_globals();
        let sz = mem.size() as u32;
        assert!(mem.load(Type::I64, sz - 4).is_err());
        assert!(mem.store(Type::I8, sz, Value::I(0)).is_err());
    }

    #[test]
    fn stack_frames_release() {
        let (mut mem, _) = mem_with_globals();
        let mark = mem.stack_mark();
        let p1 = mem.alloca(100).unwrap();
        let _p2 = mem.alloca(100).unwrap();
        mem.stack_release(mark);
        let p3 = mem.alloca(100).unwrap();
        assert_eq!(p1, p3, "stack space must be reused after release");
    }

    #[test]
    fn unbacked_memory_reads_as_zero() {
        let (_, m) = mem_with_globals();
        let mut mem = Memory::for_module(&m, 1 << 20);
        let p = mem.alloca(1 << 16).unwrap();
        // The alloca backed the stack through its end, not the whole 1 MB.
        let backed = mem.bytes.len() as u32;
        assert!(backed >= p + (1 << 16) && backed < 1 << 20);
        mem.store(Type::I8, p + 100, Value::I(-1)).unwrap();
        // Loads inside, across and past the end of the backed prefix see
        // the store and zeros around it.
        for addr in [
            p + 96,
            p + 3000,
            backed - 4,
            backed - 1,
            backed,
            backed + 4096,
        ] {
            let want = if addr <= p + 100 && p + 100 < addr + 8 {
                0xff << (8 * (p + 100 - addr))
            } else {
                0
            };
            assert_eq!(
                mem.load(Type::I64, addr).unwrap(),
                Value::I(want),
                "at {addr:#x}"
            );
        }
        // A store straddling the end grows the backed prefix.
        mem.store(Type::I32, backed - 2, Value::I(0x0403_0201))
            .unwrap();
        assert!(mem.bytes.len() as u32 > backed);
        assert_eq!(
            mem.load(Type::I32, backed - 2).unwrap(),
            Value::I(0x0403_0201)
        );
        assert_eq!(mem.load(Type::I8, p + 100).unwrap(), Value::I(-1));
    }

    #[test]
    fn stack_overflow_detected() {
        let (mut mem, _) = mem_with_globals();
        assert!(mem.alloca(1 << 30).is_err());
    }
}
