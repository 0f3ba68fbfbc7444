//! The core ↔ memory-system interface.
//!
//! A [`SystemBus`] is what the SoC composition layer (`l15-soc`) plugs into
//! each core: instruction fetches and data accesses flow through it into the
//! L1 / L1.5 / L2 / DRAM hierarchy, and the five L1.5 control operations —
//! separated from loads/stores by the Mini-Decoder at the MA stage (Fig. 3
//! ⓑ) — hit its dedicated control-port methods.
//!
//! Addresses arrive **pre-translated**: the core passes both the virtual
//! address (for the L1.5's virtual index) and the physical address (for
//! tags), mirroring how the IPU combines the virtual index with the TLB's
//! physical tag (Fig. 3 ⓐ).

use crate::isa::{self, Instr, L15Op};

/// Result of a load through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The loaded value (zero-extended to 32 bits).
    pub value: u32,
    /// Cycles the access occupied the memory pipeline.
    pub cycles: u32,
    /// Whether the data was served by the L1.5 (enables the EX-stage
    /// forwarding channel of Fig. 3 ⓓ).
    pub from_l15: bool,
}

/// Result of an instruction fetch: the word and what it decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// The raw instruction word.
    pub word: u32,
    /// Cycles the fetch occupied the memory pipeline.
    pub cycles: u32,
    /// [`isa::decode`] of `word`; `None` when it is not a legal instruction.
    pub instr: Option<Instr>,
}

/// Result of an L1.5 control operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlAccess {
    /// Value returned to `rd` (for `supply`/`gv_get`; 0 otherwise).
    pub value: u32,
    /// Cycles the control port was occupied.
    pub cycles: u32,
}

/// The memory system as seen by one core.
pub trait SystemBus {
    /// Fetches and decodes the 32-bit instruction at `paddr` (virtual
    /// `vaddr`). A bus may decode a word once and serve it many times, as
    /// long as what it returns always equals decoding the word a fetch
    /// reads now.
    fn fetch(&mut self, core: usize, vaddr: u32, paddr: u32) -> Fetched;

    /// Loads `size` bytes (1, 2 or 4) at `paddr`, zero-extended.
    fn load(&mut self, core: usize, vaddr: u32, paddr: u32, size: u32) -> MemAccess;

    /// Stores the low `size` bytes of `value` at `paddr`. Returns the cycle
    /// cost.
    fn store(&mut self, core: usize, vaddr: u32, paddr: u32, size: u32, value: u32) -> u32;

    /// Executes one L1.5 control operation (`demand`/`supply`/`gv_set`/
    /// `gv_get`/`ip_set`) for `core` with operand `arg` (a way count for
    /// `demand`, a bitmap for `gv_set`, a policy selector for `ip_set`).
    fn l15_ctrl(&mut self, core: usize, op: L15Op, arg: u32) -> CtrlAccess;

    // The private side (`Core::step_private`): each answers only if the access
    // touches `core`'s own state alone, else returns `None` **having changed
    // nothing**. By default, never.

    /// What [`fetch`](Self::fetch) would return, uncounted until
    /// [`fetch_commit`](Self::fetch_commit) (the instruction retired).
    fn fetch_peek(&self, _core: usize, _paddr: u32) -> Option<Fetched> {
        None
    }

    /// Counts the fetch last peeked for `core` as `fetch` would have.
    fn fetch_commit(&mut self, _core: usize) {}

    /// [`load`](Self::load), if `core`'s own first-level cache serves it.
    fn load_private(&mut self, _core: usize, _paddr: u32, _size: u32) -> Option<MemAccess> {
        None
    }

    /// [`store`](Self::store), if it ends in `core`'s own first-level cache.
    fn store_private(&mut self, _core: usize, _paddr: u32, _size: u32, _value: u32) -> Option<u32> {
        None
    }
}

/// A flat, fixed-latency bus for unit tests and bare-metal program tests:
/// one memory array, no caches, L1.5 control ops are accepted but inert.
#[derive(Debug, Clone)]
pub struct FlatBus {
    mem: Vec<u8>,
    latency: u32,
}

impl FlatBus {
    /// Creates a flat bus backed by `size` bytes of zeroed memory.
    pub fn new(size: usize, latency: u32) -> Self {
        FlatBus { mem: vec![0; size], latency }
    }

    /// Loads a program (32-bit words) at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn load_program(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let a = addr as usize + i * 4;
            self.mem[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reads a 32-bit word (test inspection).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.mem[a..a + 4].try_into().expect("in range"))
    }

    /// Writes a 32-bit word (test setup).
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let a = addr as usize;
        self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn read_bytes(&self, addr: u32, size: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..size {
            v |= (self.mem[(addr + i) as usize] as u32) << (8 * i);
        }
        v
    }
}

impl SystemBus for FlatBus {
    fn fetch(&mut self, _core: usize, _vaddr: u32, paddr: u32) -> Fetched {
        let word = self.read_bytes(paddr, 4);
        Fetched { word, cycles: self.latency, instr: isa::decode(word).ok() }
    }

    fn load(&mut self, _core: usize, _vaddr: u32, paddr: u32, size: u32) -> MemAccess {
        MemAccess { value: self.read_bytes(paddr, size), cycles: self.latency, from_l15: false }
    }

    fn store(&mut self, _core: usize, _vaddr: u32, paddr: u32, size: u32, value: u32) -> u32 {
        for i in 0..size {
            self.mem[(paddr + i) as usize] = (value >> (8 * i)) as u8;
        }
        self.latency
    }

    fn l15_ctrl(&mut self, _core: usize, _op: L15Op, _arg: u32) -> CtrlAccess {
        CtrlAccess { value: 0, cycles: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatbus_roundtrip() {
        let mut b = FlatBus::new(1024, 1);
        b.write_u32(0x10, 0xdead_beef);
        assert_eq!(b.read_u32(0x10), 0xdead_beef);
        let a = b.load(0, 0x10, 0x10, 4);
        assert_eq!(a.value, 0xdead_beef);
        assert!(!a.from_l15);
        let a = b.load(0, 0x10, 0x10, 2);
        assert_eq!(a.value, 0xbeef);
    }

    #[test]
    fn flatbus_store_sizes() {
        let mut b = FlatBus::new(64, 1);
        b.store(0, 0, 0, 4, 0x1122_3344);
        b.store(0, 0, 0, 1, 0xff);
        assert_eq!(b.read_u32(0), 0x1122_33ff);
    }

    #[test]
    fn program_loading() {
        let mut b = FlatBus::new(64, 1);
        b.load_program(0, &[1, 2, 3]);
        assert_eq!(b.read_u32(4), 2);
        let f = b.fetch(0, 8, 8);
        assert_eq!((f.word, f.instr), (3, isa::decode(3).ok()));
    }
}
