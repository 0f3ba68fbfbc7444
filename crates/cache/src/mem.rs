//! Flat external memory with fixed access latency (the paper's
//! 4 GB @ 800 MHz DDR behind the L2).
//!
//! Backed by a sparse page map so a 32-bit address space costs memory only
//! for pages actually touched.

use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// The page holding `addr`, the offset of `addr` in it, and how many of
/// `len` bytes starting there stay inside that page.
fn page_span(addr: u64, len: usize) -> (u64, usize, usize) {
    let off = (addr as usize) & (PAGE_SIZE - 1);
    (addr >> PAGE_BITS, off, len.min(PAGE_SIZE - off))
}

/// Sparse main-memory model.
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    latency: u32,
}

impl MainMemory {
    /// Creates an empty memory with the given fixed access `latency`
    /// (cycles per line transfer).
    pub fn new(latency: u32) -> Self {
        MainMemory { pages: HashMap::new(), latency }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Reads `buf.len()` bytes starting at `addr`. Unwritten memory reads as
    /// zero.
    pub fn read(&self, mut addr: u64, mut buf: &mut [u8]) {
        while !buf.is_empty() {
            let (page, off, n) = page_span(addr, buf.len());
            let (head, rest) = buf.split_at_mut(n);
            match self.pages.get(&page) {
                Some(p) => head.copy_from_slice(&p[off..off + n]),
                None => head.fill(0),
            }
            addr = addr.wrapping_add(n as u64);
            buf = rest;
        }
    }

    /// Writes `data` starting at `addr`, allocating pages on demand.
    pub fn write(&mut self, mut addr: u64, mut data: &[u8]) {
        while !data.is_empty() {
            let (page, off, n) = page_span(addr, data.len());
            let (head, rest) = data.split_at(n);
            let p = self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[off..off + n].copy_from_slice(head);
            addr = addr.wrapping_add(n as u64);
            data = rest;
        }
    }

    /// Convenience: reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Convenience: writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Content fingerprint: FNV-1a over `(page index, bytes)` in page
    /// order. All-zero pages are skipped, so a page that was allocated but
    /// never given non-zero content hashes the same as an untouched one —
    /// two memories fingerprint equal iff every address reads equal.
    pub fn fingerprint(&self) -> u64 {
        // The loop is `l15_testkit::rng::fnv1a` written out: this is the
        // leaf crate, and `l15-testkit` is only a dev-dependency of it.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut keys: Vec<u64> =
            self.pages.iter().filter(|(_, p)| p.iter().any(|&b| b != 0)).map(|(&k, _)| k).collect();
        keys.sort_unstable();
        let mut h = OFFSET;
        for key in keys {
            for b in key.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            for &b in self.pages[&key].iter() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        h
    }

    /// Every byte that reads non-zero, as `(address, value)` pairs sorted
    /// by address — the flat-image diff surface of the fuzz harness. Two
    /// memories return equal vectors iff every address reads equal, so a
    /// mismatch pinpoints the first diverging byte (including writes to
    /// addresses the reference never touched).
    pub fn nonzero_bytes(&self) -> Vec<(u64, u8)> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for key in keys {
            let base = key << PAGE_BITS;
            for (off, &b) in self.pages[&key].iter().enumerate() {
                if b != 0 {
                    out.push((base + off as u64, b));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MainMemory::new(100);
        let mut b = [0xffu8; 8];
        m.read(0xdead_beef, &mut b);
        assert_eq!(b, [0; 8]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = MainMemory::new(100);
        m.write(0x1000, &[1, 2, 3, 4]);
        let mut b = [0u8; 4];
        m.read(0x1000, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new(100);
        let addr = (1 << PAGE_BITS) - 2; // straddles the first page boundary
        m.write(addr, &[9, 8, 7, 6]);
        let mut b = [0u8; 4];
        m.read(addr, &mut b);
        assert_eq!(b, [9, 8, 7, 6]);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn u32_helpers() {
        let mut m = MainMemory::new(1);
        m.write_u32(0x80, 0xdead_beef);
        assert_eq!(m.read_u32(0x80), 0xdead_beef);
    }

    #[test]
    fn fingerprint_is_content_based() {
        let mut a = MainMemory::new(1);
        let mut b = MainMemory::new(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.write_u32(0x40, 7);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.write_u32(0x40, 7);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Allocating a page with zeros does not change the fingerprint.
        b.write(0x9000, &[0, 0, 0, 0]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same byte at a different address differs.
        let mut c = MainMemory::new(1);
        c.write_u32(0x44, 7);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
