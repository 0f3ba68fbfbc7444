//! Address decomposition and way bitmaps.

use std::fmt;

use crate::CacheError;

/// A bitmap over cache ways (bit `i` = way `i`), as used by the paper's
/// compacted ISA parameters (e.g. `gv_set 0x42` marks ways 1 and 6).
///
/// Supports up to 64 ways, far above the paper's `ζ = 16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WayMask(pub u64);

impl WayMask {
    /// The empty mask.
    pub const EMPTY: WayMask = WayMask(0);

    /// Mask with the lowest `n` ways set.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= 64, "WayMask supports at most 64 ways");
        if n == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << n) - 1)
        }
    }

    /// Mask with only `way` set.
    ///
    /// # Panics
    ///
    /// Panics if `way >= 64`.
    pub fn single(way: usize) -> Self {
        assert!(way < 64, "WayMask supports at most 64 ways");
        WayMask(1u64 << way)
    }

    /// Whether `way` is contained.
    pub fn contains(self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Inserts `way`.
    pub fn insert(&mut self, way: usize) {
        assert!(way < 64, "WayMask supports at most 64 ways");
        self.0 |= 1u64 << way;
    }

    /// Removes `way`.
    pub fn remove(&mut self, way: usize) {
        if way < 64 {
            self.0 &= !(1u64 << way);
        }
    }

    /// Number of ways set.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no way is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union.
    pub fn union(self, other: WayMask) -> WayMask {
        WayMask(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(self, other: WayMask) -> WayMask {
        WayMask(self.0 & other.0)
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(self, other: WayMask) -> WayMask {
        WayMask(self.0 & !other.0)
    }

    /// Iterates over the contained way indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let way = WayMask(bits).lowest()?;
            bits &= bits - 1;
            Some(way)
        })
    }

    /// The lowest contained way, if any.
    pub fn lowest(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl FromIterator<usize> for WayMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut m = WayMask::EMPTY;
        for w in iter {
            m.insert(w);
        }
        m
    }
}

impl From<u64> for WayMask {
    fn from(bits: u64) -> Self {
        WayMask(bits)
    }
}

/// Geometry of a set-associative cache: line size, set count and way count.
///
/// Line size and set count must be powers of two so index/tag extraction is a
/// pure bit slice, as in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    line_bytes: u64,
    sets: u64,
    ways: usize,
}

impl Geometry {
    /// Creates a geometry with `line_bytes` per line, `sets` sets and `ways`
    /// ways.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] if any parameter is zero, if
    /// `line_bytes`/`sets` are not powers of two, or if `ways > 64`.
    pub fn new(line_bytes: u64, sets: u64, ways: usize) -> Result<Self, CacheError> {
        let pow2 = |name: &'static str, v: u64| -> Result<(), CacheError> {
            if v == 0 || !v.is_power_of_two() {
                Err(CacheError::BadGeometry {
                    name,
                    reason: format!("must be a non-zero power of two, got {v}"),
                })
            } else {
                Ok(())
            }
        };
        pow2("line_bytes", line_bytes)?;
        pow2("sets", sets)?;
        if ways == 0 || ways > 64 {
            return Err(CacheError::BadGeometry {
                name: "ways",
                reason: format!("must be in 1..=64, got {ways}"),
            });
        }
        Ok(Geometry { line_bytes, sets, ways })
    }

    /// Convenience: derive the set count from a total capacity.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] if the capacity is not an exact
    /// multiple of `ways · line_bytes` or the derived set count is not a
    /// power of two.
    pub fn from_capacity(
        total_bytes: u64,
        line_bytes: u64,
        ways: usize,
    ) -> Result<Self, CacheError> {
        if ways == 0 || line_bytes == 0 || !total_bytes.is_multiple_of(ways as u64 * line_bytes) {
            return Err(CacheError::BadGeometry {
                name: "total_bytes",
                reason: format!(
                    "{total_bytes} is not divisible by ways({ways}) * line_bytes({line_bytes})"
                ),
            });
        }
        Geometry::new(line_bytes, total_bytes / (ways as u64 * line_bytes), ways)
    }

    /// Bytes per line.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_bytes * self.sets * self.ways as u64
    }

    /// Set index of `addr` (the "virtual index" when `addr` is virtual).
    pub fn index_of(&self, addr: u64) -> u64 {
        // Both are powers of two: shifts, not divisions, on the probe path.
        (addr >> self.line_bytes.trailing_zeros()) & (self.sets - 1)
    }

    /// Tag of `addr` (the "physical tag" when `addr` is physical).
    pub fn tag_of(&self, addr: u64) -> u64 {
        let shift = self.line_bytes.trailing_zeros() + self.sets.trailing_zeros();
        addr.checked_shr(shift).unwrap_or(0)
    }

    /// Byte offset of `addr` within its line.
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr & (self.line_bytes - 1)
    }

    /// Base address of the line containing `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Reconstructs a line base address from `(tag, index)`.
    pub fn addr_of(&self, tag: u64, index: u64) -> u64 {
        (tag * self.sets + index) * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waymask_basics() {
        let mut m = WayMask::first_n(3);
        assert_eq!(m.count(), 3);
        assert!(m.contains(0) && m.contains(2) && !m.contains(3));
        m.insert(7);
        m.remove(0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 2, 7]);
        assert_eq!(m.lowest(), Some(1));
        assert_eq!(WayMask::EMPTY.lowest(), None);
        assert_eq!(format!("{m}"), "0x86");
    }

    #[test]
    fn waymask_set_ops() {
        let a = WayMask::from(0b1100u64);
        let b = WayMask::from(0b1010u64);
        assert_eq!(a.union(b), WayMask::from(0b1110u64));
        assert_eq!(a.intersect(b), WayMask::from(0b1000u64));
        assert_eq!(a.difference(b), WayMask::from(0b0100u64));
    }

    #[test]
    fn waymask_paper_example() {
        // "to set cache ways 2 and 7 to be globally visible, 0x42 is sent" —
        // note the paper's 0x42 sets bits 1 and 6; with 0-indexed ways the
        // mask for ways {1, 6} is 0x42.
        let m: WayMask = [1usize, 6].into_iter().collect();
        assert_eq!(m.0, 0x42);
    }

    #[test]
    fn waymask_full_64() {
        let m = WayMask::first_n(64);
        assert_eq!(m.count(), 64);
        assert!(m.contains(63));
    }

    #[test]
    fn geometry_decomposition_roundtrip() {
        let g = Geometry::new(64, 32, 2).unwrap();
        assert_eq!(g.capacity_bytes(), 4096);
        let addr = 0x8000_1234u64;
        let tag = g.tag_of(addr);
        let idx = g.index_of(addr);
        let base = g.line_base(addr);
        assert_eq!(g.addr_of(tag, idx), base);
        assert_eq!(g.offset_of(addr), addr - base);
    }

    #[test]
    fn geometry_rejects_bad_params() {
        assert!(Geometry::new(0, 32, 2).is_err());
        assert!(Geometry::new(63, 32, 2).is_err());
        assert!(Geometry::new(64, 31, 2).is_err());
        assert!(Geometry::new(64, 32, 0).is_err());
        assert!(Geometry::new(64, 32, 65).is_err());
    }

    #[test]
    fn geometry_from_capacity() {
        // The paper's L1.5: 16 ways of 2 KiB = 32 KiB, 64-byte lines.
        let g = Geometry::from_capacity(32 * 1024, 64, 16).unwrap();
        assert_eq!(g.sets(), 32);
        assert_eq!(g.capacity_bytes(), 32 * 1024);
        assert!(Geometry::from_capacity(32 * 1024 + 1, 64, 16).is_err());
    }

    #[test]
    fn adjacent_lines_map_to_adjacent_sets() {
        let g = Geometry::new(64, 32, 4).unwrap();
        assert_eq!(g.index_of(0), 0);
        assert_eq!(g.index_of(64), 1);
        assert_eq!(g.index_of(64 * 32), 0); // wraps around
        assert_ne!(g.tag_of(0), g.tag_of(64 * 32));
    }
}
