//! Hit/miss/fill counters shared by all cache levels.

/// Access statistics for one cache structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    fills: u64,
    writebacks: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one hit.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records `n` hits at once.
    pub fn record_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Records one miss.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Records one line fill.
    pub fn record_fill(&mut self) {
        self.fills += 1;
    }

    /// Records one dirty write-back to the next level.
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of fills.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Number of write-backs.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Total accesses (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.writebacks += other.writebacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::new();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        s.record_fill();
        s.record_writeback();
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.accesses(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(CacheStats::new().hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CacheStats::new();
        a.record_hit();
        let mut b = CacheStats::new();
        b.record_miss();
        b.record_fill();
        a.merge(&b);
        assert_eq!(a.hits(), 1);
        assert_eq!(a.misses(), 1);
        assert_eq!(a.fills(), 1);
    }
}
