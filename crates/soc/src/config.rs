//! SoC configuration mirroring the paper's experimental platform (Sec. 5):
//! 8/16/32-core SoCs organised as clusters of four cores, each core with 4 KiB
//! L1 I/D caches (1–2 cycles), one L1.5 per cluster (16 × 2 KiB ways, 2–8
//! cycles), a shared 512 KiB L2 (15–25 cycles) and external memory.

use std::error::Error;
use std::fmt;

use l15_cache::l15::L15Config;
pub use l15_cache::PORT_WAYS;
use l15_cache::{CacheError, Geometry};

/// Geometry + latency of one conventional cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Minimum hit latency (cycles).
    pub lat_min: u32,
    /// Maximum hit latency (cycles).
    pub lat_max: u32,
}

impl LevelConfig {
    /// The level as a set-associative array (the set count derived from the
    /// capacity), once its latency band is checked.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] for an inverted latency band or
    /// a capacity, line size or way count [`Geometry::from_capacity`]
    /// rejects.
    pub fn geometry(&self) -> Result<Geometry, CacheError> {
        if self.lat_min > self.lat_max {
            return Err(CacheError::BadGeometry {
                name: "lat_min",
                reason: format!("latency band inverted: {} > {}", self.lat_min, self.lat_max),
            });
        }
        Geometry::from_capacity(self.capacity, self.line_bytes, self.ways)
    }
}

/// Why [`SocConfig::validate`] rejects a configuration: the field it
/// blames and the bound that field breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field of [`SocConfig`], dotted (`"l15.ways"`); a
    /// whole level (`"l1d"`) when its geometry as a whole is invalid.
    pub field: &'static str,
    /// The bound it breaks.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SoC configuration: `{}` {}", self.field, self.reason)
    }
}

impl Error for ConfigError {}

/// Full SoC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Number of computing clusters (2 → 8 cores, 4 → 16 cores).
    pub clusters: usize,
    /// Cores per cluster (the paper: 4).
    pub cores_per_cluster: usize,
    /// Per-core L1 instruction cache.
    pub l1i: LevelConfig,
    /// Per-core L1 data cache.
    pub l1d: LevelConfig,
    /// The L1.5 cache per cluster; `None` builds a legacy system without it
    /// (the CMP baselines).
    pub l15: Option<L15Config>,
    /// Shared L2.
    pub l2: LevelConfig,
    /// External memory latency (cycles per line).
    pub mem_latency: u32,
}

impl SocConfig {
    /// The paper's proposed 8-core system (2 clusters × 4 cores, with L1.5).
    pub fn proposed_8core() -> Self {
        SocConfig {
            clusters: 2,
            cores_per_cluster: 4,
            l1i: LevelConfig {
                capacity: 4 * 1024,
                ways: 2,
                line_bytes: 64,
                lat_min: 1,
                lat_max: 2,
            },
            l1d: LevelConfig {
                capacity: 4 * 1024,
                ways: 2,
                line_bytes: 64,
                lat_min: 1,
                lat_max: 2,
            },
            l15: Some(L15Config::default()),
            l2: LevelConfig {
                capacity: 512 * 1024,
                ways: 8,
                line_bytes: 64,
                lat_min: 15,
                lat_max: 25,
            },
            mem_latency: 100,
        }
    }

    /// The paper's proposed 16-core system (4 clusters × 4 cores).
    pub fn proposed_16core() -> Self {
        SocConfig { clusters: 4, ..Self::proposed_8core() }
    }

    /// A legacy CMP|L1-style system: no L1.5; the L1 capacity is increased
    /// so the total cache size matches the proposed system (paper Sec. 5:
    /// "the L1 and L2 capacity was increased to ensure that the total cache
    /// size was equivalent").
    pub fn cmp_l1_8core() -> Self {
        let mut cfg = Self::proposed_8core();
        cfg.l15 = None;
        // 32 KiB of L1.5 per 4-core cluster = +8 KiB L1D per core.
        cfg.l1d.capacity += 8 * 1024;
        cfg.l1d.ways = 6;
        cfg
    }

    /// A legacy CMP|L2-style system: no L1.5; the L2 grows instead
    /// (576 KiB = 9 ways × 1024 sets × 64 B for two clusters' worth of
    /// L1.5 capacity).
    pub fn cmp_l2_8core() -> Self {
        let mut cfg = Self::proposed_8core();
        let clusters = cfg.clusters as u64;
        cfg.l15 = None;
        cfg.l2.capacity += clusters * 32 * 1024;
        // Keep the set count a power of two by absorbing the extra
        // capacity into associativity.
        cfg.l2.ways = (cfg.l2.capacity / (cfg.l2.line_bytes * 1024)) as usize;
        cfg
    }

    /// CMP|L1 at 16 cores (capacity-equalised).
    pub fn cmp_l1_16core() -> Self {
        SocConfig { clusters: 4, ..Self::cmp_l1_8core() }
    }

    /// CMP|L2 at 16 cores: four clusters' worth of L1.5 capacity folded
    /// into the L2 (640 KiB = 10 ways x 1024 sets x 64 B).
    pub fn cmp_l2_16core() -> Self {
        let mut cfg = Self::proposed_16core();
        let clusters = cfg.clusters as u64;
        cfg.l15 = None;
        cfg.l2.capacity += clusters * 32 * 1024;
        cfg.l2.ways = (cfg.l2.capacity / (cfg.l2.line_bytes * 1024)) as usize;
        cfg
    }

    /// The proposed system scaled to 32 cores (8 clusters × 4 cores): the
    /// many-core point of the cluster sweeps. Each cluster keeps the
    /// paper's 32 KiB L1.5; only the cluster count grows.
    pub fn proposed_32core() -> Self {
        SocConfig { clusters: 8, ..Self::proposed_8core() }
    }

    /// CMP|L1 at 32 cores (capacity-equalised, no L1.5).
    pub fn cmp_l1_32core() -> Self {
        SocConfig { clusters: 8, ..Self::cmp_l1_8core() }
    }

    /// CMP|L2 at 32 cores: eight clusters' worth of L1.5 capacity folded
    /// into the L2 (768 KiB = 12 ways x 1024 sets x 64 B).
    pub fn cmp_l2_32core() -> Self {
        let mut cfg = Self::proposed_32core();
        let clusters = cfg.clusters as u64;
        cfg.l15 = None;
        cfg.l2.capacity += clusters * 32 * 1024;
        cfg.l2.ways = (cfg.l2.capacity / (cfg.l2.line_bytes * 1024)) as usize;
        cfg
    }

    /// The named derived presets, for callers that select a configuration
    /// from untrusted text (the `l15-serve` `/simulate` endpoint, CLI
    /// tools): `(name, constructor)` in a stable, documented order.
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "proposed_8core",
            "proposed_16core",
            "cmp_l1_8core",
            "cmp_l2_8core",
            "cmp_l1_16core",
            "cmp_l2_16core",
            "proposed_32core",
            "cmp_l1_32core",
            "cmp_l2_32core",
        ]
    }

    /// Looks a derived preset up by its [`Self::preset_names`] name.
    pub fn preset(name: &str) -> Option<SocConfig> {
        match name {
            "proposed_8core" => Some(Self::proposed_8core()),
            "proposed_16core" => Some(Self::proposed_16core()),
            "cmp_l1_8core" => Some(Self::cmp_l1_8core()),
            "cmp_l2_8core" => Some(Self::cmp_l2_8core()),
            "cmp_l1_16core" => Some(Self::cmp_l1_16core()),
            "cmp_l2_16core" => Some(Self::cmp_l2_16core()),
            "proposed_32core" => Some(Self::proposed_32core()),
            "cmp_l1_32core" => Some(Self::cmp_l1_32core()),
            "cmp_l2_32core" => Some(Self::cmp_l2_32core()),
            _ => None,
        }
    }

    /// Checks every field against what the engine can build and the L1.5
    /// control port can address. Callers that turn outside input into a
    /// configuration call it once; the engine itself does not, and every
    /// [`preset`](Self::preset) passes it.
    ///
    /// # Errors
    ///
    /// The first offending field, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |field, reason: String| Err(ConfigError { field, reason });
        for (field, value) in
            [("clusters", self.clusters), ("cores_per_cluster", self.cores_per_cluster)]
        {
            if value == 0 {
                return bad(field, "must be at least 1, got 0".to_owned());
            }
        }
        // Core ids travel as `u32` (trace events, the hart id).
        let cores = self.clusters.checked_mul(self.cores_per_cluster);
        if cores.is_none_or(|n| u32::try_from(n).is_err()) {
            let reason = format!(
                "{} per cluster on {} clusters is 2^32 cores or more",
                self.cores_per_cluster, self.clusters
            );
            return bad("cores_per_cluster", reason);
        }
        for (field, level) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            if let Err(e) = level.geometry() {
                return bad(field, e.to_string());
            }
        }
        let l2 = self.l2.line_bytes;
        let l15_line = self.l15.map(|c| ("l15.line_bytes", c.line_bytes));
        for (field, line_bytes) in
            [("l1i.line_bytes", self.l1i.line_bytes), ("l1d.line_bytes", self.l1d.line_bytes)]
                .into_iter()
                .chain(l15_line)
        {
            if line_bytes != l2 {
                return bad(field, format!("is {line_bytes} but the L2's line is {l2} bytes"));
            }
        }
        if let Some(l15) = self.l15 {
            if !(1..=PORT_WAYS).contains(&l15.ways) {
                let reason = format!(
                    "must be in 1..={PORT_WAYS} (one RV32 way-mask register), got {}",
                    l15.ways
                );
                return bad("l15.ways", reason);
            }
            // Each cluster's L1.5 serves that cluster's cores.
            if let Err(e) = (L15Config { cores: self.cores_per_cluster, ..l15 }).geometry() {
                return bad("l15", e.to_string());
            }
        }
        Ok(())
    }

    /// Per-cluster L1.5 capacity in bytes (zero without an L1.5). The
    /// paper's configuration: 16 ways × 2 KiB = 32 KiB, the budget the
    /// CMP|L1 / CMP|L2 presets fold into conventional levels.
    pub fn l15_bytes_per_cluster(&self) -> u64 {
        self.l15.map(|c| c.way_bytes * c.ways as u64).unwrap_or(0)
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// Total cache capacity (all levels, all cores) in bytes — used to check
    /// the capacity-equalisation constraint between compared systems.
    pub fn total_cache_bytes(&self) -> u64 {
        let cores = self.total_cores() as u64;
        let l15 = self.l15.map(|c| c.way_bytes * c.ways as u64 * self.clusters as u64).unwrap_or(0);
        cores * (self.l1i.capacity + self.l1d.capacity) + l15 + self.l2.capacity
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        Self::proposed_8core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_configs() {
        let c8 = SocConfig::proposed_8core();
        assert_eq!(c8.total_cores(), 8);
        let c16 = SocConfig::proposed_16core();
        assert_eq!(c16.total_cores(), 16);
        assert!(c16.l15.is_some());
    }

    #[test]
    fn capacity_equalisation_holds_at_16_cores() {
        let prop = SocConfig::proposed_16core();
        let l1 = SocConfig::cmp_l1_16core();
        let l2 = SocConfig::cmp_l2_16core();
        assert_eq!(prop.total_cores(), 16);
        assert_eq!(l1.total_cores(), 16);
        assert_eq!(prop.total_cache_bytes(), l1.total_cache_bytes());
        assert_eq!(prop.total_cache_bytes(), l2.total_cache_bytes());
        // Geometries must build.
        let _ = crate::uncore::Uncore::new(l1);
        let _ = crate::uncore::Uncore::new(l2);
    }

    #[test]
    fn preset_registry_is_complete_and_consistent() {
        for &name in SocConfig::preset_names() {
            let cfg = SocConfig::preset(name).expect("every listed preset resolves");
            assert!(matches!(cfg.total_cores(), 8 | 16 | 32), "{name}");
            // The derived CMP presets drop the L1.5; the proposed keep it.
            assert_eq!(cfg.l15.is_some(), name.starts_with("proposed"), "{name}");
        }
        assert!(SocConfig::preset("bogus").is_none());
        assert!(SocConfig::preset("").is_none());
    }

    #[test]
    fn every_preset_validates() {
        for &name in SocConfig::preset_names() {
            assert_eq!(SocConfig::preset(name).unwrap().validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn validate_names_the_field_it_rejects() {
        let base = SocConfig::proposed_8core;
        let with_l15 = |edit: fn(&mut L15Config)| {
            let mut cfg = base();
            cfg.l15.iter_mut().for_each(edit);
            cfg
        };
        let cases: [(SocConfig, &str); 14] = [
            (SocConfig { clusters: 0, ..base() }, "clusters"),
            (SocConfig { cores_per_cluster: 0, ..base() }, "cores_per_cluster"),
            (
                SocConfig { clusters: 1 << 16, cores_per_cluster: 1 << 16, ..base() },
                "cores_per_cluster",
            ),
            (SocConfig { cores_per_cluster: usize::MAX, ..base() }, "cores_per_cluster"),
            (SocConfig { l1i: LevelConfig { ways: 0, ..base().l1i }, ..base() }, "l1i"),
            (SocConfig { l1d: LevelConfig { capacity: 3000, ..base().l1d }, ..base() }, "l1d"),
            (SocConfig { l2: LevelConfig { lat_min: 30, ..base().l2 }, ..base() }, "l2"),
            (
                SocConfig { l1d: LevelConfig { line_bytes: 32, ..base().l1d }, ..base() },
                "l1d.line_bytes",
            ),
            (with_l15(|c| c.line_bytes = 32), "l15.line_bytes"),
            (with_l15(|c| c.ways = 0), "l15.ways"),
            (with_l15(|c| c.ways = PORT_WAYS + 1), "l15.ways"),
            (with_l15(|c| c.ways = 64), "l15.ways"),
            (with_l15(|c| c.way_bytes = 96), "l15"),
            (with_l15(|c| c.lat_max = 1), "l15"),
        ];
        for (cfg, field) in cases {
            let e = cfg.validate().expect_err(field);
            assert_eq!(e.field, field, "{e}");
            assert!(e.to_string().contains(&format!("`{field}`")), "{e}");
        }
        assert_eq!(with_l15(|c| c.ways = PORT_WAYS).validate(), Ok(()));
        assert_eq!(
            with_l15(|c| c.ways = 40).validate().unwrap_err().to_string(),
            "invalid SoC configuration: `l15.ways` must be in 1..=32 \
             (one RV32 way-mask register), got 40"
        );
    }

    #[test]
    fn cmp_l1_folds_the_cluster_l15_budget_into_private_l1d() {
        // The paper's per-cluster L1.5 budget is 16 ways × 2 KiB = 32 KiB.
        let prop = SocConfig::proposed_8core();
        assert_eq!(prop.l15_bytes_per_cluster(), 32 * 1024);

        // CMP|L1 spreads that budget over the cluster's 4 cores: each L1D
        // grows by 32 KiB / 4 = 8 KiB (4 → 12 KiB), associativity 2 → 6.
        for (cfg, name) in [
            (SocConfig::cmp_l1_8core(), "8core"),
            (SocConfig::cmp_l1_16core(), "16core"),
            (SocConfig::cmp_l1_32core(), "32core"),
        ] {
            let per_core = prop.l15_bytes_per_cluster() / prop.cores_per_cluster as u64;
            assert_eq!(per_core, 8 * 1024, "{name}");
            assert_eq!(cfg.l1d.capacity, prop.l1d.capacity + per_core, "{name}");
            assert_eq!(cfg.l1d.capacity, 12 * 1024, "{name}");
            assert_eq!(cfg.l1d.ways, 6, "{name}");
            // L1I is untouched; the budget goes to data caches only.
            assert_eq!(cfg.l1i, prop.l1i, "{name}");
        }
    }

    #[test]
    fn cmp_l2_folds_all_cluster_budgets_into_the_shared_l2() {
        // CMP|L2 grows the one shared L2 by clusters × 32 KiB, absorbing
        // the extra capacity into associativity so the set count stays a
        // power of two: 8c → 576 KiB = 9 ways × 1024 sets × 64 B,
        // 16c → 640 KiB = 10 ways × 1024 sets × 64 B,
        // 32c → 768 KiB = 12 ways × 1024 sets × 64 B.
        let cases = [
            (SocConfig::cmp_l2_8core(), 2u64, 576u64, 9usize),
            (SocConfig::cmp_l2_16core(), 4, 640, 10),
            (SocConfig::cmp_l2_32core(), 8, 768, 12),
        ];
        for (cfg, clusters, kib, ways) in cases {
            assert_eq!(cfg.clusters as u64, clusters);
            assert_eq!(cfg.l2.capacity, 512 * 1024 + clusters * 32 * 1024);
            assert_eq!(cfg.l2.capacity, kib * 1024);
            assert_eq!(cfg.l2.ways, ways);
            // ways × sets × line reconstructs the capacity exactly, with
            // sets = 1024 (a power of two).
            let sets = cfg.l2.capacity / (cfg.l2.ways as u64 * cfg.l2.line_bytes);
            assert_eq!(sets, 1024);
            assert_eq!(cfg.l2.ways as u64 * sets * cfg.l2.line_bytes, cfg.l2.capacity);
        }
    }

    #[test]
    fn l15_budget_per_cluster_is_constant_as_clusters_scale() {
        // The multi-cluster axis scales by replicating whole clusters: the
        // per-cluster L1.5 budget (32 KiB) never changes, and the folded
        // CMP budgets track the cluster count exactly.
        let presets = [
            (SocConfig::proposed_8core(), 2usize),
            (SocConfig::proposed_16core(), 4),
            (SocConfig::proposed_32core(), 8),
        ];
        for (cfg, clusters) in presets {
            assert_eq!(cfg.clusters, clusters);
            assert_eq!(cfg.cores_per_cluster, 4);
            assert_eq!(cfg.l15_bytes_per_cluster(), 32 * 1024);
        }
    }

    #[test]
    fn capacity_equalisation_holds_at_32_cores() {
        let prop = SocConfig::proposed_32core();
        let l1 = SocConfig::cmp_l1_32core();
        let l2 = SocConfig::cmp_l2_32core();
        assert_eq!(prop.total_cores(), 32);
        assert_eq!(prop.total_cache_bytes(), l1.total_cache_bytes());
        assert_eq!(prop.total_cache_bytes(), l2.total_cache_bytes());
        // Geometries must build.
        let _ = crate::uncore::Uncore::new(l1);
        let _ = crate::uncore::Uncore::new(l2);
    }

    #[test]
    fn capacity_equalisation_holds() {
        let prop = SocConfig::proposed_8core();
        let cmp_l1 = SocConfig::cmp_l1_8core();
        let cmp_l2 = SocConfig::cmp_l2_8core();
        assert_eq!(prop.total_cache_bytes(), cmp_l1.total_cache_bytes());
        assert_eq!(prop.total_cache_bytes(), cmp_l2.total_cache_bytes());
        assert!(cmp_l1.l15.is_none() && cmp_l2.l15.is_none());
    }
}
