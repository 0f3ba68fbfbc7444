//! `l15 area` regenerates the **Sec. 5.4 hardware-overhead comparison**:
//! post-layout area of the 16-core SoC with the L1.5 vs the
//! capacity-equalised conventional design, plus a sweep over way counts
//! (ablation).

use l15_area::{area_of, overhead_percent, L15Geometry, SocAreaSpec};
use l15_testkit::cli::Parsed;

use crate::Outcome;

pub fn run(_: &Parsed) -> Outcome {
    let prop = area_of(&SocAreaSpec::proposed_16core());
    let legacy = area_of(&SocAreaSpec::legacy_16core());

    println!("Sec. 5.4 — 16-core SoC area @ 28 nm (analytic model)");
    println!("{:>26} {:>12} {:>12}", "", "with L1.5", "L1-only");
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:>26} {a:>11.3}mm2 {b:>11.3}mm2");
    };
    row("cores (logic + ISA ext)", prop.cores_mm2, legacy.cores_mm2);
    row("L1 caches", prop.l1_mm2, legacy.l1_mm2);
    row("L1.5 SRAM", prop.l15_sram_mm2, legacy.l15_sram_mm2);
    row("L1.5 management fabric", prop.l15_logic_mm2, legacy.l15_logic_mm2);
    row("uncore", prop.uncore_mm2, legacy.uncore_mm2);
    row("total", prop.total(), legacy.total());
    println!(
        "{:>26} {:>11.3}mm2 ({:.2}% of the conventional SoC; paper: 0.153mm2, 5.88%)",
        "overhead",
        prop.total() - legacy.total(),
        overhead_percent(&prop, &legacy)
    );
    println!("{:>26} {:>11.3}mm2 (paper: 0.574mm2)", "per cluster", prop.per_cluster(4));

    println!("\nAblation: management-fabric area vs way count (4 cores/cluster)");
    println!("{:>6} {:>12} {:>12}", "ways", "gates", "logic mm2");
    for ways in [4usize, 8, 16, 32] {
        let g = L15Geometry { ways, ..Default::default() };
        println!("{ways:>6} {:>12} {:>12.4}", g.logic_gates(), g.logic_mm2());
    }
    Ok(true)
}
