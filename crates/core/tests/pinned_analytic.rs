//! The analytic pipeline pinned bit for bit, so a change that claims "same
//! answers" for the generator, Alg. 1, the baseline priorities or the
//! list-scheduling simulator is held to it on inputs no benchmark draws.
//!
//! `golden/pinned_analytic.txt` was generated at the commit *before* `Dag`
//! owned its topological order (PR 23) and must be reproduced unmodified:
//! 64 seeds × a generator grid (`max_width` 2 / 15 / 21, `edge_prob`
//! 0.0 / 0.2 / 1.0, `cpr` 0.1 / 0.3 / 1.0, `layers` (1,1) / (5,10) — the
//! one-layer and fully-connected extremes included), one row per grid
//! point, each column an FNV-1a digest over the 64 DAGs of
//!
//! * `gen`  — `textio::write_task(generate(..))`;
//! * `alg1` — `format!("{:?}", schedule_with_l15(..))` at ζ 1 / 16 / 64 and
//!   with both `Alg1Options` ablations at ζ 16;
//! * `base` — `format!("{:?}", baseline_priorities(..))`;
//! * `sim`  — every field of `SimResult` (`f64`s as bits) from
//!   `simulate_instance` for the four `SystemModel`s × instances 0 / 1 / 9 ×
//!   cores 1 / 3 / 8.
//!
//! Regenerate (only for a change that is *meant* to move one of these) with
//! `L15_UPDATE_GOLDEN=1 cargo test -p l15-core --test pinned_analytic`.

use std::fmt::Write as _;
use std::path::PathBuf;

use l15_core::alg1::{schedule_with_l15, schedule_with_l15_with, Alg1Options, AllocationPolicy};
use l15_core::baseline::{baseline_priorities, SystemModel};
use l15_core::makespan::SimResult;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{textio, ExecutionTimeModel};
use l15_testkit::rng::{fnv1a, SmallRng, FNV1A_OFFSET};

const SEEDS: u64 = 64;
const WIDTHS: [usize; 3] = [2, 15, 21];
const EDGE_PROBS: [f64; 3] = [0.0, 0.2, 1.0];
const CPRS: [f64; 3] = [0.1, 0.3, 1.0];
const LAYERS: [(usize, usize); 2] = [(1, 1), (5, 10)];
const ZETAS: [usize; 3] = [1, 16, 64];
const INSTANCES: [usize; 3] = [0, 1, 9];
const CORES: [usize; 3] = [1, 3, 8];

fn digest_sim(acc: u64, r: &SimResult) -> u64 {
    let mut acc = fnv1a(acc, &r.makespan.to_bits().to_le_bytes());
    for times in [&r.start, &r.finish] {
        for t in times {
            acc = fnv1a(acc, &t.to_bits().to_le_bytes());
        }
    }
    r.core.iter().fold(acc, |acc, &c| fnv1a(acc, &(c as u64).to_le_bytes()))
}

fn row(params: &DagGenParams) -> String {
    let gen = DagGenerator::new(params.clone());
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let ablations = [
        Alg1Options { update_lambda: false, ..Alg1Options::default() },
        Alg1Options { allocation: AllocationPolicy::ProportionalShare, ..Alg1Options::default() },
    ];
    let models = [
        SystemModel::proposed(),
        SystemModel::cmp_l1(),
        SystemModel::cmp_l2(),
        SystemModel::cmp_shared_l1(),
    ];
    let (mut d_gen, mut d_alg1, mut d_base, mut d_sim) =
        (FNV1A_OFFSET, FNV1A_OFFSET, FNV1A_OFFSET, FNV1A_OFFSET);
    for seed in 0..SEEDS {
        let task =
            gen.generate(&mut SmallRng::seed_from_u64(0x616e_6100 + seed)).expect("valid grid");
        d_gen = fnv1a(d_gen, textio::write_task(&task).as_bytes());
        for zeta in ZETAS {
            let plan = schedule_with_l15(&task, zeta, &etm);
            d_alg1 = fnv1a(d_alg1, format!("{plan:?}").as_bytes());
        }
        for opts in ablations {
            let plan = schedule_with_l15_with(&task, 16, &etm, opts);
            d_alg1 = fnv1a(d_alg1, format!("{plan:?}").as_bytes());
        }
        d_base = fnv1a(d_base, format!("{:?}", baseline_priorities(&task)).as_bytes());
        let mut rng = SmallRng::seed_from_u64(0x7369_6d00 + seed);
        for model in &models {
            let plan = model.plan(&task);
            for k in INSTANCES {
                for cores in CORES {
                    let r = model.simulate_instance(&task, cores, &plan, k, &mut rng);
                    d_sim = digest_sim(d_sim, &r);
                }
            }
        }
    }
    format!("gen={d_gen:016x} alg1={d_alg1:016x} base={d_base:016x} sim={d_sim:016x}")
}

fn table() -> String {
    let mut out = String::new();
    for max_width in WIDTHS {
        for edge_prob in EDGE_PROBS {
            for cpr in CPRS {
                for layers in LAYERS {
                    let params = DagGenParams {
                        layers,
                        max_width,
                        edge_prob,
                        cpr,
                        ..DagGenParams::default()
                    };
                    writeln!(
                        out,
                        "p={max_width} edge_prob={edge_prob} cpr={cpr} layers={}-{} {}",
                        layers.0,
                        layers.1,
                        row(&params)
                    )
                    .expect("String");
                }
            }
        }
    }
    out
}

#[test]
fn analytic_pipeline_reproduces_the_table_pinned_before_dag_owned_its_order() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pinned_analytic.txt");
    let actual = table();
    if std::env::var_os("L15_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden/pinned_analytic.txt is committed");
    for (n, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "row {n} moved");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "row count");
}
