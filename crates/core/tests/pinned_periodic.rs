//! The periodic multi-DAG engine pinned bit for bit, so a change that claims
//! "same answers" for `simulate_taskset` (the Fig. 8(a)/(b) success ratios
//! and the Fig. 8(c) utilisation and φ) is held to it on inputs the figures
//! only show rounded.
//!
//! `golden/pinned_periodic.txt` was generated before `simulate_taskset` and
//! `makespan::simulate` shared one event loop, and must be reproduced
//! unmodified: one row per (task-set generator, total utilisation,
//! `PeriodicParams` variant), one column per `SystemModel`, each an FNV-1a
//! digest over 16 seeds of every `PeriodicOutcome` field (`f64`s as bits)
//! and of the contention stream's next draw after the trial.
//!
//! * generators — `generate_case_study` (4 PARSEC shapes, width 8) and
//!   `generate_taskset` (4 synthetic DAGs of 3–5 layers, periods 50–400);
//! * utilisations — 1 / 4 / 6.4 / 12 / 24 (12.5 % to 300 % of 8 cores);
//! * params — the default, one release, 16 cores, ζ 1, ζ 64, and a free
//!   way configuration (`way_config_time: 0.0`).
//!
//! Regenerate (only for a change that is *meant* to move one of these) with
//! `L15_UPDATE_GOLDEN=1 cargo test -p l15-core --test pinned_periodic`.

use std::fmt::Write as _;
use std::path::PathBuf;

use l15_core::baseline::SystemModel;
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_core::periodic::{simulate_taskset, PeriodicOutcome, PeriodicParams};
use l15_dag::gen::DagGenParams;
use l15_dag::taskset::{generate_taskset, TaskSetParams};
use l15_dag::DagTask;
use l15_testkit::rng::{fnv1a, SmallRng, FNV1A_OFFSET};

const SEEDS: u64 = 16;
const UTILS: [f64; 5] = [1.0, 4.0, 6.4, 12.0, 24.0];

fn digest_outcome(acc: u64, o: &PeriodicOutcome) -> u64 {
    let mut acc = fnv1a(acc, &(o.jobs as u64).to_le_bytes());
    acc = fnv1a(acc, &(o.misses as u64).to_le_bytes());
    for x in [o.l15_utilisation, o.phi_avg, o.phi_max] {
        acc = fnv1a(acc, &x.to_bits().to_le_bytes());
    }
    acc
}

fn case_study(util: f64, rng: &mut SmallRng) -> Vec<DagTask> {
    generate_case_study(4, util, &CaseStudyParams::default(), rng).expect("valid case study")
}

fn synthetic(util: f64, rng: &mut SmallRng) -> Vec<DagTask> {
    let params = TaskSetParams {
        n_tasks: 4,
        total_utilisation: util,
        dag: DagGenParams {
            layers: (3, 5),
            max_width: 5,
            period_range: (50.0, 400.0),
            ..DagGenParams::default()
        },
    };
    generate_taskset(&params, rng).expect("valid task set")
}

fn variants() -> [(&'static str, PeriodicParams); 6] {
    let d = PeriodicParams::default();
    [
        ("default", d),
        ("releases=1", PeriodicParams { releases: 1, ..d }),
        ("cores=16", PeriodicParams { cores: 16, ..d }),
        ("zeta=1", PeriodicParams { zeta: 1, ..d }),
        ("zeta=64", PeriodicParams { zeta: 64, ..d }),
        ("config=0", PeriodicParams { way_config_time: 0.0, ..d }),
    ]
}

fn table() -> String {
    let models = [
        ("prop", SystemModel::proposed()),
        ("l1", SystemModel::cmp_l1()),
        ("l2", SystemModel::cmp_l2()),
        ("shl1", SystemModel::cmp_shared_l1()),
    ];
    type Generator = fn(f64, &mut SmallRng) -> Vec<DagTask>;
    let generators: [(&str, Generator); 2] = [("casestudy", case_study), ("taskset", synthetic)];
    let mut out = String::new();
    for (gen_name, generate) in generators {
        for util in UTILS {
            let sets: Vec<Vec<DagTask>> = (0..SEEDS)
                .map(|seed| generate(util, &mut SmallRng::seed_from_u64(0x7065_7200 + seed)))
                .collect();
            for (name, params) in variants() {
                write!(out, "gen={gen_name} util={util} {name}").expect("String");
                for (model_name, model) in &models {
                    let mut d = FNV1A_OFFSET;
                    for (seed, tasks) in sets.iter().enumerate() {
                        let mut rng = SmallRng::seed_from_u64(0x7369_6d00 + seed as u64);
                        d = digest_outcome(d, &simulate_taskset(tasks, model, &params, &mut rng));
                        d = fnv1a(d, &rng.next_u64().to_le_bytes());
                    }
                    write!(out, " {model_name}={d:016x}").expect("String");
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn periodic_engine_reproduces_the_table_pinned_before_the_loops_merged() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pinned_periodic.txt");
    let actual = table();
    if std::env::var_os("L15_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden/pinned_periodic.txt is committed");
    for (n, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "row {n} moved");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "row count");
}
