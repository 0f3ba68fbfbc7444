//! `l15 corpus`: reproducible corpora — generate a directory of `.dag`
//! task files from the Sec. 5.1 generator, or evaluate all systems over an
//! existing corpus — so experiment inputs can be archived, shared and
//! diffed. `l15 check lint <dir>` lints one.
//!
//! ```sh
//! l15 corpus gen ./corpus 20   # 20 default-parameter tasks into ./corpus
//! l15 corpus eval ./corpus     # evaluate them
//! l15 corpus --quick           # round-trip 3 tasks through a temp dir
//! ```

use std::fs;
use std::path::Path;

use l15_core::baseline::SystemModel;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::textio;
use l15_testkit::cli::{self, Parsed};
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::{check, env_seed, file_name, files_in, Error, Outcome};

fn generate(dir: &Path, count: usize, seed: u64) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(io)?;
    let gen = DagGenerator::new(DagGenParams::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..count {
        let task = gen.generate(&mut rng).expect("default parameters are valid");
        fs::write(dir.join(format!("task_{i:04}.dag")), textio::write_task(&task)).map_err(io)?;
    }
    println!("wrote {count} tasks to {}", dir.display());
    Ok(())
}

fn evaluate(dir: &Path) -> Result<(), String> {
    let paths = files_in(dir, "dag")?;
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
    ];
    println!("{:>16} {:>9} {:>9}  avg makespan per system", "file", "nodes", "edges");
    // One sweep item per corpus file; every file's evaluation is seeded
    // independently (fixed seed 7), so the parallel sweep prints exactly
    // what a sequential loop prints.
    let rows = pool::run(paths.len(), |i| {
        let path = &paths[i];
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        let task = textio::parse_task(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let averages: Vec<f64> = systems
            .iter()
            .map(|(_, m)| {
                let mut rng = SmallRng::seed_from_u64(7);
                let spans = m.evaluate(&task, 8, 10, &mut rng);
                spans.iter().sum::<f64>() / spans.len() as f64
            })
            .collect();
        Ok::<_, String>((task.graph().node_count(), task.graph().edge_count(), averages))
    });
    let mut totals = vec![0.0f64; systems.len()];
    for (path, row) in paths.iter().zip(rows) {
        let (nodes, edges, averages) = match row {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                continue;
            }
        };
        print!("{:>16} {:>9} {:>9} ", file_name(path), nodes, edges);
        for (i, avg) in averages.iter().enumerate() {
            totals[i] += avg;
            print!(" {avg:>10.2}");
        }
        println!();
    }
    print!("{:>37} ", "mean:");
    for total in totals {
        print!(" {:>10.2}", total / paths.len() as f64);
    }
    println!();
    Ok(())
}

/// `corpus gen <dir> [count]` (default 20 tasks, seeded by `L15_SEED`).
pub fn gen(p: &Parsed) -> Outcome {
    let count = p.positional(1).map_or(Some(20), cli::parse_u64);
    let count = count.ok_or_else(|| Error::Usage("[count] must be a number".into()))?;
    generate(Path::new(p.positional(0).unwrap_or_default()), count as usize, env_seed())?;
    Ok(true)
}

/// `corpus eval <dir>`.
pub fn eval(p: &Parsed) -> Outcome {
    evaluate(Path::new(p.positional(0).unwrap_or_default()))?;
    Ok(true)
}

/// `corpus [--quick]`, the CI smoke: generate, evaluate and lint a tiny
/// corpus in a temp dir, then remove it.
pub fn round_trip(_: &Parsed) -> Outcome {
    let dir = std::env::temp_dir().join(format!("l15-corpus-quick-{}", std::process::id()));
    let linted = generate(&dir, 3, env_seed())
        .and_then(|()| evaluate(&dir))
        .and_then(|()| check::lint_dir(&dir));
    let _ = fs::remove_dir_all(&dir);
    let findings = linted?;
    if findings == 0 {
        println!("corpus lint: all programs clean");
    } else {
        println!("corpus lint: {findings} finding(s)");
    }
    Ok(findings == 0)
}
