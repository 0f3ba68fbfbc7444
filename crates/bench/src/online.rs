//! `l15 online` — benchmark of the online tier: admission/replan latency
//! percentiles and the success-ratio vs arrival-rate curve.
//!
//! Two experiments over [`l15_online::run_stream`] (analytic sessions,
//! `execute: false`):
//!
//! * **latency** — one reference sporadic stream with a mid-stream mode
//!   change; per-decision admission latency (decision − arrival, which
//!   includes queueing behind the session's virtual clock) and replan
//!   latency (the pure federated re-evaluation cost) in virtual cycles;
//! * **curve** — sweeping the mean inter-arrival gap at a fixed job
//!   lifetime: fast arrivals saturate the platform and the admission
//!   success ratio falls. Trials fan across the `l15_testkit::pool`
//!   workers with position-stable per-trial seeds.
//!
//! All quantities are virtual cycles or exact counters — no wall clocks
//! — so both the stdout report and the `--out` JSON artifact
//! (`BENCH_online.json`) are byte-identical at any `L15_JOBS` setting;
//! `scripts/ci.sh` diffs both across worker counts.
//!
//! ```text
//! l15 online [--quick] [--out FILE]
//! ```

use l15_online::{run_stream, Decision, ModeSwitchSpec, OnlineConfig, StreamParams};
use l15_serve::json::{num_array, Obj};
use l15_testkit::arrivals::SporadicParams;
use l15_testkit::cli::Parsed;
use l15_testkit::pool;

use crate::{env_seed, scaled, Outcome};

/// The swept mean inter-arrival gaps, virtual cycles.
fn gaps(quick: bool) -> &'static [u64] {
    if quick {
        &[4_000, 16_000, 64_000]
    } else {
        &[2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000]
    }
}

fn analytic() -> OnlineConfig {
    OnlineConfig { execute: false, job_lifetime: 200_000, ..OnlineConfig::default() }
}

/// `q`-quantile of a sorted sample (nearest-rank); 0 when empty.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct LatencyReport {
    decisions: usize,
    admission: Vec<u64>,
    replan: Vec<u64>,
    reclaimed_ways: u64,
}

/// The reference stream: sporadic arrivals with one mid-stream mode
/// change, latencies in arrival order.
fn latency_experiment(p: &Parsed, seed: u64) -> LatencyReport {
    let count = scaled(p, 64, 16);
    let params = StreamParams {
        seed,
        arrivals: SporadicParams { count, min_gap: 4_000, max_extra: 8_000 },
        mode_switch: Some(ModeSwitchSpec {
            before: count / 2,
            name: String::from("midway"),
            zeta_cap: 8,
            keep_newest: 2,
        }),
        ..StreamParams::default()
    };
    let session = run_stream(analytic(), &params);
    let mut admission = Vec::new();
    let mut replan = Vec::new();
    for job in session.jobs() {
        admission.push(job.admission_latency());
        if matches!(job.decision, Decision::Admitted { .. }) {
            replan.push(job.eval_cycles);
        }
    }
    admission.sort_unstable();
    replan.sort_unstable();
    LatencyReport {
        decisions: session.jobs().len(),
        admission,
        replan,
        reclaimed_ways: session.metrics().reclaimed_ways,
    }
}

struct RatePoint {
    mean_gap: u64,
    submitted: u64,
    admitted: u64,
}

impl RatePoint {
    fn ratio(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.admitted as f64 / self.submitted as f64
        }
    }
}

/// One point of the success-ratio curve: `trials` independent streams at
/// this mean gap, aggregated in trial order.
fn rate_point(p: &Parsed, seed: u64, mean_gap: u64, trials: usize) -> RatePoint {
    let count = scaled(p, 32, 12);
    let outcomes = pool::run(trials, |t| {
        let params = StreamParams {
            seed: pool::item_seed(seed ^ mean_gap, t),
            arrivals: SporadicParams { count, min_gap: mean_gap / 2, max_extra: mean_gap },
            ..StreamParams::default()
        };
        let m = run_stream(analytic(), &params).metrics();
        (m.submitted, m.admitted)
    });
    let (submitted, admitted) = outcomes.into_iter().fold((0, 0), |(s, a), o| (s + o.0, a + o.1));
    RatePoint { mean_gap, submitted, admitted }
}

fn render_json(seed: u64, quick: bool, lat: &LatencyReport, curve: &[RatePoint]) -> String {
    let mut latency = Obj::new();
    latency
        .int("decisions", lat.decisions as u64)
        .int("admitted", lat.replan.len() as u64)
        .int("reclaimed_ways", lat.reclaimed_ways);
    for (name, sample) in [("admission", &lat.admission), ("replan", &lat.replan)] {
        latency
            .int(&format!("{name}_p50"), quantile(sample, 0.50))
            .int(&format!("{name}_p90"), quantile(sample, 0.90))
            .int(&format!("{name}_p99"), quantile(sample, 0.99))
            .int(&format!("{name}_max"), sample.last().copied().unwrap_or(0));
    }
    let points: Vec<String> = curve
        .iter()
        .map(|p| {
            let mut o = Obj::new();
            o.int("mean_gap_cycles", p.mean_gap)
                .int("submitted", p.submitted)
                .int("admitted", p.admitted)
                .num("success_ratio", p.ratio());
            o.finish()
        })
        .collect();
    let mut root = Obj::new();
    root.str("schema", "l15-online-bench-v1")
        .int("seed", seed)
        .bool("quick", quick)
        .raw("latency", &latency.finish())
        .raw("curve", &format!("[{}]", points.join(",")))
        .raw("success_ratios", &num_array(curve.iter().map(RatePoint::ratio)));
    root.finish()
}

pub fn run(p: &Parsed) -> Outcome {
    let seed = env_seed();

    let lat = latency_experiment(p, seed);
    println!("Online admission latency ({} decisions, virtual cycles)", lat.decisions);
    println!("{:>12}{:>10}{:>10}{:>10}{:>10}", "", "p50", "p90", "p99", "max");
    for (name, sample) in [("admission", &lat.admission), ("replan", &lat.replan)] {
        println!(
            "{:>12}{:>10}{:>10}{:>10}{:>10}",
            name,
            quantile(sample, 0.50),
            quantile(sample, 0.90),
            quantile(sample, 0.99),
            sample.last().copied().unwrap_or(0)
        );
    }
    println!("mode change reclaimed {} standing ways", lat.reclaimed_ways);

    let trials = scaled(p, 24, 6);
    println!("\nSuccess ratio vs arrival rate ({trials} trials per point)");
    println!("{:>16}{:>12}{:>12}{:>10}", "mean gap", "submitted", "admitted", "ratio");
    let curve: Vec<RatePoint> =
        gaps(p.quick).iter().map(|&g| rate_point(p, seed, g, trials)).collect();
    for pt in &curve {
        println!("{:>16}{:>12}{:>12}{:>10.3}", pt.mean_gap, pt.submitted, pt.admitted, pt.ratio());
    }

    let json = render_json(seed, p.quick, &lat, &curve);
    match p.string("--out") {
        Some(path) => {
            std::fs::write(path, json + "\n").map_err(|e| format!("writing artifact: {e}"))?
        }
        None => println!("\n{json}"),
    }
    Ok(true)
}
