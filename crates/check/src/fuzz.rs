//! The parallel regression fuzz harness: executes generated
//! [`FuzzCase`]s (see [`l15_testkit::fuzz`]) on a real [`Uncore`] and
//! judges only what that run shows —
//!
//! 1. **differentially** against the flat sequential [`SeqOracle`]:
//!    every load must return the oracle's value at that step, and the
//!    final memory image (after a full flush) must match byte for byte,
//!    with per-address last-writer provenance on mismatch;
//! 2. through the **counter conservation laws** of [`check_counters`]
//!    over the run's always-on [`TraceCounters`], against an expectation
//!    derived from the case's clean contract (so an injected bug that
//!    under-delivers control ops, publications or revocations is caught
//!    even when timing hides the data effect), and on clean runs through
//!    exact counter accounting and, step by step, the soundness of the
//!    static charges of [`crate::absint::analyze_case`];
//! 3. through **R6**, the Walloc model check, driven with a broken double
//!    when that bug is injected.
//!
//! R1–R5 judge lifted kernel runs ([`crate::lift`]), not harness runs:
//! the harness owns its ways from its initial `demand` and never grants
//! per episode. Generated cases are protocol-legal by construction, so on
//! a healthy tree every check must come back clean; [`FuzzBug`] injects
//! one mutation per protocol step to prove the run shows it.
//!
//! With `knobs.clusters > 1` the same per-lane stream is replayed on
//! every cluster as a **co-resident application** — each cluster under
//! its own TID (`case.tid + cluster`) and disjoint address pools. Bug
//! injections stay scoped to cluster 0, so the other clusters double as
//! an in-run control group: a clean replica whose traffic must neither
//! leak into nor mask the mutated cluster's divergence.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use l15_cache::l15::{ControlRegs, L15Config};
use l15_rvcore::bus::SystemBus;
use l15_rvcore::isa::L15Op;
use l15_soc::trace::TraceCounters;
use l15_soc::{ConfigError, LevelConfig, SocConfig, Uncore};
use l15_testkit::fuzz::{draw_case, CoreOp, FuzzCase, FuzzKnobs, SeqOracle};
use l15_testkit::{cli, pool, prop};

use crate::fsm::{check_walloc_model, FsmBounds, WallocModel};
use crate::replay::{check_counters, TraceExpectation};
use crate::rules::{sort_findings, Finding};

/// One injectable mutation per protocol step — the seeded bugs the
/// fuzzer must rediscover from the run it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzBug {
    /// Produce episodes skip `ip_set` (and the conventional-path flush
    /// that would mask it), so supply writes bypass the granted ways and
    /// consumers read stale data. The run shows R1: too few control ops.
    DropIpSet,
    /// The core of the last produce episode never returns its ways at
    /// quiesce (epilogue `demand(0)` skipped). The run shows R2 (grants
    /// outnumber revocations) when that core owned ways, R1 (one control
    /// op short) always.
    LeakWays,
    /// Produce episodes skip the `gv_set` publication, leaving the
    /// dependent line invisible to the cluster. The run shows R3: no
    /// publication took effect.
    SkipGvSet,
    /// The first consuming core runs under a foreign TID, so the
    /// protector hides the lines it reads: oracle divergences.
    ForeignTid,
    /// The Walloc FSM is replaced by a double that never grants: R6.
    StuckWalloc,
}

impl FuzzBug {
    /// Every injectable bug, in protocol order.
    pub const ALL: [FuzzBug; 5] = [
        FuzzBug::DropIpSet,
        FuzzBug::LeakWays,
        FuzzBug::SkipGvSet,
        FuzzBug::ForeignTid,
        FuzzBug::StuckWalloc,
    ];
}

/// The merged outcome of one case's checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzVerdict {
    /// Oracle divergences (inline load mismatches, then final-image
    /// mismatches, then exact counter-accounting mismatches), in
    /// deterministic execution order.
    pub divergences: Vec<String>,
    /// Soundness violations: a step (or the init demands, or the
    /// epilogue) whose observed memory-system cycles on some core exceeded
    /// the charge of [`crate::absint::analyze_case`] for that step and
    /// core (clean runs only — an injected bug invalidates the bound's
    /// protocol assumptions).
    pub soundness: Vec<String>,
    /// Findings from the conservation laws and R6, in canonical sorted
    /// order.
    pub findings: Vec<Finding>,
    /// The run's always-on counters.
    pub counters: TraceCounters,
    /// Concrete memory-system cycles charged per global core over the
    /// whole run. Exposed so corpus tests can also assert *precision*
    /// (bound / observed).
    pub observed_cycles: Vec<u64>,
}

impl FuzzVerdict {
    /// No divergences, no soundness violations, no findings.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.soundness.is_empty() && self.findings.is_empty()
    }

    /// The first piece of trouble, for one-line assertion messages.
    pub fn headline(&self) -> String {
        if let Some(d) = self.divergences.first() {
            format!("divergence: {d}")
        } else if let Some(s) = self.soundness.first() {
            format!("soundness: {s}")
        } else if let Some(f) = self.findings.first() {
            f.render()
        } else {
            "clean".to_owned()
        }
    }

    /// Deterministic multi-line report (the canonical diagnostic format
    /// for findings, prefixed lines for divergences).
    pub fn render(&self, subject: &str) -> String {
        if self.is_clean() {
            return format!("{subject}: clean\n");
        }
        let total = self.divergences.len() + self.soundness.len() + self.findings.len();
        let mut out = format!("{subject}: {total} finding(s)\n");
        for d in &self.divergences {
            out.push_str("  DIVERGENCE ");
            out.push_str(d);
            out.push('\n');
        }
        for s in &self.soundness {
            out.push_str("  SOUNDNESS ");
            out.push_str(s);
            out.push('\n');
        }
        for f in &self.findings {
            out.push_str("  ");
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

/// Decodes the case of `seed` under `knobs` — bit-identical to what an
/// `L15_PROP_SEED` replay of the same seed decodes.
pub fn case_from_seed(knobs: &FuzzKnobs, seed: u64) -> FuzzCase {
    draw_case(&mut prop::seeded_g(seed), knobs)
}

/// Runs `case` on a fresh SoC and judges the run. See
/// [`check_case_with`] for bug injection.
pub fn check_case(case: &FuzzCase) -> FuzzVerdict {
    check_case_with(case, None)
}

/// [`check_case`] with an optional injected mutation. The conservation
/// expectation always reflects the *clean* contract of the case, so an
/// injected bug shows up as a violation rather than being expected away.
pub fn check_case_with(case: &FuzzCase, bug: Option<FuzzBug>) -> FuzzVerdict {
    let knobs = &case.knobs;
    let clusters = knobs.clusters;
    assert!(clusters > 0, "need at least one cluster");
    let victim = first_consumer_core(case);
    // Cluster-major global TIDs: cluster `cl` runs its replica as its own
    // application under `case.tid + cl` (the co-residency contract the
    // per-cluster protectors must keep separate).
    let mut tids: Vec<u32> =
        (0..knobs.total_cores()).map(|c| case.tid + (c / knobs.cores) as u32).collect();
    if bug == Some(FuzzBug::ForeignTid) {
        if let Some(c) = victim {
            tids[c] = case.tid + 1;
        }
    }

    let mut u = small_soc(knobs);
    for (core, &tid) in tids.iter().enumerate() {
        u.set_tid(core, tid).expect("core in range");
    }
    // Per-core observed memory-system cycles. On clean runs every phase
    // (init, each step, epilogue) is judged against the per-step charges
    // of `absint::analyze_case`, core for core, which implies the per-core
    // totals.
    let mut observed = vec![0u64; knobs.total_cores()];
    let analysis = bug.is_none().then(|| crate::absint::analyze_case(case, u.config()));
    let mut soundness = Vec::new();
    let mut judged = observed.clone();
    let mut judge = |row: usize, phase: &dyn fmt::Display, observed: &[u64]| {
        let Some(analysis) = &analysis else { return };
        for (core, (&now, before)) in observed.iter().zip(&mut judged).enumerate() {
            let (seen, charged) = (now - *before, analysis.charge(row, core));
            if seen > charged {
                soundness.push(format!(
                    "{phase} core {core}: observed {seen} memory-system cycles exceed the \
                     static charge {charged}"
                ));
            }
            *before = now;
        }
    };
    for (lane, &d) in case.init_demand.iter().enumerate() {
        for cl in 0..clusters {
            let core = cl * knobs.cores + lane;
            observed[core] += u64::from(u.l15_ctrl(core, L15Op::Demand, d as u32).cycles);
        }
    }
    u.advance(settle_budget(knobs));
    judge(0, &"init", &observed);

    let mut oracle = SeqOracle::new();
    let mut divergences = Vec::new();

    for (step, &(lane, op)) in case.steps.iter().enumerate() {
        for cl in 0..clusters {
            let core = cl * knobs.cores + lane;
            match op {
                CoreOp::Load { slot } => {
                    let addr = knobs.private_addr(core, slot);
                    observed[core] +=
                        check_load(&mut u, &oracle, core, addr, step, &mut divergences);
                }
                CoreOp::Store { slot, value } => {
                    let addr = knobs.private_addr(core, slot);
                    observed[core] += u64::from(u.store(core, addr as u32, addr as u32, 4, value));
                    oracle.write_u32(addr, value, core, step);
                }
                CoreOp::Consume { slot } => {
                    let addr = knobs.shared_addr_in(cl, slot);
                    observed[core] +=
                        check_load(&mut u, &oracle, core, addr, step, &mut divergences);
                }
                CoreOp::Produce { slot, value } => {
                    let addr = knobs.shared_addr_in(cl, slot);
                    // Injections stay on cluster 0; the other clusters
                    // run the clean protocol as the control group.
                    let drop_ip = cl == 0 && bug == Some(FuzzBug::DropIpSet);
                    let skip_gv = cl == 0 && bug == Some(FuzzBug::SkipGvSet);
                    if !drop_ip {
                        observed[core] += u64::from(u.l15_ctrl(core, L15Op::IpSet, 1).cycles);
                    }
                    let routed =
                        u.l15(cl).map(|l| l.routes_stores(lane).unwrap_or(false)).unwrap_or(false);
                    observed[core] += u64::from(u.store(core, addr as u32, addr as u32, 4, value));
                    let supply_out = u.l15_ctrl(core, L15Op::Supply, 0);
                    observed[core] += u64::from(supply_out.cycles);
                    let supply = supply_out.value;
                    if !skip_gv {
                        observed[core] += u64::from(u.l15_ctrl(core, L15Op::GvSet, supply).cycles);
                    }
                    if !routed && !drop_ip {
                        // Unrouted supply writes must reach the L2 before
                        // any consumer looks (the flush-and-share
                        // fallback).
                        u.flush_l1d(core);
                    }
                    if !drop_ip {
                        observed[core] += u64::from(u.l15_ctrl(core, L15Op::IpSet, 0).cycles);
                    }
                    oracle.write_u32(addr, value, core, step);
                }
                CoreOp::Reconfig { ways, .. } => {
                    observed[core] +=
                        u64::from(u.l15_ctrl(core, L15Op::Demand, ways as u32).cycles);
                }
                CoreOp::Advance { .. } => {}
            }
        }
        if let CoreOp::Reconfig { settle: cycles, .. } | CoreOp::Advance { cycles } = op {
            u.advance(cycles);
        }
        judge(step + 1, &format_args!("step {step} ({op:?})"), &observed);
    }

    // Epilogue: return every way (modulo the R2 injection, which keeps
    // cluster 0's last producer from releasing), settle the Wallocs,
    // write the hierarchy back.
    let leak_core = if bug == Some(FuzzBug::LeakWays) { last_producer_core(case) } else { None };
    for (core, obs) in observed.iter_mut().enumerate() {
        if Some(core) == leak_core {
            continue;
        }
        *obs += u64::from(u.l15_ctrl(core, L15Op::Demand, 0).cycles);
    }
    judge(case.steps.len() + 1, &"epilogue", &observed);
    u.advance(settle_budget(knobs));
    u.flush_all();

    let got = u.memory_nonzero_bytes();
    let want = oracle.nonzero_bytes();
    if got != want {
        divergences.extend(image_diff(&got, &want, &oracle));
    }

    let counters = *u.trace().counters();
    if bug.is_none() {
        divergences.extend(exact_accounting(case, &counters));
    }

    let mut findings = check_counters(&counters, &expectation_of(case));
    if bug == Some(FuzzBug::StuckWalloc) {
        findings
            .extend(check_walloc_model(|_| StuckWalloc, &FsmBounds { max_cores: 2, max_ways: 2 }));
    }
    sort_findings(&mut findings);

    FuzzVerdict { divergences, soundness, findings, counters, observed_cycles: observed }
}

/// One sweep item: the case's identity plus its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Case index within the sweep.
    pub index: usize,
    /// The per-case seed ([`pool::item_seed`] of the master seed).
    pub seed: u64,
    /// Shape summary of the generated case.
    pub summary: String,
    /// The checks' merged outcome.
    pub verdict: FuzzVerdict,
}

/// Explores `cases` seeds derived from `master_seed` on the worker pool,
/// checking each generated case (with `bug` injected when given).
/// Outcomes come back in index order, so the result — like every report
/// built from it — is byte-identical at any `L15_JOBS`.
pub fn sweep(
    knobs: &FuzzKnobs,
    master_seed: u64,
    cases: usize,
    bug: Option<FuzzBug>,
) -> Vec<CaseOutcome> {
    pool::run_seeded(master_seed, cases, |index, seed| {
        let case = case_from_seed(knobs, seed);
        let summary = case.summary();
        let verdict = check_case_with(&case, bug);
        CaseOutcome { index, seed, summary, verdict }
    })
}

/// The property `l15 fuzz` hands to the [`prop`] shrinker: a
/// drawn case must check clean. Shrinking the choice stream shrinks the
/// case towards the minimal failing interleaving while staying legal.
pub fn clean_case_property(knobs: &FuzzKnobs) -> impl Fn(&mut prop::G) + Sync + '_ {
    move |g| {
        let case = draw_case(g, knobs);
        let verdict = check_case(&case);
        assert!(
            verdict.is_clean(),
            "{}\n    case: {}\n    steps: {:?}",
            verdict.headline(),
            case.summary(),
            case.steps
        );
    }
}

// ---------------------------------------------------------------------
// Corpus entries
// ---------------------------------------------------------------------

/// One parsed corpus entry: a seed plus the knobs it replays under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The case seed.
    pub seed: u64,
    /// Replay knobs (quick profile unless overridden by the entry).
    pub knobs: FuzzKnobs,
}

impl CorpusEntry {
    /// Decodes the entry's case.
    pub fn case(&self) -> FuzzCase {
        case_from_seed(&self.knobs, self.seed)
    }
}

/// Why [`parse_corpus_entry`] rejects an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A malformed line, an unknown key, an unparsable or out-of-range
    /// value, a pool that does not fit its address region or a missing
    /// `seed`: the message, line-numbered where one line is to blame.
    Entry(String),
    /// The `cores`, `clusters` and `ways` knobs describe a SoC
    /// ([`fuzz_soc_config`]) that [`SocConfig::validate`] rejects.
    Config(ConfigError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Entry(message) => f.write_str(message),
            CorpusError::Config(e) => e.fmt(f),
        }
    }
}

impl Error for CorpusError {}

/// Parses a `key = value` corpus entry (`#` comments, blank lines
/// allowed). `seed` is required (decimal or `0x` hex); `ops`, `cores`,
/// `clusters`, `ways`, `private`, `shared` and `arrivals` override the
/// quick-profile knobs.
///
/// `cores`, `clusters` and `ways` are geometry: the SoC they describe
/// must pass [`SocConfig::validate`]. The pools then bound the core count
/// (each core needs a private line in a 1 MiB region); the caps on the
/// other knobs bound what one case allocates and runs.
///
/// # Errors
///
/// Returns [`CorpusError::Entry`] for malformed lines, unknown keys,
/// unparsable or out-of-range values, pools that do not fit their address
/// regions and a missing `seed`, and [`CorpusError::Config`] for a
/// geometry `validate` rejects.
pub fn parse_corpus_entry(text: &str) -> Result<CorpusEntry, CorpusError> {
    let mut seed = None;
    let mut knobs = FuzzKnobs::quick();
    // The line that last sized a pool: the quick pools fit, so a misfit
    // is that line's doing.
    let mut pool_line = 0;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |message: String| CorpusError::Entry(format!("line {}: {message}", i + 1));
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        let number = cli::parse_u64(value)
            .ok_or_else(|| bad(format!("`{key}` needs a number, got {value:?}")))?;
        // `draw_case` panics on empty pools; `validate` below bounds the
        // geometry knobs.
        let (knob, lo, hi) = match key {
            "seed" => {
                seed = Some(number);
                continue;
            }
            "cores" => (&mut knobs.cores, 0, u64::MAX),
            "clusters" => (&mut knobs.clusters, 0, u64::MAX),
            "ways" => (&mut knobs.ways, 0, u64::MAX),
            "ops" => (&mut knobs.ops, 0, 1 << 16),
            "private" => (&mut knobs.private_slots, 1, 1 << 14),
            "shared" => (&mut knobs.shared_slots, 1, 1 << 12),
            "arrivals" => (&mut knobs.arrivals, 0, 1 << 12),
            other => return Err(bad(format!("unknown key {other:?}"))),
        };
        if !(lo..=hi).contains(&number) {
            return Err(bad(format!("`{key}` must be in {lo}..={hi}, got {number}")));
        }
        *knob = number as usize;
        if matches!(key, "cores" | "clusters" | "private" | "shared") {
            pool_line = i + 1;
        }
    }
    fuzz_soc_config(&knobs).validate().map_err(CorpusError::Config)?;
    if !knobs.pools_fit() {
        return Err(CorpusError::Entry(format!(
            "line {pool_line}: {} private lines on each of {} cores, or {} shared lines \
             on each of {} clusters, do not fit their address regions",
            knobs.private_slots,
            knobs.total_cores(),
            knobs.shared_slots,
            knobs.clusters
        )));
    }
    let seed = seed.ok_or_else(|| CorpusError::Entry("missing `seed`".to_owned()))?;
    Ok(CorpusEntry { seed, knobs })
}

// ---------------------------------------------------------------------
// Execution internals
// ---------------------------------------------------------------------

/// A Walloc double that never grants — the R6 injection.
struct StuckWalloc;

impl WallocModel for StuckWalloc {
    fn demand(&mut self, _regs: &ControlRegs, _core: usize, _n: usize) {}

    fn tick(&mut self, _regs: &mut ControlRegs) -> bool {
        false
    }
}

/// The [`SocConfig`] the fuzz harness runs under: small L1/L2 so the
/// generated pools overflow every level and exercise eviction and
/// write-back. Shared with [`crate::absint::analyze_case`] so the static
/// bounds and the concrete run describe the same machine; public so
/// external precision tests can analyze a case against the same config.
pub fn fuzz_soc_config(knobs: &FuzzKnobs) -> SocConfig {
    let line_bytes = knobs.line_bytes;
    let l1 = LevelConfig { capacity: 4096, ways: 2, line_bytes, lat_min: 1, lat_max: 2 };
    SocConfig {
        clusters: knobs.clusters,
        cores_per_cluster: knobs.cores,
        l1i: l1,
        l1d: l1,
        l15: Some(L15Config {
            line_bytes,
            way_bytes: 2048,
            ways: knobs.ways,
            cores: knobs.cores,
            lat_min: 2,
            lat_max: 8,
        }),
        l2: LevelConfig { capacity: 64 * 1024, ways: 8, line_bytes, lat_min: 15, lat_max: 25 },
        mem_latency: 100,
    }
}

/// One identical L1.5 cluster per `knobs.clusters`.
fn small_soc(knobs: &FuzzKnobs) -> Uncore {
    Uncore::new(fuzz_soc_config(knobs))
}

/// Cycles that drain any possible Walloc backlog (one action per tick).
fn settle_budget(knobs: &FuzzKnobs) -> u32 {
    (knobs.ways * 4 + 64) as u32
}

fn first_consumer_core(case: &FuzzCase) -> Option<usize> {
    case.steps.iter().find_map(|&(core, op)| matches!(op, CoreOp::Consume { .. }).then_some(core))
}

fn last_producer_core(case: &FuzzCase) -> Option<usize> {
    case.steps
        .iter()
        .rev()
        .find_map(|&(core, op)| matches!(op, CoreOp::Produce { .. }).then_some(core))
}

/// Loads and checks against the oracle; returns the access's cycles for
/// the per-core observed accounting.
fn check_load(
    u: &mut Uncore,
    oracle: &SeqOracle,
    core: usize,
    addr: u64,
    step: usize,
    divergences: &mut Vec<String>,
) -> u64 {
    let out = u.load(core, addr as u32, addr as u32, 4);
    let got = out.value;
    let want = oracle.read_u32(addr);
    if got != want {
        divergences.push(format!(
            "step {step}: core {core} loads {addr:#010x} = {got:#010x}, \
             oracle says {want:#010x} ({})",
            oracle.describe_writer(addr)
        ));
    }
    u64::from(out.cycles)
}

/// Diffs the flushed memory image against the oracle's, reporting the
/// first few diverging bytes with last-writer provenance.
fn image_diff(got: &[(u64, u8)], want: &[(u64, u8)], oracle: &SeqOracle) -> Vec<String> {
    const MAX_REPORTED: usize = 8;
    let g: BTreeMap<u64, u8> = got.iter().copied().collect();
    let w: BTreeMap<u64, u8> = want.iter().copied().collect();
    let mut addrs: Vec<u64> = g.keys().chain(w.keys()).copied().collect();
    addrs.sort_unstable();
    addrs.dedup();
    let mut out = Vec::new();
    for addr in addrs {
        let gv = g.get(&addr).copied().unwrap_or(0);
        let wv = w.get(&addr).copied().unwrap_or(0);
        if gv != wv {
            if out.len() >= MAX_REPORTED {
                out.push("final image: further divergences elided".to_owned());
                break;
            }
            out.push(format!(
                "final image at {addr:#010x}: memory byte {gv:#04x}, oracle {wv:#04x} ({})",
                oracle.describe_writer(addr)
            ));
        }
    }
    out
}

/// Per-category step counts of a case (post-fallback).
struct StepCounts {
    loads: u64,
    stores: u64,
    produces: u64,
    reconfigs: u64,
}

fn step_counts(case: &FuzzCase) -> StepCounts {
    let mut c = StepCounts { loads: 0, stores: 0, produces: 0, reconfigs: 0 };
    for (_, op) in &case.steps {
        match op {
            CoreOp::Load { .. } | CoreOp::Consume { .. } => c.loads += 1,
            CoreOp::Store { .. } => c.stores += 1,
            CoreOp::Produce { .. } => c.produces += 1,
            CoreOp::Reconfig { .. } => c.reconfigs += 1,
            CoreOp::Advance { .. } => {}
        }
    }
    c
}

/// The clean contract of `case` in conservation terms: every produce
/// publishes, and the harness issues an exactly known number of control
/// ops (init demands + 4 per produce + 1 per reconfig + epilogue
/// demands) — everything multiplied by the cluster count, since each
/// cluster replays the full stream.
fn expectation_of(case: &FuzzCase) -> TraceExpectation {
    let c = step_counts(case);
    let k = case.knobs.clusters as u64;
    TraceExpectation {
        publishers: k * c.produces,
        l15_stores_expected: false,
        min_ctrl_ops: k * (2 * case.knobs.cores as u64 + 4 * c.produces + c.reconfigs),
    }
}

/// Exact counter accounting for clean runs: the always-on counters must
/// equal what the harness issued, op for op, across every cluster.
fn exact_accounting(case: &FuzzCase, counters: &TraceCounters) -> Vec<String> {
    let c = step_counts(case);
    let k = case.knobs.clusters as u64;
    let expect = expectation_of(case);
    let mut out = Vec::new();
    let loads: u64 = counters.loads.iter().sum();
    if loads != k * c.loads {
        out.push(format!("counters: {} loads recorded, harness issued {}", loads, k * c.loads));
    }
    let stores = counters.stores_via_l15 + counters.stores_conventional;
    if stores != k * (c.stores + c.produces) {
        out.push(format!(
            "counters: {} stores recorded, harness issued {}",
            stores,
            k * (c.stores + c.produces)
        ));
    }
    if counters.ctrl_ops != expect.min_ctrl_ops {
        out.push(format!(
            "counters: {} ctrl ops recorded, harness issued {}",
            counters.ctrl_ops, expect.min_ctrl_ops
        ));
    }
    if counters.gv_updates != k * c.produces {
        out.push(format!(
            "counters: {} gv updates recorded, harness published {}",
            counters.gv_updates,
            k * c.produces
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn tiny_knobs() -> FuzzKnobs {
        FuzzKnobs { private_slots: 8, shared_slots: 4, ops: 0, ..FuzzKnobs::quick() }
    }

    /// A handwritten produce/consume interleaving that deterministically
    /// trips every injected bug class.
    fn handwritten_case() -> FuzzCase {
        FuzzCase {
            knobs: tiny_knobs(),
            tid: 1,
            init_demand: vec![2, 2, 2, 2],
            steps: vec![
                (0, CoreOp::Store { slot: 1, value: 0x1111_2222 }),
                (0, CoreOp::Produce { slot: 0, value: 0xabcd_1234 }),
                (1, CoreOp::Consume { slot: 0 }),
                (1, CoreOp::Load { slot: 3 }),
                (2, CoreOp::Advance { cycles: 2 }),
                (0, CoreOp::Load { slot: 1 }),
            ],
            mix: Default::default(),
        }
    }

    #[test]
    fn handwritten_case_is_clean() {
        let v = check_case(&handwritten_case());
        assert!(v.is_clean(), "{}", v.render("handwritten"));
        assert_eq!(v.headline(), "clean");
        assert_eq!(v.render("handwritten"), "handwritten: clean\n");
    }

    /// The rule whose finding the run shows for `bug`; `None` for the
    /// injection that shows only as oracle divergences.
    fn run_rule(bug: FuzzBug) -> Option<RuleId> {
        match bug {
            FuzzBug::DropIpSet => Some(RuleId::IpSetBeforeGrant),
            FuzzBug::LeakWays => Some(RuleId::WayBalance),
            FuzzBug::SkipGvSet => Some(RuleId::GvStaleness),
            FuzzBug::ForeignTid => None,
            FuzzBug::StuckWalloc => Some(RuleId::WallocLiveness),
        }
    }

    fn run_shows(bug: FuzzBug, v: &FuzzVerdict) -> bool {
        match run_rule(bug) {
            Some(rule) => v.findings.iter().any(|f| f.rule == rule),
            None => !v.divergences.is_empty(),
        }
    }

    #[test]
    fn every_injected_bug_class_is_rediscovered() {
        let case = handwritten_case();
        for bug in FuzzBug::ALL {
            let v = check_case_with(&case, Some(bug));
            assert!(
                run_shows(bug, &v),
                "{bug:?} must surface {:?} from the run:\n{}",
                run_rule(bug),
                v.render("injected")
            );
        }
    }

    #[test]
    fn data_visible_bugs_also_diverge_from_the_oracle() {
        let case = handwritten_case();
        for bug in [FuzzBug::DropIpSet, FuzzBug::SkipGvSet, FuzzBug::ForeignTid] {
            let v = check_case_with(&case, Some(bug));
            assert!(
                !v.divergences.is_empty(),
                "{bug:?} makes the consumer read stale data:\n{}",
                v.render("injected")
            );
        }
    }

    #[test]
    fn two_cluster_coresidency_is_clean_and_scales_the_counters() {
        let mut case = handwritten_case();
        case.knobs.clusters = 2;
        let v = check_case(&case);
        assert!(v.is_clean(), "{}", v.render("two-cluster"));
        // Both clusters replayed the full stream: one publication each,
        // twice the single-cluster control traffic.
        assert_eq!(v.counters.gv_updates, 2);
        let single = check_case(&handwritten_case());
        assert_eq!(v.counters.ctrl_ops, 2 * single.counters.ctrl_ops);
    }

    #[test]
    fn cluster_zero_bugs_still_fire_under_coresidency() {
        // The clean replica on cluster 1 must not mask cluster 0's
        // mutation — each injected class still raises its rule finding
        // or diverges from the oracle.
        let mut case = handwritten_case();
        case.knobs.clusters = 2;
        for bug in FuzzBug::ALL {
            let v = check_case_with(&case, Some(bug));
            assert!(
                !v.is_clean(),
                "{bug:?} must still be caught on a two-cluster run:\n{}",
                v.render("injected")
            );
            assert!(
                run_shows(bug, &v) || !v.divergences.is_empty(),
                "{bug:?} must surface its class:\n{}",
                v.render("injected")
            );
        }
    }

    #[test]
    fn generated_two_cluster_cases_check_clean() {
        let knobs = FuzzKnobs {
            clusters: 2,
            private_slots: 16,
            shared_slots: 8,
            ops: 96,
            ..FuzzKnobs::quick()
        };
        for outcome in sweep(&knobs, 0xc0ffee, 2, None) {
            assert!(
                outcome.verdict.is_clean(),
                "case {} (seed {:#x}): {}",
                outcome.index,
                outcome.seed,
                outcome.verdict.render("two-cluster sweep")
            );
        }
    }

    #[test]
    fn generated_cases_check_clean_on_the_healthy_tree() {
        let knobs =
            FuzzKnobs { private_slots: 32, shared_slots: 16, ops: 160, ..FuzzKnobs::quick() };
        for outcome in sweep(&knobs, 0x5eed, 4, None) {
            assert!(
                outcome.verdict.is_clean(),
                "case {} (seed {:#x}): {}",
                outcome.index,
                outcome.seed,
                outcome.verdict.render("sweep")
            );
        }
    }

    #[test]
    fn sporadic_arrival_cases_check_clean() {
        // Mid-stream admission churn (quiesce/re-admit Reconfig pairs)
        // must leave every conservation law clean on the healthy tree.
        let knobs = FuzzKnobs {
            private_slots: 16,
            shared_slots: 8,
            ops: 96,
            arrivals: 6,
            ..FuzzKnobs::quick()
        };
        for outcome in sweep(&knobs, 0xa221, 3, None) {
            assert!(
                outcome.verdict.is_clean(),
                "case {} (seed {:#x}): {}",
                outcome.index,
                outcome.seed,
                outcome.verdict.render("sporadic sweep")
            );
        }
    }

    #[test]
    fn sweeps_are_reproducible() {
        let knobs = FuzzKnobs { private_slots: 16, shared_slots: 8, ops: 64, ..FuzzKnobs::quick() };
        let a = sweep(&knobs, 7, 3, None);
        let b = sweep(&knobs, 7, 3, None);
        assert_eq!(a, b);
        assert_eq!(case_from_seed(&knobs, 42), case_from_seed(&knobs, 42));
    }

    #[test]
    fn corpus_entries_parse_and_reject_garbage() {
        let entry =
            parse_corpus_entry("# a comment\nseed = 0x2a\nops = 64\nprivate = 16\nshared = 8\n")
                .unwrap();
        assert_eq!(entry.seed, 42);
        assert_eq!(entry.knobs.ops, 64);
        assert_eq!(entry.knobs.private_slots, 16);
        let case = entry.case();
        assert_eq!(case.steps.len(), 64);

        let multi = parse_corpus_entry("seed = 7\nclusters = 2\nops = 32\n").unwrap();
        assert_eq!(multi.knobs.clusters, 2);
        assert_eq!(multi.case().knobs.total_cores(), 8);

        let sporadic = parse_corpus_entry("seed = 3\nops = 32\narrivals = 4\n").unwrap();
        assert_eq!(sporadic.knobs.arrivals, 4);
        assert_eq!(sporadic.case().steps.len(), 32 + 2 * 4);

        assert!(rejected("ops = 64\n").contains("missing `seed`"));
        assert!(rejected("seed = banana\n").contains("needs a number"));
        assert!(rejected("seed = 1\nbogus = 2\n").contains("unknown key"));
        assert!(rejected("just words\n").contains("key = value"));
    }

    fn rejected(text: &str) -> String {
        parse_corpus_entry(text).expect_err("the entry must be rejected").to_string()
    }

    fn misconfigured(text: &str) -> ConfigError {
        match parse_corpus_entry(text) {
            Err(CorpusError::Config(e)) => e,
            other => panic!("want a configuration rejection, got {other:?}"),
        }
    }

    #[test]
    fn corpus_geometry_is_the_soc_configs_to_validate() {
        // A 64-way L1.5 behind the 32-bit control port diverged from the
        // oracle (7 divergences, 1 soundness finding), and so did 40 ways.
        for ways in [64, 40] {
            let text =
                format!("seed = 1\nways = {ways}\ncores = 40\nprivate = 4\nshared = 1\nops = 64\n");
            let e = misconfigured(&text);
            assert_eq!(e.field, "l15.ways");
            assert!(e.reason.ends_with(&format!("got {ways}")), "{e}");
        }
        for (text, field) in [
            ("ways = 0\nseed = 1\n", "l15.ways"),
            ("seed = 1\ncores = 0\n", "cores_per_cluster"),
            ("seed = 1\nclusters = 0\n", "clusters"),
            // A core count no `u32` id can number, and one whose product
            // with the cluster count overflows, are rejected before the
            // pools are sized from them.
            ("seed = 1\ncores = 0x100000000\n", "cores_per_cluster"),
            ("seed = 1\ncores = 0xffffffffffffffff\nclusters = 2\n", "cores_per_cluster"),
        ] {
            assert_eq!(misconfigured(text).field, field, "{text}");
        }
        assert_eq!(parse_corpus_entry("seed = 1\nways = 32\n").unwrap().knobs.ways, 32);
        let wide = rejected("seed = 1\nways = 33\n");
        assert!(wide.contains("`l15.ways` must be in 1..=32"), "{wide}");
    }

    #[test]
    fn corpus_entries_reject_empty_or_misfit_private_pools() {
        assert!(rejected("seed = 1\nprivate = 0\n").starts_with("line 2: `private` must be"));
        // 64 cores x 512 private lines x 64 B is 2 MiB: twice the region.
        let err = rejected("seed = 1\ncores = 64\nprivate = 512\n# done\n");
        assert!(err.starts_with("line 3: ") && err.contains("do not fit"), "{err}");
    }

    #[test]
    fn corpus_entries_reject_empty_shared_pools() {
        assert!(rejected("seed = 1\nshared = 0\n").starts_with("line 2: `shared` must be"));
        assert!(rejected("shared = 4097\nseed = 1\n").starts_with("line 1: `shared` must be"));
    }

    #[test]
    fn corpus_entries_reject_unbounded_ops() {
        let err = rejected("seed = 1\nops = 0xffffffffffffffff\n");
        assert!(err.starts_with("line 2: `ops` must be in 0..=65536"), "{err}");
    }

    #[test]
    fn corpus_entries_reject_unbounded_arrivals() {
        let err = rejected("seed = 1\narrivals = 4097\n");
        assert_eq!(err, "line 2: `arrivals` must be in 0..=4096, got 4097");
    }
}
