//! The parallel regression fuzz harness: executes generated
//! [`FuzzCase`]s (see [`l15_testkit::fuzz`]) on a real [`Uncore`] and
//! checks every run three ways —
//!
//! 1. **differentially** against the flat sequential [`SeqOracle`]:
//!    every load must return the oracle's value at that step, and the
//!    final memory image (after a full flush) must match byte for byte,
//!    with per-address last-writer provenance on mismatch;
//! 2. through the **always-on counter conservation laws** via
//!    [`check_recorded`], against an expectation derived from the case's
//!    clean contract (so an injected bug that under-delivers control ops
//!    or publications is caught even when timing hides the data effect);
//! 3. through the **static rules R1–R5** over synthetic
//!    [`KernelStreams`] modelling the case's protocol actions, with
//!    happens-before clocks built from the produce→consume edges (R6 is
//!    the Walloc model check, driven with a broken double when injected).
//!
//! Generated cases are protocol-legal by construction, so on a healthy
//! tree every check must come back clean; [`FuzzBug`] injects one
//! representative mutation per rule class to prove each alarm fires.
//!
//! With `knobs.clusters > 1` the same per-lane stream is replayed on
//! every cluster as a **co-resident application** — each cluster under
//! its own TID (`case.tid + cluster`) and disjoint address pools. Bug
//! injections stay scoped to cluster 0, so the other clusters double as
//! an in-run control group: a clean replica whose traffic must neither
//! leak into nor mask the mutated cluster's divergence.

use std::collections::BTreeMap;

use l15_cache::l15::protocol::ProtocolOp;
use l15_cache::l15::{ControlRegs, L15Config};
use l15_cache::WayMask;
use l15_core::hb::{vector_clocks_from, VectorClocks};
use l15_dag::NodeId;
use l15_rvcore::bus::SystemBus;
use l15_rvcore::isa::L15Op;
use l15_soc::trace::TraceCounters;
use l15_soc::{LevelConfig, SocConfig, Uncore};
use l15_testkit::fuzz::{draw_case, CoreOp, FuzzCase, FuzzKnobs, SeqOracle};
use l15_testkit::{cli, pool, prop};
use l15_trace::FlightRecorder;

use crate::fsm::{check_walloc_model, FsmBounds, WallocModel};
use crate::lift::{KernelStreams, NodeStream};
use crate::replay::{check_recorded, TraceExpectation};
use crate::rules::{check_streams, sort_findings, Finding, RuleId};

/// Base address of the synthetic per-segment `line_of` entries. The
/// region is never read or written, so these dummy lines can never alias
/// a producer lookup (`producer_of` scans `line_of` by value).
const SEGMENT_LINE_BASE: u64 = 0x0040_0000;

/// One injectable mutation per l15-check rule class — the seeded bugs the
/// fuzzer must rediscover through its three checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzBug {
    /// R1: produce episodes skip `ip_set` (and the conventional-path
    /// flush that would mask it), so supply writes bypass the granted
    /// ways and consumers read stale data.
    DropIpSet,
    /// R2: the core of the last produce episode never returns its ways at
    /// quiesce (epilogue `demand(0)` skipped, `release` ops omitted).
    LeakWays,
    /// R3: produce episodes skip the `gv_set` publication, leaving the
    /// dependent line invisible to the cluster.
    SkipGvSet,
    /// R4: the first consuming core runs under a foreign TID, so its
    /// reads cross the application boundary behind the protector.
    ForeignTid,
    /// R5: a phantom writer touches a produced line with no ordering edge
    /// — a data race the schedule permits.
    RacyWrite,
    /// R6: the Walloc FSM is replaced by a double that never grants.
    StuckWalloc,
}

impl FuzzBug {
    /// Every injectable bug, in rule order.
    pub const ALL: [FuzzBug; 6] = [
        FuzzBug::DropIpSet,
        FuzzBug::LeakWays,
        FuzzBug::SkipGvSet,
        FuzzBug::ForeignTid,
        FuzzBug::RacyWrite,
        FuzzBug::StuckWalloc,
    ];

    /// The rule class the mutation models.
    pub fn rule(self) -> RuleId {
        match self {
            FuzzBug::DropIpSet => RuleId::IpSetBeforeGrant,
            FuzzBug::LeakWays => RuleId::WayBalance,
            FuzzBug::SkipGvSet => RuleId::GvStaleness,
            FuzzBug::ForeignTid => RuleId::TidProtector,
            FuzzBug::RacyWrite => RuleId::HbRace,
            FuzzBug::StuckWalloc => RuleId::WallocLiveness,
        }
    }
}

/// The merged outcome of one case's three checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzVerdict {
    /// Oracle divergences (inline load mismatches, then final-image
    /// mismatches, then exact counter-accounting mismatches), in
    /// deterministic execution order.
    pub divergences: Vec<String>,
    /// Soundness violations: per-core observed memory-system cycles that
    /// exceeded the static bound of [`crate::absint::analyze_case`]
    /// (clean runs only — an injected bug invalidates the bound's
    /// protocol assumptions).
    pub soundness: Vec<String>,
    /// Findings from the conservation laws and the static rules, in
    /// canonical sorted order.
    pub findings: Vec<Finding>,
    /// Whether the flight recording covered every counter-relevant event
    /// (the harness sizes the recorder so this always holds).
    pub complete: bool,
    /// The run's always-on counters.
    pub counters: TraceCounters,
    /// Concrete memory-system cycles charged per global core — the value
    /// the soundness verdict compares against the static bounds. Exposed
    /// so corpus tests can also assert *precision* (bound / observed).
    pub observed_cycles: Vec<u64>,
}

impl FuzzVerdict {
    /// No divergences, no soundness violations, no findings, complete
    /// recording.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
            && self.soundness.is_empty()
            && self.findings.is_empty()
            && self.complete
    }

    /// The first piece of trouble, for one-line assertion messages.
    pub fn headline(&self) -> String {
        if let Some(d) = self.divergences.first() {
            format!("divergence: {d}")
        } else if let Some(s) = self.soundness.first() {
            format!("soundness: {s}")
        } else if let Some(f) = self.findings.first() {
            f.render()
        } else if !self.complete {
            "flight recording incomplete".to_owned()
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
        if !self.complete {
            out.push_str("  (flight recording incomplete: conservation checks skipped)\n");
        }
        out
    }
}

/// Decodes the case of `seed` under `knobs` — bit-identical to what an
/// `L15_PROP_SEED` replay of the same seed decodes.
pub fn case_from_seed(knobs: &FuzzKnobs, seed: u64) -> FuzzCase {
    draw_case(&mut prop::seeded_g(seed), knobs)
}

/// Runs `case` on a fresh single-cluster SoC and applies all three
/// checks. See [`check_case_with`] for bug injection.
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
    let capacity = (case.steps.len() * 4 + knobs.ways * 64) * clusters + 4096;
    u.trace_mut().attach(FlightRecorder::new(capacity));

    for (core, &tid) in tids.iter().enumerate() {
        u.set_tid(core, tid).expect("core in range");
    }
    // Per-core observed memory-system cycles — compared against the
    // static bounds of `absint::analyze_case` on clean runs.
    let mut observed = vec![0u64; knobs.total_cores()];
    for (lane, &d) in case.init_demand.iter().enumerate() {
        for cl in 0..clusters {
            let core = cl * knobs.cores + lane;
            observed[core] += u64::from(u.l15_ctrl(core, L15Op::Demand, d as u32).cycles);
        }
    }
    u.advance(settle_budget(knobs));

    let mut oracle = SeqOracle::new();
    let mut divergences = Vec::new();
    let mut produce_ways: Vec<Vec<usize>> = Vec::new();

    for (step, &(lane, op)) in case.steps.iter().enumerate() {
        match op {
            CoreOp::Load { slot } => {
                for cl in 0..clusters {
                    let core = cl * knobs.cores + lane;
                    let addr = knobs.private_addr(core, slot);
                    observed[core] +=
                        check_load(&mut u, &oracle, core, addr, step, &mut divergences);
                }
            }
            CoreOp::Store { slot, value } => {
                for cl in 0..clusters {
                    let core = cl * knobs.cores + lane;
                    let addr = knobs.private_addr(core, slot);
                    observed[core] += u64::from(u.store(core, addr as u32, addr as u32, 4, value));
                    oracle.write_u32(addr, value, core, step);
                }
            }
            CoreOp::Consume { slot } => {
                for cl in 0..clusters {
                    let core = cl * knobs.cores + lane;
                    let addr = knobs.shared_addr_in(cl, slot);
                    observed[core] +=
                        check_load(&mut u, &oracle, core, addr, step, &mut divergences);
                }
            }
            CoreOp::Produce { slot, value } => {
                for cl in 0..clusters {
                    let core = cl * knobs.cores + lane;
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
                    if cl == 0 {
                        produce_ways.push(WayMask::from(u64::from(supply)).iter().collect());
                    }
                    oracle.write_u32(addr, value, core, step);
                }
            }
            CoreOp::Reconfig { ways, settle } => {
                for cl in 0..clusters {
                    let core = cl * knobs.cores + lane;
                    observed[core] +=
                        u64::from(u.l15_ctrl(core, L15Op::Demand, ways as u32).cycles);
                }
                u.advance(settle);
            }
            CoreOp::Advance { cycles } => u.advance(cycles),
        }
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
    u.advance(settle_budget(knobs));
    u.flush_all();

    let got = u.memory_nonzero_bytes();
    let want = oracle.nonzero_bytes();
    if got != want {
        divergences.extend(image_diff(&got, &want, &oracle));
    }

    let counters = *u.trace().counters();
    let mut soundness = Vec::new();
    if bug.is_none() {
        divergences.extend(exact_accounting(case, &counters));
        // Soundness: the static per-core bounds of the abstract
        // interpretation must cover the concrete cycles, core for core.
        let analysis = crate::absint::analyze_case(case, u.config());
        for b in &analysis.per_core {
            if observed[b.core] > b.bound_cycles {
                soundness.push(format!(
                    "core {}: observed {} memory-system cycles exceed the \
                     static bound {} (ah {}, am {}, nc {})",
                    b.core, observed[b.core], b.bound_cycles, b.ah, b.am, b.nc
                ));
            }
        }
    }

    let rec = u.trace_mut().detach().expect("the fuzz harness attached a flight recorder");
    let replay = check_recorded(&rec, &expectation_of(case));
    let mut findings = replay.findings;

    // The static-rule model covers cluster 0 (the mutated cluster); the
    // replicas are protocol-identical, so one model speaks for all.
    let (ks, vc) = build_streams(case, &tids[..knobs.cores], &produce_ways, bug);
    findings.extend(check_streams(&ks, &vc));

    if bug == Some(FuzzBug::StuckWalloc) {
        findings
            .extend(check_walloc_model(|_| StuckWalloc, &FsmBounds { max_cores: 2, max_ways: 2 }));
    }
    sort_findings(&mut findings);

    FuzzVerdict {
        divergences,
        soundness,
        findings,
        complete: replay.complete,
        counters,
        observed_cycles: observed,
    }
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
    /// The three checks' merged outcome.
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

/// Parses a `key = value` corpus entry (`#` comments, blank lines
/// allowed). `seed` is required (decimal or `0x` hex); `ops`, `cores`,
/// `clusters`, `ways`, `private`, `shared` and `arrivals` override the
/// quick-profile knobs.
///
/// # Errors
///
/// Returns a line-numbered message for malformed lines, unknown keys,
/// unparsable values and a missing `seed`.
pub fn parse_corpus_entry(text: &str) -> Result<CorpusEntry, String> {
    let mut seed = None;
    let mut knobs = FuzzKnobs::quick();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got {line:?}", i + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let number = cli::parse_u64(value)
            .ok_or_else(|| format!("line {}: `{key}` needs a number, got {value:?}", i + 1))?;
        match key {
            "seed" => seed = Some(number),
            "ops" => knobs.ops = number as usize,
            "cores" => knobs.cores = number as usize,
            "clusters" => knobs.clusters = number as usize,
            "ways" => knobs.ways = number as usize,
            "private" => knobs.private_slots = number as usize,
            "shared" => knobs.shared_slots = number as usize,
            "arrivals" => knobs.arrivals = number as usize,
            other => return Err(format!("line {}: unknown key {other:?}", i + 1)),
        }
    }
    let seed = seed.ok_or_else(|| "missing `seed`".to_owned())?;
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

// ---------------------------------------------------------------------
// Synthetic kernel streams
// ---------------------------------------------------------------------

struct NodeBuild {
    core: usize,
    ops: Vec<ProtocolOp>,
    line: Option<u64>,
    granted: Vec<usize>,
    preds: Vec<NodeId>,
    tid: u8,
}

/// Renders the case as [`KernelStreams`] plus happens-before clocks for
/// the static rules. The harness owns its ways from its initial `demand`
/// and its produce episodes never grant, so a lift of its recording would
/// judge a protocol it does not follow: this is a model of its actions,
/// its ops numbered in stream order.
///
/// Nodes are created in global step order: per-core runs of private ops
/// form *segment* nodes, every produce is its own node, and every
/// consume *starts a fresh segment* — which puts each consuming node
/// after its producer in creation (and thus dispatch) order, so the
/// synthetic produce→consume edge genuinely orders the clocks. Segment
/// nodes get unique never-accessed `line_of` entries so the rules'
/// producer lookup cannot alias them.
fn build_streams(
    case: &FuzzCase,
    tids: &[u32],
    produce_ways: &[Vec<usize>],
    bug: Option<FuzzBug>,
) -> (KernelStreams, VectorClocks) {
    let knobs = &case.knobs;
    let tid_of_core: Vec<u8> = tids.iter().map(|&t| t as u8).collect();
    let mut nodes: Vec<NodeBuild> = Vec::new();
    let mut cur: Vec<Option<usize>> = vec![None; knobs.cores];
    let mut producer_node: BTreeMap<usize, usize> = BTreeMap::new();
    let leak_pi = if bug == Some(FuzzBug::LeakWays) && !produce_ways.is_empty() {
        Some(produce_ways.len() - 1)
    } else {
        None
    };
    let drop_ip = bug == Some(FuzzBug::DropIpSet);
    let mut pi = 0usize;

    fn open_segment(
        nodes: &mut Vec<NodeBuild>,
        cur: &mut [Option<usize>],
        core: usize,
        tid: u8,
    ) -> usize {
        if let Some(id) = cur[core] {
            return id;
        }
        let id = nodes.len();
        nodes.push(NodeBuild {
            core,
            ops: vec![ProtocolOp::SetTid { tid }],
            line: None,
            granted: Vec::new(),
            preds: Vec::new(),
            tid,
        });
        cur[core] = Some(id);
        id
    }

    for &(core, op) in &case.steps {
        let tid = tid_of_core[core];
        match op {
            CoreOp::Load { slot } => {
                let id = open_segment(&mut nodes, &mut cur, core, tid);
                nodes[id].ops.push(ProtocolOp::Read { line: knobs.private_addr(core, slot) });
            }
            CoreOp::Store { slot, .. } => {
                let id = open_segment(&mut nodes, &mut cur, core, tid);
                nodes[id].ops.push(ProtocolOp::Write { line: knobs.private_addr(core, slot) });
            }
            CoreOp::Consume { slot } => {
                // A consume always opens a fresh segment: the new node is
                // created after its producer, so the edge orders the
                // clocks (a pred later in dispatch order would be inert).
                cur[core] = None;
                let id = open_segment(&mut nodes, &mut cur, core, tid);
                nodes[id].ops.push(ProtocolOp::Read { line: knobs.shared_addr(slot) });
                let p = producer_node[&slot];
                nodes[id].preds.push(NodeId(p));
            }
            CoreOp::Produce { slot, .. } => {
                cur[core] = None;
                let id = nodes.len();
                let line = knobs.shared_addr(slot);
                let granted = produce_ways[pi].clone();
                let mut ops =
                    vec![ProtocolOp::SetTid { tid }, ProtocolOp::Demand { ways: granted.len() }];
                if !drop_ip {
                    ops.push(ProtocolOp::IpSet { on: true });
                }
                for &w in &granted {
                    ops.push(ProtocolOp::Grant { way: w });
                }
                if !drop_ip {
                    ops.push(ProtocolOp::IpSet { on: true });
                }
                ops.push(ProtocolOp::Write { line });
                if bug != Some(FuzzBug::SkipGvSet) {
                    ops.push(ProtocolOp::GvPublish { line });
                }
                if leak_pi != Some(pi) {
                    for &w in &granted {
                        ops.push(ProtocolOp::Release { way: w });
                    }
                }
                nodes.push(NodeBuild {
                    core,
                    ops,
                    line: Some(line),
                    granted,
                    preds: Vec::new(),
                    tid,
                });
                producer_node.insert(slot, id);
                pi += 1;
            }
            CoreOp::Reconfig { ways, .. } => {
                let id = open_segment(&mut nodes, &mut cur, core, tid);
                nodes[id].ops.push(ProtocolOp::Demand { ways });
            }
            CoreOp::Advance { .. } => {}
        }
    }

    // R5 injection: a phantom writer on a core of its own, dispatched
    // first, with no edges — guaranteed concurrent with the produce node
    // whose line it clobbers.
    let mut cores_total = knobs.cores;
    let mut order: Vec<NodeId> = (0..nodes.len()).map(NodeId).collect();
    if bug == Some(FuzzBug::RacyWrite) {
        if let Some((_, &target)) = producer_node.iter().next() {
            let line = nodes[target].line.expect("produce nodes carry their line");
            let tid = case.tid as u8;
            let id = nodes.len();
            nodes.push(NodeBuild {
                core: cores_total,
                ops: vec![ProtocolOp::SetTid { tid }, ProtocolOp::Write { line }],
                line: None,
                granted: Vec::new(),
                preds: Vec::new(),
                tid,
            });
            cores_total += 1;
            order.insert(0, NodeId(id));
        }
    }

    let core_of: Vec<usize> = nodes.iter().map(|b| b.core).collect();
    let preds: Vec<Vec<NodeId>> = nodes.iter().map(|b| b.preds.clone()).collect();
    let vc = vector_clocks_from(cores_total, &core_of, &order, &preds);
    let mut seq = 0u64..;
    let streams: Vec<NodeStream> = order
        .iter()
        .map(|&v| {
            let b = &nodes[v.0];
            let ops = b.ops.iter().map(|&op| (seq.next().expect("unbounded"), op)).collect();
            NodeStream { node: v, core: b.core, ops }
        })
        .collect();
    let line_of: Vec<u64> = nodes
        .iter()
        .enumerate()
        .map(|(i, b)| b.line.unwrap_or(SEGMENT_LINE_BASE + i as u64 * knobs.line_bytes))
        .collect();
    let granted: Vec<Vec<usize>> = nodes.iter().map(|b| b.granted.clone()).collect();
    let tids_of: Vec<u8> = nodes.iter().map(|b| b.tid).collect();
    let ks = KernelStreams { ways: knobs.ways, tids: tids_of, streams, line_of, granted };
    (ks, vc)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn every_injected_bug_class_is_rediscovered() {
        let case = handwritten_case();
        for bug in FuzzBug::ALL {
            let v = check_case_with(&case, Some(bug));
            assert!(
                v.findings.iter().any(|f| f.rule == bug.rule()),
                "{bug:?} must surface a {} finding:\n{}",
                bug.rule(),
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
        // (through the stream model or the conservation laws).
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
                v.findings.iter().any(|f| f.rule == bug.rule()) || !v.divergences.is_empty(),
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

        assert!(parse_corpus_entry("ops = 64\n").unwrap_err().contains("missing `seed`"));
        assert!(parse_corpus_entry("seed = banana\n").unwrap_err().contains("needs a number"));
        assert!(parse_corpus_entry("seed = 1\nbogus = 2\n").unwrap_err().contains("unknown key"));
        assert!(parse_corpus_entry("just words\n").unwrap_err().contains("key = value"));
    }
}
