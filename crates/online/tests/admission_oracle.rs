//! The memoising session against the from-scratch oracle.
//!
//! `OnlineSession::submit` analyses only the candidate and places it
//! behind the analyses it kept for the active jobs. This suite replays
//! seeded sporadic streams — light tasks, one- and multi-cluster heavy
//! tasks, every reject code a submit can reach, residents retiring
//! mid-stream (so indices and `tid`s shift), accepted and refused mode
//! changes — and after **every** event recomputes
//! `federated_partition(active tasks ++ candidate)` from nothing: the
//! session's decision (cluster, bound bits), reject code and reason,
//! `plan()` and `plan_digest` must equal it. Replay a failure with
//! `L15_PROP_SEED`.

use std::collections::BTreeSet;

use l15_core::baseline::SystemModel;
use l15_core::federated::{federated_partition, ClusterPlan, ClusterTopology, FederatedError};
use l15_dag::{DagBuilder, DagTask, Node};
use l15_online::{
    digest64, small_gen, task_for, Decision, ModeError, OnlineConfig, OnlineSession, StreamParams,
};
use l15_soc::SocConfig;
use l15_testkit::arrivals::{sporadic_stream, SporadicParams};
use l15_testkit::prop;

/// The digest of the plan's materialised `Debug` text — what `plan_digest`
/// must keep producing now that it hashes the rendering as a stream.
fn digest_from_scratch(plan: &ClusterPlan) -> u64 {
    digest64(&format!("{plan:?}"))
}

/// What one stream exercised (for the coverage test).
#[derive(Debug, Default)]
struct Seen {
    reject_codes: BTreeSet<&'static str>,
    /// Dedicated cluster counts of admitted heavy tasks.
    heavy_clusters: BTreeSet<usize>,
    light: bool,
    retired: bool,
    switch_accepted: bool,
    switch_refusals: BTreeSet<&'static str>,
}

/// A session plus the oracle's view of it.
struct Checked {
    session: OnlineSession,
    topology: ClusterTopology,
    /// Per-task analyses the session should have run so far.
    analysed: u64,
    seen: Seen,
}

impl Checked {
    fn new(big: bool, job_lifetime: u64) -> Self {
        let (topology, soc) = if big {
            (ClusterTopology { clusters: 8, cores_per_cluster: 4 }, SocConfig::proposed_32core())
        } else {
            (ClusterTopology::default(), SocConfig::proposed_8core())
        };
        let cfg =
            OnlineConfig { topology, soc, execute: false, job_lifetime, ..OnlineConfig::default() };
        Checked { session: OnlineSession::new(cfg), topology, analysed: 0, seen: Seen::default() }
    }

    /// The model a from-scratch caller would plan with under way budget
    /// `zeta_cap` (derived from public state only).
    fn model(zeta_cap: usize) -> SystemModel {
        let mut model = SystemModel::proposed();
        model.zeta = zeta_cap.max(1);
        model
    }

    fn tasks_of(&self, ids: &[usize]) -> Vec<DagTask> {
        ids.iter().map(|&j| self.session.job(j).expect("active id").task.clone()).collect()
    }

    /// Submits `task` and checks the verdict against the oracle.
    fn submit(&mut self, task: DagTask, cycle: u64) {
        let plan_before = self.session.plan().cloned();
        let retired_before = self.session.metrics().retired;
        let id = self.session.submit(task.clone(), cycle);
        self.analysed += 1;
        self.seen.retired |= self.session.metrics().retired > retired_before;

        // The residents the candidate was placed behind: whoever is active
        // now (retirement ran first), minus the candidate itself.
        let residents: Vec<usize> =
            self.session.active().iter().copied().filter(|&j| j != id).collect();
        let mut tasks = self.tasks_of(&residents);
        tasks.push(task);
        let model = Self::model(self.session.mode().zeta_cap);
        let job = self.session.job(id).expect("submit returned this id");
        let eval_cost = OnlineConfig::default().eval_cost_per_task;
        assert_eq!(job.eval_cycles, eval_cost * tasks.len() as u64, "charged per candidate");
        match federated_partition(&tasks, self.topology, &model) {
            Ok(plan) => {
                let mine = plan.assignments.last().expect("the candidate is last");
                match job.decision {
                    Decision::Admitted { cluster, bound } => {
                        assert_eq!(cluster, mine.clusters[0], "job {id}");
                        assert_eq!(bound.to_bits(), mine.bound.to_bits(), "job {id}");
                    }
                    ref d => panic!("job {id}: oracle admits, session says {d:?}"),
                }
                assert_eq!(job.plan_digest, digest_from_scratch(&plan), "job {id}");
                assert_eq!(self.session.plan(), Some(&plan), "job {id}");
                assert_eq!(self.session.active().last(), Some(&id));
                if mine.heavy {
                    self.seen.heavy_clusters.insert(mine.clusters.len());
                } else {
                    self.seen.light = true;
                }
            }
            Err(e) => {
                let want = Decision::Rejected { code: e.code(), reason: e.to_string() };
                assert_eq!(job.decision, want, "job {id}");
                assert_eq!(job.plan_digest, 0);
                assert_eq!(self.session.plan(), plan_before.as_ref(), "a reject keeps the plan");
                assert_eq!(self.session.active(), residents);
                self.seen.reject_codes.insert(e.code());
            }
        }
    }

    /// Attempts a mode change and checks outcome and state against the
    /// oracle; returns whether it was accepted.
    fn switch(&mut self, name: &str, keep: &[usize], zeta_cap: usize) -> bool {
        let active_before = self.session.active().to_vec();
        let mode_before = self.session.mode().clone();
        let plan_before = self.session.plan().cloned();
        let got = self.session.switch_mode(name, keep, zeta_cap);

        let survivors: Vec<usize> =
            active_before.iter().copied().filter(|id| keep.contains(id)).collect();
        let want: Result<Option<ClusterPlan>, ModeError> =
            if let Some(&unknown) = keep.iter().find(|id| !active_before.contains(id)) {
                Err(ModeError::UnknownJob(unknown))
            } else if survivors.is_empty() {
                Ok(None)
            } else {
                self.analysed += survivors.len() as u64;
                let tasks = self.tasks_of(&survivors);
                federated_partition(&tasks, self.topology, &Self::model(zeta_cap))
                    .map(Some)
                    .map_err(ModeError::Replan)
            };
        match (got, want) {
            (Ok(report), Ok(plan)) => {
                assert_eq!(report.plan_digest, plan.as_ref().map_or(0, digest_from_scratch));
                assert_eq!(report.survivors, survivors.len());
                assert_eq!(self.session.plan(), plan.as_ref());
                assert_eq!(self.session.active(), survivors);
                assert_eq!(self.session.mode().zeta_cap, zeta_cap);
                self.seen.switch_accepted = true;
                true
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want);
                // A typed refusal leaves mode, active set and plan alone —
                // and the memo, which the submits that follow show.
                assert_eq!(self.session.mode(), &mode_before);
                assert_eq!(self.session.active(), active_before);
                assert_eq!(self.session.plan(), plan_before.as_ref());
                self.seen.switch_refusals.insert(got.code());
                false
            }
            (got, want) => panic!("mode {name}: session {got:?}, oracle {want:?}"),
        }
    }
}

/// Fits one cluster only while the L1.5 holds its 16 KiB edge (cost 10 →
/// 3 under ζ = 16); under ζ = 1 the critical path alone (≈ 11) misses the
/// deadline of 8 on any number of clusters.
fn zeta_dependent_task() -> DagTask {
    let mut b = DagBuilder::new();
    let p = b.add_node(Node::new(1.0, 16 * 1024));
    let c = b.add_node(Node::new(1.0, 0));
    b.add_edge(p, c, 10.0, 0.7).unwrap();
    DagTask::new(b.build().unwrap(), 400.0, 8.0).unwrap()
}

/// One seeded stream with three mode-change attempts woven in, every
/// event checked. `util_hi` sets how heavy arrivals get.
fn drive(seed: u64, big: bool, util_hi: f64, job_lifetime: u64) -> Seen {
    const COUNT: usize = 48;
    let mut c = Checked::new(big, job_lifetime);
    let params = StreamParams {
        seed,
        arrivals: SporadicParams { count: COUNT, min_gap: 2_000, max_extra: 6_000 },
        util_range: (0.05, util_hi),
        gen: small_gen(),
        mode_switch: None,
    };
    for arrival in sporadic_stream(seed, &params.arrivals) {
        match arrival.index {
            // Refused before anything is analysed: a kept id that was
            // never submitted.
            12 => {
                let mut keep = c.session.active().to_vec();
                keep.push(usize::MAX);
                assert!(!c.switch("bogus", &keep, 8));
            }
            // Refused by the replan: the ζ-dependent job no longer fits
            // under one way. The survivors were re-analysed under ζ = 1 —
            // the arrivals that follow still match the oracle under the
            // old ζ, so none of that reached the memo.
            24 => {
                c.submit(zeta_dependent_task(), arrival.cycle);
                let keep = c.session.active().to_vec();
                let holds_it = keep.last().is_some_and(|&j| {
                    c.session.job(j).expect("active id").task == zeta_dependent_task()
                });
                let accepted = c.switch("tiny", &keep, 1);
                assert!(!(holds_it && accepted), "ζ = 1 cannot hold the ζ-dependent job");
            }
            // Accepted (unless the survivors happen not to fit): half the
            // way budget, the newest residents kept — every later arrival
            // is placed behind analyses made under the new ζ.
            36 => {
                let active = c.session.active();
                let keep = active[active.len().saturating_sub(6)..].to_vec();
                c.switch("half", &keep, 8);
            }
            _ => {}
        }
        c.submit(task_for(&arrival, &params), arrival.cycle);
    }
    // Counted where it happens: one analysis per arrival, one per
    // survivor of every mode change that got as far as its replan.
    assert_eq!(c.session.metrics().analysed, c.analysed);
    c.seen
}

#[test]
fn session_matches_the_from_scratch_oracle_after_every_event() {
    prop::run_with(prop::Config::with_cases(24), "admission_oracle", |g| {
        let seed = g.any_u64();
        let big = g.bool();
        let util_hi = g.f64_in(0.4, 10.0);
        let job_lifetime = g.u64_in(30_000..=400_000);
        drive(seed, big, util_hi, job_lifetime);
    });
}

/// The stream family reaches what the property is meant to check: fixed
/// seeds, so a change to the generators that hollows the property out is
/// a failure here rather than a silent loss of coverage.
#[test]
fn the_stream_family_covers_every_reachable_outcome() {
    let mut all = Seen::default();
    for seed in 0..8u64 {
        for big in [false, true] {
            let util_hi = [1.2, 3.5, 10.0][seed as usize % 3];
            let s = drive(0x0ac1e + seed, big, util_hi, 120_000);
            all.reject_codes.extend(s.reject_codes);
            all.heavy_clusters.extend(s.heavy_clusters);
            all.switch_refusals.extend(s.switch_refusals);
            all.light |= s.light;
            all.retired |= s.retired;
            all.switch_accepted |= s.switch_accepted;
        }
    }
    let reachable: BTreeSet<&str> = [
        FederatedError::Overutilized { utilisation: 0.0, cores: 0 },
        FederatedError::TaskUnschedulable { task: 0, bound: 0.0, deadline: 0.0 },
        FederatedError::NotEnoughClusters { needed: 0, available: 0 },
        FederatedError::LightTaskUnplaceable { task: 0, utilisation: 0.0 },
    ]
    .iter()
    .map(FederatedError::code)
    .collect();
    assert_eq!(all.reject_codes, reachable, "{all:?}");
    assert!(all.light && all.retired && all.switch_accepted, "{all:?}");
    assert!(all.heavy_clusters.contains(&1), "{all:?}");
    assert!(all.heavy_clusters.iter().any(|&n| n > 1), "{all:?}");
    assert!(all.switch_refusals.contains("unknown-job"), "{all:?}");
    assert!(all.switch_refusals.contains("task-unschedulable"), "{all:?}");
}
