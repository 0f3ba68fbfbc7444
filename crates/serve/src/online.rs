//! The online tier of the service: `POST /submit` streams sporadic jobs
//! into one persistent [`l15_online::OnlineSession`], `GET /jobs`
//! inspects it.
//!
//! Unlike the compute endpoints — pure functions of the request bytes,
//! run side by side behind the admission gate — the online endpoints are
//! *stateful*: every submission is an admission decision against the jobs
//! already resident, so requests are serialised on a session mutex and
//! handled inline on the connection thread (they never pass the gate; the
//! mutex already lets one decide at a time). The
//! decision sequence is a pure function of the submission order: a
//! single-threaded client replays byte-identically.
//!
//! Wire grammar on `POST /submit`:
//!
//! * plain `.dag` body — one sporadic arrival; the session stamps it at
//!   its own virtual clock and answers `admitted` (cluster + RTA bound)
//!   or `rejected` (stable reason code), always 200 — a rejection is a
//!   scheduling verdict, not a protocol error;
//! * `?mode=NAME[&keep=1,2][&zeta=N]` — an R6-gated mode change; a
//!   typed refusal maps to `409` with the [`l15_online::ModeError`]
//!   code;
//! * `?reset=1` — tear the session down and boot a fresh one.

use std::sync::Mutex;

use l15_online::{Decision, ModeError, OnlineConfig, OnlineSession};
use l15_soc::PORT_WAYS;

use crate::api::{int_param, parse_body, Limits};
use crate::http::{Request, Response};
use crate::json::{self, Obj};
use crate::metrics::ServeMetrics;

/// The persistent online session behind `/submit` and `/jobs`.
pub struct OnlineState {
    session: Mutex<OnlineSession>,
}

impl Default for OnlineState {
    fn default() -> Self {
        OnlineState { session: Mutex::new(OnlineSession::new(session_config())) }
    }
}

/// The service session runs analytically (`execute: false`): admission,
/// replanning and mode quiescence on the live uncore, but no per-job
/// cycle-accurate execution — submission latency stays bounded by the
/// federated analysis, not the workload.
fn session_config() -> OnlineConfig {
    OnlineConfig { execute: false, ..OnlineConfig::default() }
}

impl OnlineState {
    /// Handles `POST /submit` (arrival, mode change or reset).
    pub fn submit(&self, req: &Request, limits: &Limits, metrics: &ServeMetrics) -> Response {
        let mut session = self.session.lock().expect("online session lock poisoned");
        if req.query_param("reset").is_some() {
            *session = OnlineSession::new(session_config());
            metrics.online_resets.inc();
            let mut o = Obj::new();
            o.bool("reset", true).str("mode", &session.mode().name);
            return Response::json(200, o.finish());
        }
        if let Some(name) = req.query_param("mode") {
            return mode_change(&mut session, name, req, metrics);
        }
        if session.jobs().len() >= limits.max_online_jobs {
            return Response::error(
                429,
                &format!("session holds {} job records; reset it", limits.max_online_jobs),
            );
        }
        let task = match parse_body(&req.body, limits) {
            Ok(task) => task,
            Err(resp) => return resp,
        };
        let id = session.submit(task, 0);
        metrics.online_submitted.inc();
        let job = session.job(id).expect("job recorded for the id just returned");
        let mut o = Obj::new();
        o.int("id", id as u64)
            .int("arrival_cycle", job.arrival_cycle)
            .int("decision_cycle", job.decision_cycle)
            .str("plan_digest", &format!("{:016x}", job.plan_digest))
            .str("mode", &session.mode().name);
        match &job.decision {
            Decision::Admitted { cluster, bound } => {
                metrics.online_admitted.inc();
                o.bool("admitted", true).int("cluster", *cluster as u64).num("bound", *bound);
            }
            Decision::Rejected { code, reason } => {
                metrics.online_rejected.inc();
                o.bool("admitted", false).str("code", code).str("reason", reason);
            }
        }
        Response::json(200, o.finish())
    }

    /// Handles `GET /jobs`: the session's job ledger and metrics.
    pub fn jobs(&self) -> Response {
        let session = self.session.lock().expect("online session lock poisoned");
        let m = session.metrics();
        let jobs = json::obj_array(session.jobs(), |o, job| {
            o.int("id", job.id as u64)
                .int("arrival_cycle", job.arrival_cycle)
                .int("decision_cycle", job.decision_cycle)
                .bool("admitted", job.decision.admitted())
                .bool("retired", job.retired)
                .str("plan_digest", &format!("{:016x}", job.plan_digest));
            if let Decision::Rejected { code, .. } = &job.decision {
                o.str("code", code);
            }
        });
        let mut metrics_obj = Obj::new();
        metrics_obj
            .int("submitted", m.submitted)
            .int("admitted", m.admitted)
            .int("rejected", m.rejected)
            .int("replans", m.replans)
            .int("mode_changes", m.mode_changes)
            .int("reclaimed_ways", m.reclaimed_ways)
            .int("retired", m.retired)
            .int("executed", m.executed);
        let mut o = Obj::new();
        o.str("mode", &session.mode().name)
            .int("zeta_cap", session.mode().zeta_cap as u64)
            .int("virtual_now", session.virtual_now())
            .int("active", session.active().len() as u64)
            .raw("metrics", &metrics_obj.finish())
            .raw("jobs", &jobs);
        Response::json(200, o.finish())
    }
}

/// `?mode=NAME[&keep=1,2][&zeta=N]`: validates the parameters, runs the
/// R6-gated switch, and maps a typed refusal to `409` with its stable
/// code — the session is untouched on refusal.
fn mode_change(
    session: &mut OnlineSession,
    name: &str,
    req: &Request,
    metrics: &ServeMetrics,
) -> Response {
    if name.is_empty() || name.len() > 64 {
        return Response::error(400, "`mode` must be a name of 1..=64 characters");
    }
    let keep = match req.query_param("keep").filter(|raw| !raw.is_empty()) {
        None => Ok(Vec::new()),
        Some(raw) => raw.split(',').map(|s| s.trim().parse::<usize>()).collect(),
    };
    let Ok(keep) = keep else {
        return Response::error(400, "`keep` must be comma-separated job ids");
    };
    let zeta = match int_param(req, "zeta", session.mode().zeta_cap as u64, PORT_WAYS as u64) {
        Ok(zeta) => zeta as usize,
        Err(resp) => return resp,
    };
    match session.switch_mode(name, &keep, zeta) {
        Ok(report) => {
            metrics.online_mode_changes.inc();
            let mut o = Obj::new();
            o.str("mode", &report.mode)
                .int("reclaimed_ways", report.reclaimed_ways as u64)
                .int("settle_cycles", report.settle_cycles)
                .int("survivors", report.survivors as u64)
                .int("dropped", report.dropped as u64)
                .str("plan_digest", &format!("{:016x}", report.plan_digest));
            Response::json(200, o.finish())
        }
        Err(e) => {
            let mut o = Obj::new();
            o.str("error", &format!("{e}")).str("code", e.code());
            let status = match e {
                // A malformed keep set is the caller's fault; the rest
                // are scheduling refusals.
                ModeError::UnknownJob(_) => 400,
                _ => 409,
            };
            Response { status, ..Response::json(200, o.finish()) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(query: &str, body: &[u8]) -> Request {
        Request {
            method: String::from("POST"),
            path: String::from("/submit"),
            query: String::from(query),
            body: body.to_vec(),
        }
    }

    const TASK: &str = "\
task period=50 deadline=40
node 0 wcet=1 data=2048
node 1 wcet=2 data=0
edge 0 1 cost=0.5 alpha=0.5
";

    #[test]
    fn submit_admits_and_reports_the_decision() {
        let state = OnlineState::default();
        let metrics = ServeMetrics::default();
        let resp = state.submit(&req("", TASK.as_bytes()), &Limits::default(), &metrics);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"admitted\":true"), "{body}");
        assert!(body.contains("\"id\":0"), "{body}");
        assert_eq!(metrics.online_submitted.get(), 1);
        assert_eq!(metrics.online_admitted.get(), 1);
        assert_eq!(metrics.online_rejected.get(), 0);
    }

    #[test]
    fn garbage_bodies_are_4xx_and_leave_the_session_untouched() {
        let state = OnlineState::default();
        let metrics = ServeMetrics::default();
        let resp = state.submit(&req("", b"not a dag\n"), &Limits::default(), &metrics);
        assert!((400..500).contains(&resp.status), "{}", resp.status);
        assert_eq!(metrics.online_submitted.get(), 0);
        let jobs = state.jobs();
        let body = String::from_utf8(jobs.body).unwrap();
        assert!(body.contains("\"submitted\":0"), "{body}");
    }

    #[test]
    fn mode_change_reset_and_jobs_round_trip() {
        let state = OnlineState::default();
        let metrics = ServeMetrics::default();
        let r = state.submit(&req("", TASK.as_bytes()), &Limits::default(), &metrics);
        assert_eq!(r.status, 200);

        // Switch dropping the job; refusals of bad ids are 400.
        let r = state.submit(&req("mode=night&keep=7", b""), &Limits::default(), &metrics);
        assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(&r.body));
        let r = state.submit(&req("mode=night&zeta=8", b""), &Limits::default(), &metrics);
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"mode\":\"night\""), "{body}");
        assert!(body.contains("\"reclaimed_ways\""), "{body}");
        assert_eq!(metrics.online_mode_changes.get(), 1);

        let body = String::from_utf8(state.jobs().body).unwrap();
        assert!(body.contains("\"mode\":\"night\""), "{body}");
        assert!(body.contains("\"zeta_cap\":8"), "{body}");

        // Reset boots a fresh session in the default mode.
        let r = state.submit(&req("reset=1", b""), &Limits::default(), &metrics);
        assert_eq!(r.status, 200);
        let body = String::from_utf8(state.jobs().body).unwrap();
        assert!(body.contains("\"submitted\":0"), "{body}");
        assert!(body.contains("\"mode\":\"boot\""), "{body}");
        assert_eq!(metrics.online_resets.get(), 1);
    }

    #[test]
    fn invalid_mode_parameters_are_400() {
        let state = OnlineState::default();
        let metrics = ServeMetrics::default();
        for query in
            ["mode=", "mode=x&zeta=0", "mode=x&zeta=33", "mode=x&zeta=nope", "mode=x&keep=a,b"]
        {
            let r = state.submit(&req(query, b""), &Limits::default(), &metrics);
            assert_eq!(r.status, 400, "query {query}: {}", String::from_utf8_lossy(&r.body));
        }
        assert_eq!(metrics.online_mode_changes.get(), 0);
    }
}
