//! The server runtime: a warm, bounded set of connection threads and the
//! admission gate.
//!
//! ```text
//!  TcpListener ── connection thread: accept ── its row: api::route(method, path) ── accept again
//!                                                 ├─ inline row: handler
//!                                                 └─ compute row: gate.admit ─ (503 when full) ─ gate.wait ─ handler
//! ```
//!
//! Each connection thread loops — accept, serve that one connection,
//! accept again — so no thread is spawned or exits per request. The last
//! thread waiting in `accept()` spawns its successor before it serves, up
//! to what the gate admits plus `SPARE_THREADS`; a thread that finishes
//! while `IDLE_KEPT` peers wait in `accept()` retires.
//!
//! Every handler runs under `run_handler`, so a panic costs its one
//! response (`500`). A compute request runs on the connection thread that
//! read it, behind the [`Gate`]: `l15_testkit::pool::jobs()` (`L15_JOBS`)
//! of them run at once, up to `queue_capacity` more wait their turn in
//! arrival order, and a full gate sheds load with `503 Retry-After` at
//! admission. Compute handlers are pure functions of the request bytes and
//! share no state, so nothing else is synchronised. Graceful shutdown
//! (`POST /shutdown` or [`Handle::shutdown`]) closes the gate, lets every
//! admitted request finish, and waits for all connection threads —
//! admitted work is never dropped.
//!
//! The online endpoints (`POST /submit`, `GET /jobs`) are stateful and
//! bypass the gate entirely: they serialise on the persistent
//! [`OnlineState`] session mutex on the connection thread (see
//! [`crate::online`]).

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use l15_testkit::pool;

use crate::api::{self, Limits, Serve};
use crate::gate::{AdmitError, Gate};
use crate::http::{read_request, Request, RequestError, Response};
use crate::metrics::{Endpoint, ServeMetrics};
use crate::online::OnlineState;

/// Server tuning knobs; the bin maps its flags onto this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// How many admitted requests may wait for a free slot.
    pub queue_capacity: usize,
    /// Waiting deadline: a request that waited longer than this for its
    /// slot gets `503` instead of being executed.
    pub deadline: Duration,
    /// Request body cap in bytes.
    pub max_body: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Validation caps of the compute endpoints.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            queue_capacity: 64,
            deadline: Duration::from_secs(2),
            max_body: 256 * 1024,
            io_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// Threads beyond what the gate admits, so that an inline row (`/healthz`,
/// `/metrics`) or a 503 refusal finds a thread while every admitted request
/// holds one.
const SPARE_THREADS: usize = 2;

/// How many connection threads stay waiting in `accept()` between bursts:
/// a thread that finishes while this many peers wait there retires. A
/// client's next connection can arrive before the thread that answered
/// its last one is back in `accept()`, so `c` closed-loop clients need
/// about `c + 2` threads; at 2, two clients made a thread retire and its
/// successor spawn every few requests.
const IDLE_KEPT: usize = 4;

/// Connection threads alive, and how many of them wait in `accept()`.
struct Census {
    live: usize,
    idle: usize,
}

/// One connection thread's place in the [`Census`], counted before the
/// thread starts and given back on drop — when it retires, when it unwinds,
/// and when the OS refuses to start it (the closure holding it is dropped).
struct Seat {
    shared: Arc<Shared>,
    /// Counted among the threads waiting in `accept()`.
    idle: bool,
}

impl Seat {
    /// Leaves `accept()` with a connection. The last thread waiting there
    /// gets the seat of a successor to spawn, unless the set is at its
    /// bound or the server is stopping.
    fn leave_accept(&mut self) -> Option<Seat> {
        let shared = &self.shared;
        let mut c = shared.census();
        c.idle -= 1;
        self.idle = false;
        if c.idle > 0 || c.live == shared.max_threads || shared.stopping.load(Ordering::SeqCst) {
            return None;
        }
        c.live += 1;
        c.idle += 1;
        Some(Seat { shared: Arc::clone(shared), idle: true })
    }

    /// Goes back to `accept()`, or answers `false` (retire) when
    /// [`IDLE_KEPT`] peers already wait there.
    fn rejoin(&mut self) -> bool {
        let mut c = self.shared.census();
        if c.idle >= IDLE_KEPT {
            return false;
        }
        c.idle += 1;
        self.idle = true;
        true
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        let mut c = self.shared.census();
        c.live -= 1;
        if self.idle {
            c.idle -= 1;
        }
        if c.live == 0 {
            self.shared.none_left.notify_all();
        }
    }
}

/// State shared by the connection threads.
struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    metrics: ServeMetrics,
    gate: Gate,
    online: OnlineState,
    stopping: AtomicBool,
    census: Mutex<Census>,
    none_left: Condvar,
    /// What the gate admits plus [`SPARE_THREADS`]: never more connection
    /// threads are alive.
    max_threads: usize,
}

impl Shared {
    /// Nothing panics while holding the lock, so the census is valid even
    /// if the lock is poisoned; taking it regardless keeps [`Seat`]'s
    /// `Drop` from panicking.
    fn census(&self) -> MutexGuard<'_, Census> {
        self.census.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts the drain: close the gate, then poke a connection thread
    /// loose from `accept()` with a throwaway connection. Idempotent. The
    /// gate closes first, so no request accepted after the poke is
    /// admitted.
    fn trigger_shutdown(&self) {
        self.gate.close();
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.poke();
    }

    fn poke(&self) {
        drop(TcpStream::connect(self.addr));
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Handle::shutdown`] (or `POST /shutdown` + [`Handle::join`]).
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Initiates the drain and waits for full termination.
    pub fn shutdown(self) {
        self.shared.trigger_shutdown();
        self.join();
    }

    /// Waits until the server terminates (e.g. via `POST /shutdown`):
    /// every admitted request run, every accepted connection answered,
    /// every connection thread gone and the listener closed.
    pub fn join(self) {
        let mut c = self.shared.census();
        while c.live > 0 {
            c = self.shared.none_left.wait(c).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Binds `127.0.0.1:{port}` and starts the first connection thread.
///
/// # Errors
///
/// The bind error, if the port is taken.
pub fn start(cfg: ServeConfig) -> std::io::Result<Handle> {
    let listener = Arc::new(TcpListener::bind(("127.0.0.1", cfg.port))?);
    let addr = listener.local_addr()?;
    let gate = Gate::new(pool::jobs(), cfg.queue_capacity);
    let shared = Arc::new(Shared {
        max_threads: gate.limit() + SPARE_THREADS,
        gate,
        cfg,
        addr,
        online: OnlineState::default(),
        metrics: ServeMetrics::default(),
        stopping: AtomicBool::new(false),
        census: Mutex::new(Census { live: 1, idle: 1 }),
        none_left: Condvar::new(),
    });
    spawn(Seat { shared: Arc::clone(&shared), idle: true }, listener);
    Ok(Handle { shared })
}

/// Starts a connection thread in `seat`; the one place the server spawns
/// a thread (`scripts/ci.sh` holds it to one). Detached: [`Handle::join`]
/// waits on the census instead, which a panicking thread's `Seat` leaves.
fn spawn(seat: Seat, listener: Arc<TcpListener>) {
    thread::spawn(move || connection_thread(seat, listener));
}

/// One connection thread: accept, serve, accept again, until it retires
/// or the server stops. Once `stopping` is set, a thread that leaves
/// `accept()` passes the poke on to the next waiting one, so the shutdown
/// wakes them all in turn. It still serves what it accepted: the poke
/// reads as an empty connection, and a client gets its answer (a compute
/// request a 503 "draining").
fn connection_thread(mut seat: Seat, listener: Arc<TcpListener>) {
    let shared = Arc::clone(&seat.shared);
    loop {
        let accepted = listener.accept();
        if let Some(successor) = seat.leave_accept() {
            spawn(successor, Arc::clone(&listener));
        }
        if shared.stopping.load(Ordering::SeqCst) {
            shared.poke();
        }
        if let Ok((stream, _peer)) = accepted {
            serve_connection(stream, &shared);
        }
        if shared.stopping.load(Ordering::SeqCst) || !seat.rejoin() {
            // `listener` drops before `seat`: the last thread closes the
            // port before `Handle::join` can return.
            return;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader, shared.cfg.max_body) {
        Ok(r) => r,
        Err(e) => {
            let resp = match e {
                RequestError::Io(_) => return, // peer gone; nobody to answer
                RequestError::BadRequest(msg) => Response::error(400, &msg),
                RequestError::HeadTooLarge => Response::error(431, "request head too large"),
                RequestError::BodyTooLarge { limit } => {
                    Response::error(413, &format!("body exceeds {limit} bytes"))
                }
            };
            return write_response(reader.into_inner(), &resp, shared);
        }
    };
    let stream = reader.into_inner();
    let ix = match api::route(&request.method, &request.path) {
        Ok(ix) => ix,
        Err(refusal) => return write_response(stream, &refusal, shared),
    };
    // An inline row counts first, so a `/metrics` page includes the fetch
    // that produced it.
    let inline = |handler: &dyn Fn() -> Response| {
        shared.metrics.requests[ix].inc();
        run_handler(handler)
    };
    let serve = api::ROWS[ix].serve;
    let resp = match serve {
        Serve::Compute(endpoint, _) => serve_compute(endpoint, &request, shared),
        Serve::Healthz => inline(&|| Response::text(200, "ok\n")),
        Serve::Metrics => {
            inline(&|| Response::text(200, shared.metrics.render(shared.gate.waiting())))
        }
        // Stateful: serialised on the session mutex, never gated — each
        // decision depends on the jobs already resident.
        Serve::Submit => {
            inline(&|| shared.online.submit(&request, &shared.cfg.limits, &shared.metrics))
        }
        Serve::Jobs => inline(&|| shared.online.jobs()),
        Serve::Shutdown => inline(&|| Response::json(200, "{\"draining\":true}".to_owned())),
    };
    // Answer first, then start the drain — the shutdown caller always gets
    // its acknowledgement.
    write_response(stream, &resp, shared);
    if matches!(serve, Serve::Shutdown) {
        shared.trigger_shutdown();
    }
}

/// A compute request, on the connection thread that read it: admitted or
/// refused without blocking, then run once a slot is free. The slot is
/// given back before the response is written.
fn serve_compute(endpoint: Endpoint, request: &Request, shared: &Shared) -> Response {
    let retry_later = |msg| Response::error(503, msg).with_header("Retry-After", "1".to_owned());
    let arrived = Instant::now();
    let ticket = match shared.gate.admit() {
        Ok(ticket) => ticket,
        Err(AdmitError::Full) => {
            shared.metrics.rejected.inc();
            return retry_later("queue full, retry later");
        }
        Err(AdmitError::Closed) => return retry_later("server is draining"),
    };
    shared.metrics.requests[endpoint as usize].inc();
    let _slot = shared.gate.wait(ticket);
    let waited = arrived.elapsed();
    if waited > shared.cfg.deadline {
        shared.metrics.expired.inc();
        return retry_later("deadline expired in queue");
    }
    shared.metrics.queue_wait[endpoint as usize].observe(waited);
    let t0 = Instant::now();
    let resp = run_handler(|| api::handle_compute(endpoint, request, &shared.cfg.limits));
    shared.metrics.handle_time[endpoint as usize].observe(t0.elapsed());
    record_trace_drops(&shared.metrics, &resp);
    resp
}

/// Runs `handler`; a panic inside it costs this one response (`500`), not
/// the connection thread's bookkeeping or the server.
fn run_handler(handler: impl FnOnce() -> Response) -> Response {
    // Compute handlers share no state. A panic inside `/submit` poisons the
    // session mutex, so each later `/submit` or `/jobs` answers 500 as well.
    catch_unwind(AssertUnwindSafe(handler))
        .unwrap_or_else(|_| Response::error(500, "handler panicked"))
}

fn write_response(mut stream: TcpStream, resp: &Response, shared: &Shared) {
    shared.metrics.record_status(resp.status);
    let _ = resp.write_to(&mut stream);
}

/// Folds the `X-L15-Trace-Dropped-By` header (`category=count` pairs) that
/// only a `/trace` response carries into `l15_trace_dropped_events_total`.
fn record_trace_drops(metrics: &ServeMetrics, resp: &Response) {
    let Some(by) = resp.header("X-L15-Trace-Dropped-By") else {
        return;
    };
    for (category, count) in by.split(',').filter_map(|pair| pair.split_once('=')) {
        if let Ok(n) = count.parse::<u64>() {
            metrics.add_trace_dropped(category, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// `(live, idle)` connection threads.
    fn census(handle: &Handle) -> (usize, usize) {
        let c = handle.shared.census();
        (c.live, c.idle)
    }

    /// Polls the census until `done` holds for it.
    fn await_census(handle: &Handle, done: impl Fn(usize, usize) -> bool) {
        let t0 = Instant::now();
        while !matches!(census(handle), (live, idle) if done(live, idle)) {
            assert!(t0.elapsed() < TIMEOUT, "census stuck at {:?}", census(handle));
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `handle.shutdown()` and fails, instead of hanging, if it does
    /// not return within `limit`.
    fn shutdown_within(handle: Handle, limit: Duration) {
        let (done, returned) = mpsc::channel();
        thread::spawn(move || {
            handle.shutdown();
            let _ = done.send(());
        });
        returned.recv_timeout(limit).expect("Handle::shutdown did not return");
    }

    #[test]
    fn a_seat_dropped_by_a_panicking_thread_still_releases_join() {
        let handle = start(ServeConfig::default()).unwrap();
        handle.shared.census().live += 1;
        let seat = Seat { shared: Arc::clone(&handle.shared), idle: false };
        let conn = thread::spawn(move || {
            let _seat = seat;
            panic!("connection thread panicked");
        });
        assert!(conn.join().is_err());
        // Would hang had the unwinding thread kept its place in the census.
        shutdown_within(handle, TIMEOUT);
    }

    #[test]
    fn a_flood_of_silent_connections_never_grows_the_set_past_its_bound() {
        let cfg = ServeConfig {
            queue_capacity: 1,
            io_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let handle = start(cfg).unwrap();
        let (addr, bound) = (handle.addr(), handle.shared.max_threads);
        assert_eq!(bound, pool::jobs().max(1) + 1 + SPARE_THREADS);
        // Connected, never a byte sent: each one holds a thread until its
        // read times out.
        let silent: Vec<_> = (0..bound + 5).map(|_| TcpStream::connect(addr).unwrap()).collect();
        await_census(&handle, |live, _| live >= bound);
        // Answered once the timeouts have freed the threads; the census is
        // sampled all the while.
        let healthz = thread::spawn(move || crate::client::get(addr, "/healthz", TIMEOUT));
        while !healthz.is_finished() {
            let (live, _) = census(&handle);
            assert!(live <= bound, "{live} connection threads against a bound of {bound}");
            thread::sleep(Duration::from_micros(200));
        }
        let r = healthz.join().unwrap().unwrap();
        assert_eq!((r.status, r.text().as_str()), (200, "ok\n"));
        drop(silent);
        shutdown_within(handle, TIMEOUT);
    }

    #[test]
    fn shutdown_wakes_every_idle_thread_through_the_chained_poke() {
        let handle = start(ServeConfig::default()).unwrap();
        let held: Vec<_> = (0..6).map(|_| TcpStream::connect(handle.addr()).unwrap()).collect();
        // Six threads read a held connection; the last spawned waits.
        await_census(&handle, |live, idle| live == 7 && idle == 1);
        drop(held);
        // Each reads end-of-stream: IDLE_KEPT go back to accept(), the
        // rest retire.
        await_census(&handle, |live, idle| live == IDLE_KEPT && idle == IDLE_KEPT);
        // accept() has no timeout: only the poke, passed from thread to
        // thread, lets every waiting one leave.
        shutdown_within(handle, Duration::from_secs(2));
    }

    #[test]
    fn a_panicking_handler_maps_to_500() {
        let resp = run_handler(|| panic!("handler bug"));
        assert_eq!(resp.status, 500);
        assert_eq!(run_handler(|| Response::text(200, "ok\n")).status, 200);
    }
}
