//! The server runtime: acceptor, per-connection threads and the admission
//! gate.
//!
//! ```text
//!  TcpListener ── acceptor ── connection thread ── its row: api::route(method, path)
//!                               ├─ inline row: handler
//!                               └─ compute row: gate.admit ─ (503 when full) ─ gate.wait ─ handler
//! ```
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
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// Counts live connection threads so shutdown can wait for them.
#[derive(Default)]
struct WaitGroup {
    count: Mutex<usize>,
    zero: Condvar,
}

impl WaitGroup {
    fn add(&self) {
        *self.count.lock().expect("waitgroup lock poisoned") += 1;
    }

    fn wait(&self) {
        let mut n = self.count.lock().expect("waitgroup lock poisoned");
        while *n > 0 {
            n = self.zero.wait(n).expect("waitgroup lock poisoned");
        }
    }
}

/// Undoes one [`WaitGroup::add`] on drop — also when the thread holding it
/// unwinds, so a panicking connection cannot hang [`WaitGroup::wait`].
struct Done<'a>(&'a WaitGroup);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        // A decrement cannot leave the count invalid, and `Drop` must not
        // panic: take the lock even if it is poisoned.
        let mut n = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        if *n == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// State shared by the acceptor and the connection threads.
struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    metrics: ServeMetrics,
    gate: Gate,
    online: OnlineState,
    stopping: AtomicBool,
    conns: WaitGroup,
}

impl Shared {
    /// Starts the drain: close the gate, then poke the acceptor loose
    /// from `accept()` with a throwaway connection. Idempotent. The gate
    /// closes first, so once the acceptor is gone no request is admitted.
    fn trigger_shutdown(&self) {
        self.gate.close();
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(TcpStream::connect(self.addr));
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Handle::shutdown`] (or `POST /shutdown` + [`Handle::join`]).
pub struct Handle {
    shared: Arc<Shared>,
    acceptor: thread::JoinHandle<()>,
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
    /// acceptor gone, every admitted request run, every connection
    /// answered.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor panicked");
        self.shared.conns.wait();
    }
}

/// Binds `127.0.0.1:{port}` and starts the acceptor thread.
///
/// # Errors
///
/// The bind error, if the port is taken.
pub fn start(cfg: ServeConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        gate: Gate::new(pool::jobs(), cfg.queue_capacity),
        cfg,
        addr,
        online: OnlineState::default(),
        metrics: ServeMetrics::default(),
        stopping: AtomicBool::new(false),
        conns: WaitGroup::default(),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(Handle { shared, acceptor })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.stopping.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // The shutdown poke (or a late client, who sees a reset).
            break;
        }
        shared.conns.add();
        let shared = Arc::clone(shared);
        thread::spawn(move || {
            let _done = Done(&shared.conns);
            serve_connection(stream, &shared);
        });
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

    #[test]
    fn a_guard_dropped_by_a_panicking_thread_still_releases_wait() {
        let wg = Arc::new(WaitGroup::default());
        wg.add();
        let conn = {
            let wg = Arc::clone(&wg);
            thread::spawn(move || {
                let _done = Done(&wg);
                panic!("connection thread panicked");
            })
        };
        assert!(conn.join().is_err());
        wg.wait(); // would hang had the unwinding thread not checked out
    }

    #[test]
    fn a_panicking_handler_maps_to_500() {
        let resp = run_handler(|| panic!("handler bug"));
        assert_eq!(resp.status, 500);
        assert_eq!(run_handler(|| Response::text(200, "ok\n")).status, 200);
    }
}
