//! `l15 serve`: bind, print the address, serve until a `POST /shutdown`
//! arrives.
//!
//! ```text
//! l15 serve [--quick] [--port N] [--queue N] [--deadline-ms N]
//!           [--max-body N]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the chosen address is
//! printed as `listening on 127.0.0.1:PORT` so scripts can scrape it.
//! `--quick` shrinks the simulate caps for seconds-scale smoke runs.

use std::time::Duration;

use l15_serve::{server, ServeConfig};
use l15_testkit::cli::Parsed;

use crate::{Error, Outcome};

pub fn run(args: &Parsed) -> Outcome {
    let port = args.number("--port", 0).map_err(Error::Usage)?;
    let mut cfg = ServeConfig { port, ..ServeConfig::default() };
    cfg.queue_capacity = args.value_or("--queue", cfg.queue_capacity as u64) as usize;
    cfg.deadline = Duration::from_millis(args.value_or("--deadline-ms", 2000));
    cfg.max_body = args.value_or("--max-body", cfg.max_body as u64) as usize;
    if args.quick {
        cfg.limits.max_sim_nodes = 16;
        cfg.limits.max_sim_cycles = 2_000_000;
    }

    let handle = server::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr());
    println!(
        "endpoints: POST /schedule /analyze /simulate /check /trace /certify /submit /shutdown; \
         GET /healthz /metrics /jobs"
    );
    handle.join();
    println!("drained and stopped");
    Ok(true)
}
