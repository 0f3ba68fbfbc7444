//! The `l15-serve` binary: bind, print the address, serve until a
//! `POST /shutdown` arrives.
//!
//! ```text
//! l15-serve [--quick] [--port N] [--queue N] [--deadline-ms N]
//!           [--max-body N]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the chosen address is
//! printed as `listening on 127.0.0.1:PORT` so scripts can scrape it.
//! `--quick` shrinks the simulate caps for seconds-scale smoke runs.

use std::time::Duration;

use l15_serve::{server, ServeConfig};
use l15_testkit::cli;

fn main() {
    let args =
        cli::parse_or_exit("l15-serve", &[], &["--port", "--queue", "--deadline-ms", "--max-body"]);
    let mut cfg = ServeConfig { port: args.value_or("--port", 0) as u16, ..ServeConfig::default() };
    cfg.queue_capacity = args.value_or("--queue", cfg.queue_capacity as u64) as usize;
    cfg.deadline = Duration::from_millis(args.value_or("--deadline-ms", 2000));
    cfg.max_body = args.value_or("--max-body", cfg.max_body as u64) as usize;
    if args.quick {
        cfg.limits.max_sim_nodes = 16;
        cfg.limits.max_sim_cycles = 2_000_000;
    }

    let handle = match server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("l15-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    println!(
        "endpoints: POST /schedule /analyze /simulate /check /trace /certify /submit /shutdown; \
         GET /healthz /metrics /jobs"
    );
    handle.join();
    println!("drained and stopped");
}
