//! The cycle-accurate monitor in action (Sec. 5.3): run a producer/consumer
//! pair on the simulated SoC with a flight recorder attached, then dump
//! the disassembled programs and the recorded events — loads, stores,
//! control-port operations, Walloc grants and GV traffic, each access with
//! the level of the hierarchy that served it.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```

use l15::cache::l15::InclusionPolicy;
use l15::rvcore::asm::Assembler;
use l15::rvcore::disasm;
use l15::soc::{Soc, SocConfig};
use l15::trace::{EventKind, FlightRecorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let producer = {
        let mut a = Assembler::new();
        a.li(9, 0x8000);
        a.li(10, 77);
        a.sw(9, 10, 0);
        a.ebreak();
        a.finish()?
    };
    let consumer = {
        let mut a = Assembler::new();
        a.li(9, 0x8000);
        a.lw(13, 9, 0);
        a.ebreak();
        a.finish()?
    };

    println!("producer @0x100:\n{}\n", disasm::listing(0x100, &producer));
    println!("consumer @0x4000:\n{}\n", disasm::listing(0x4000, &consumer));

    let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
    soc.uncore_mut().trace_mut().attach(FlightRecorder::new(4096));
    soc.uncore_mut().load_program(0x100, &producer);
    soc.uncore_mut().load_program(0x4000, &consumer);
    {
        let l15 = soc.uncore_mut().l15_mut(0).ok_or("proposed SoC has an L1.5")?;
        l15.demand(0, 1)?;
        l15.settle();
        l15.ip_set(0, InclusionPolicy::Inclusive)?;
    }
    soc.run_core(0, 1_000);
    {
        let l15 = soc.uncore_mut().l15_mut(0).ok_or("cluster 0 exists")?;
        let owned = l15.supply(0)?;
        l15.gv_set(0, owned)?;
    }
    soc.core_mut(1).set_pc(0x4000);
    soc.run_core(1, 1_000);
    assert_eq!(soc.core(1).reg(13), 77);

    let rec = soc.uncore_mut().trace_mut().detach().ok_or("recorder attached above")?;
    println!("recorded events (data accesses and reconfiguration):");
    for e in rec.events() {
        match e.kind {
            EventKind::Load { core, level } => {
                println!("  [{:>6}] core {core} load  <- {}", e.cycle, level.name())
            }
            EventKind::Store { core, via_l15 } => println!(
                "  [{:>6}] core {core} store -> {}",
                e.cycle,
                if via_l15 { "L1.5 (inclusive route)" } else { "L1 (conventional)" }
            ),
            EventKind::Ctrl { core, op, arg } => {
                println!("  [{:>6}] core {core} ctrl  {} arg={arg:#x}", e.cycle, op.name())
            }
            EventKind::WayGrant { cluster, lane, way } => println!(
                "  [{:>6}] walloc grant way {way} -> cluster {cluster} lane {lane}",
                e.cycle
            ),
            EventKind::GvPublish { lane, mask, .. } => {
                println!("  [{:>6}] gv_set lane {lane} mask {mask:#b}", e.cycle)
            }
            EventKind::GvConsume { core, way, .. } => {
                println!("  [{:>6}] core {core} consumed published way {way}", e.cycle)
            }
            _ => {}
        }
    }
    let c = soc.uncore().trace().counters();
    println!(
        "\ncounters: loads by level [L1, L1.5, L2, MEM] = {:?}, stores via L1.5 = {}, grants = {}",
        c.loads, c.stores_via_l15, c.grants
    );
    Ok(())
}
