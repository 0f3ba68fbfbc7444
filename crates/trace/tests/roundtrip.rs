//! Property tests: export → parse → validate round-trips for arbitrary
//! event streams, and the exporter's determinism contract.

use l15_testkit::prop::{self, Config, G};
use l15_trace::chrome;
use l15_trace::json::{self, Value};
use l15_trace::schema;
use l15_trace::{Category, CtrlKind, EventKind, FlightRecorder, Level, SectionKind, TraceEvent};

fn arb_level(g: &mut G) -> Level {
    *g.pick(&[Level::L1, Level::L15, Level::L2, Level::Mem])
}

fn arb_kind(g: &mut G) -> EventKind {
    let core = g.u32_in(0..8);
    let cluster = g.u32_in(0..2);
    let node = g.u32_in(0..16);
    match g.weighted(&[2, 4, 4, 3, 3, 2, 2, 1, 2, 2, 2, 2, 1, 1, 2]) {
        0 => EventKind::PipeStall {
            core,
            if_stall: g.u32_in(0..4) as u16,
            ma_stall: g.u32_in(0..4) as u16,
            hazard: g.u32_in(0..2) as u16,
            flush: g.u32_in(0..3) as u16,
            ex: g.u32_in(0..32) as u16,
        },
        1 => EventKind::Fetch { core, level: arb_level(g) },
        2 => EventKind::Load { core, level: arb_level(g) },
        3 => EventKind::Store { core, via_l15: g.bool() },
        4 => EventKind::Ctrl {
            core,
            op: *g.pick(&[
                CtrlKind::Demand,
                CtrlKind::Supply,
                CtrlKind::GvSet,
                CtrlKind::GvGet,
                CtrlKind::IpSet,
            ]),
            arg: g.u32_in(0..256),
        },
        5 => EventKind::WayGrant { cluster, lane: g.u32_in(0..4), way: g.u32_in(0..16) },
        6 => EventKind::WayRevoke { cluster, way: g.u32_in(0..16) },
        7 => EventKind::SduStall { cluster, backlog: g.u32_in(1..8) },
        8 => EventKind::GvPublish { cluster, lane: g.u32_in(0..4), mask: g.u32_in(0..65536) },
        9 => EventKind::GvConsume { core, cluster, way: g.u32_in(0..16) },
        10 => EventKind::NodeStart { node, core },
        11 => EventKind::NodeFinish { node, core },
        12 => EventKind::WallocStart { core, want: g.u32_in(0..16) },
        13 => EventKind::WallocDone { core, got: g.u32_in(0..16) },
        _ => EventKind::Section {
            core,
            node,
            kind: *g.pick(&[SectionKind::Dispatch, SectionKind::Publish, SectionKind::Reclaim]),
        },
    }
}

fn arb_recorder(g: &mut G) -> FlightRecorder {
    let capacity = g.usize_in(1..=128);
    let count = g.usize_in(0..=192);
    let mut rec = FlightRecorder::new(capacity);
    let mut cycle = 0u64;
    for _ in 0..count {
        cycle += g.u64_in(0..=9);
        rec.record(TraceEvent { cycle, kind: arb_kind(g) });
    }
    rec
}

#[test]
fn export_parse_validate_round_trip() {
    prop::run_with(Config::with_cases(64), "export_parse_validate_round_trip", |g| {
        let rec = arb_recorder(g);
        let text = chrome::export("prop", &rec);

        // Determinism: same recording, same bytes.
        assert_eq!(text, chrome::export("prop", &rec));

        // The export parses and passes the schema checker.
        let stats = match schema::validate(&text) {
            Ok(s) => s,
            Err(errors) => panic!("schema violations: {errors:#?}"),
        };

        // Declared drop totals survive the round trip exactly.
        assert_eq!(stats.dropped, rec.dropped().total());

        // Event partition adds up.
        assert_eq!(stats.events, stats.spans + stats.instants + stats.metadata);

        // No span reaches past the recording window.
        let window_end = rec.events().map(|e| e.cycle).max().unwrap_or(0);
        assert!(stats.max_ts <= window_end, "max_ts {} > window end {window_end}", stats.max_ts);
    });
}

#[test]
fn parsed_object_mirrors_recorder_contents() {
    prop::run_with(Config::with_cases(32), "parsed_object_mirrors_recorder_contents", |g| {
        let rec = arb_recorder(g);
        let text = chrome::export("prop", &rec);
        let root = json::parse(&text).expect("export parses");

        // Per-category dropped counts appear verbatim, in category order.
        let dropped = root
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Value::as_obj)
            .expect("dropped_events object");
        assert_eq!(dropped.len(), Category::COUNT);
        for ((key, value), cat) in dropped.iter().zip(Category::ALL) {
            assert_eq!(key, cat.name());
            assert_eq!(value.as_i64(), Some(rec.dropped().of(cat) as i64));
        }

        // Every instant in the export corresponds to a buffered event
        // with the same cycle and name.
        let events = root.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
        let buffered: Vec<(u64, &'static str)> =
            rec.events().map(|e| (e.cycle, e.kind.name())).collect();
        for ev in events {
            if ev.get("ph").and_then(Value::as_str) == Some("i") {
                let ts = ev.get("ts").and_then(Value::as_i64).expect("integer ts") as u64;
                let name = ev.get("name").and_then(Value::as_str).expect("name");
                assert!(
                    buffered.iter().any(|&(c, n)| c == ts && n == name),
                    "instant {name}@{ts} not in recording"
                );
            }
        }
    });
}

#[test]
fn json_parser_round_trips_exporter_escapes() {
    prop::run_with(Config::with_cases(64), "json_parser_round_trips_exporter_escapes", |g| {
        // Arbitrary process names (any unicode) survive the export → parse
        // path unchanged.
        let len = g.usize_in(0..=24);
        let name: String =
            (0..len).map(|_| char::from_u32(g.u32_in(1..=0xD7FF)).unwrap_or('?')).collect();
        let mut rec = FlightRecorder::new(4);
        rec.record(TraceEvent { cycle: 1, kind: EventKind::NodeStart { node: 0, core: 0 } });
        let text = chrome::export(&name, &rec);
        let root = json::parse(&text).expect("export parses");
        let first = root.get("traceEvents").and_then(Value::as_arr).expect("events")[0].clone();
        assert_eq!(first.get("name").and_then(Value::as_str), Some("process_name"));
        let parsed = first.get("args").and_then(|a| a.get("name")).and_then(Value::as_str);
        assert_eq!(parsed, Some(name.as_str()));
    });
}
