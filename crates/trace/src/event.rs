//! The typed event vocabulary of the flight recorder.
//!
//! Every event is cycle-stamped and built from plain integers only, so
//! the crate stays dependency-free and any layer of the stack can emit
//! without pulling in cache/SoC types. The mapping from each event to the
//! paper mechanism it observes is documented in `DESIGN.md` ("Tracing"
//! section).

/// Which level of the memory hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Private L1 hit.
    L1,
    /// L1.5 hit (Sec. 3 microarchitecture).
    L15,
    /// Shared L2 hit.
    L2,
    /// External memory.
    Mem,
}

impl Level {
    /// Stable label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Level::L1 => "L1",
            Level::L15 => "L1.5",
            Level::L2 => "L2",
            Level::Mem => "mem",
        }
    }

    /// Index into 4-entry per-level counter arrays (`[L1, L1.5, L2, mem]`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Level::L1 => 0,
            Level::L15 => 1,
            Level::L2 => 2,
            Level::Mem => 3,
        }
    }
}

/// An L1.5 control-port operation (the ISA extension of Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// `demand rs1` — request a total way count.
    Demand,
    /// `supply rd` — read the owned-way bitmap.
    Supply,
    /// `gv_set rs1` — publish ways globally.
    GvSet,
    /// `gv_get rd` — read the published bitmap.
    GvGet,
    /// `ip_set rs1` — flip the inclusion policy of owned ways.
    IpSet,
}

impl CtrlKind {
    /// Stable label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            CtrlKind::Demand => "demand",
            CtrlKind::Supply => "supply",
            CtrlKind::GvSet => "gv_set",
            CtrlKind::GvGet => "gv_get",
            CtrlKind::IpSet => "ip_set",
        }
    }
}

/// A kernel section marker (the Sec. 4.3 programming-model steps the
/// kernel performs around a node's execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Context-switch reconfiguration before dispatch (demand + ip_set).
    Dispatch,
    /// Completion-time publication (flush + gv_set).
    Publish,
    /// Way reclamation after the last consumer finished.
    Reclaim,
}

impl SectionKind {
    /// Stable label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Dispatch => "dispatch",
            SectionKind::Publish => "publish",
            SectionKind::Reclaim => "reclaim",
        }
    }
}

/// Drop-accounting category of an event (one ring counter per category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Pipeline stall breakdowns.
    Pipeline = 0,
    /// Fetch/load/store routing.
    Access = 1,
    /// Control-port operations.
    Ctrl = 2,
    /// SDU / Walloc FSM transitions.
    Sdu = 3,
    /// Global-visibility publish/consume.
    Gv = 4,
    /// DAG node lifecycle.
    Node = 5,
    /// Kernel sections and Walloc episodes.
    Kernel = 6,
}

impl Category {
    /// Number of categories (size of per-category counter arrays).
    pub const COUNT: usize = 7;

    /// All categories in index order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Pipeline,
        Category::Access,
        Category::Ctrl,
        Category::Sdu,
        Category::Gv,
        Category::Node,
        Category::Kernel,
    ];

    /// Stable label used by exporters and the `/metrics` page.
    pub fn name(self) -> &'static str {
        match self {
            Category::Pipeline => "pipeline",
            Category::Access => "access",
            Category::Ctrl => "ctrl",
            Category::Sdu => "sdu",
            Category::Gv => "gv",
            Category::Node => "node",
            Category::Kernel => "kernel",
        }
    }
}

/// What happened (see `DESIGN.md` for the event → paper-mechanism map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Stall breakdown of one retired instruction (emitted only when some
    /// component is non-zero): IF bubbles (TLB + fetch beyond 1 cycle),
    /// MA bubbles (data access beyond 1 cycle), load-use hazard, branch
    /// flush, and EX extension (mul/div). The counts are `u16`, saturated
    /// by the emitter, so this variant is no wider than the others and a
    /// [`TraceEvent`] stays 24 bytes.
    PipeStall {
        /// Core that stalled.
        core: u32,
        /// IF-stage bubble cycles.
        if_stall: u16,
        /// MA-stage bubble cycles.
        ma_stall: u16,
        /// Load-use hazard cycles.
        hazard: u16,
        /// Branch-flush cycles.
        flush: u16,
        /// EX extension cycles (mul/div).
        ex: u16,
    },
    /// Instruction fetch served at `level`.
    Fetch {
        /// Requesting core.
        core: u32,
        /// Serving level.
        level: Level,
    },
    /// Data load served at `level`.
    Load {
        /// Requesting core.
        core: u32,
        /// Serving level.
        level: Level,
    },
    /// Data store; `via_l15` marks the inclusive write-through route.
    Store {
        /// Requesting core.
        core: u32,
        /// Whether the IPU routed it into the L1.5.
        via_l15: bool,
    },
    /// An L1.5 control instruction executed.
    Ctrl {
        /// Requesting core.
        core: u32,
        /// The operation.
        op: CtrlKind,
        /// Its operand (way count or bitmap).
        arg: u32,
    },
    /// The Walloc granted a way (one per cycle — Sec. 3's serialisation).
    WayGrant {
        /// Cluster.
        cluster: u32,
        /// Receiving core lane.
        lane: u32,
        /// Way index.
        way: u32,
    },
    /// The Walloc (or the kernel) revoked a way.
    WayRevoke {
        /// Cluster.
        cluster: u32,
        /// Way index.
        way: u32,
    },
    /// The Walloc had pending `S ≠ D` comparators but could not act this
    /// cycle (demand exceeds free ways): a reconfiguration stall.
    SduStall {
        /// Cluster.
        cluster: u32,
        /// Outstanding |S−D| gap summed over the cluster's lanes.
        backlog: u32,
    },
    /// A `gv_set` took effect: the lane's output ways became readable by
    /// its successors.
    GvPublish {
        /// Cluster.
        cluster: u32,
        /// Publishing lane.
        lane: u32,
        /// Effective globally-visible bitmap.
        mask: u32,
    },
    /// A read was served from a *globally visible* way the reading lane
    /// does not own — dependent data flowing producer → consumer through
    /// the L1.5 (the co-design's whole point).
    GvConsume {
        /// Reading core (SoC-wide index).
        core: u32,
        /// Cluster.
        cluster: u32,
        /// The way that served the read.
        way: u32,
    },
    /// The kernel dispatched DAG node `node` onto `core`.
    NodeStart {
        /// Node index.
        node: u32,
        /// Executing core.
        core: u32,
    },
    /// Node `node` completed on `core`.
    NodeFinish {
        /// Node index.
        node: u32,
        /// Executing core.
        core: u32,
    },
    /// A Walloc episode opened: the kernel demanded `want` total ways for
    /// `core` and the one-way-per-cycle FSM started applying it.
    WallocStart {
        /// Core whose configuration is changing.
        core: u32,
        /// Demanded total way count.
        want: u32,
    },
    /// The demanded configuration was fully applied (the episode whose
    /// in-flight window is the source of the misconfiguration ratio φ).
    WallocDone {
        /// Core whose configuration settled.
        core: u32,
        /// Ways owned at completion.
        got: u32,
    },
    /// A kernel section marker around node `node` on `core`.
    Section {
        /// Core the kernel acted on.
        core: u32,
        /// Node the section belongs to.
        node: u32,
        /// Which Sec. 4.3 step.
        kind: SectionKind,
    },
}

impl EventKind {
    /// The drop-accounting category of this event.
    pub fn category(&self) -> Category {
        match self {
            EventKind::PipeStall { .. } => Category::Pipeline,
            EventKind::Fetch { .. } | EventKind::Load { .. } | EventKind::Store { .. } => {
                Category::Access
            }
            EventKind::Ctrl { .. } => Category::Ctrl,
            EventKind::WayGrant { .. }
            | EventKind::WayRevoke { .. }
            | EventKind::SduStall { .. } => Category::Sdu,
            EventKind::GvPublish { .. } | EventKind::GvConsume { .. } => Category::Gv,
            EventKind::NodeStart { .. } | EventKind::NodeFinish { .. } => Category::Node,
            EventKind::WallocStart { .. }
            | EventKind::WallocDone { .. }
            | EventKind::Section { .. } => Category::Kernel,
        }
    }

    /// Stable short name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PipeStall { .. } => "pipe_stall",
            EventKind::Fetch { .. } => "fetch",
            EventKind::Load { .. } => "load",
            EventKind::Store { .. } => "store",
            EventKind::Ctrl { op, .. } => op.name(),
            EventKind::WayGrant { .. } => "way_grant",
            EventKind::WayRevoke { .. } => "way_revoke",
            EventKind::SduStall { .. } => "sdu_stall",
            EventKind::GvPublish { .. } => "gv_publish",
            EventKind::GvConsume { .. } => "gv_consume",
            EventKind::NodeStart { .. } => "node_start",
            EventKind::NodeFinish { .. } => "node_finish",
            EventKind::WallocStart { .. } => "walloc_start",
            EventKind::WallocDone { .. } => "walloc_done",
            EventKind::Section { kind, .. } => kind.name(),
        }
    }
}

/// One cycle-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global cycle at which the event was recorded.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_every_kind() {
        let samples = [
            EventKind::PipeStall { core: 0, if_stall: 1, ma_stall: 0, hazard: 0, flush: 0, ex: 0 },
            EventKind::Fetch { core: 0, level: Level::L15 },
            EventKind::Load { core: 0, level: Level::Mem },
            EventKind::Store { core: 0, via_l15: true },
            EventKind::Ctrl { core: 0, op: CtrlKind::Demand, arg: 4 },
            EventKind::WayGrant { cluster: 0, lane: 1, way: 2 },
            EventKind::WayRevoke { cluster: 0, way: 2 },
            EventKind::SduStall { cluster: 0, backlog: 3 },
            EventKind::GvPublish { cluster: 0, lane: 1, mask: 0b110 },
            EventKind::GvConsume { core: 2, cluster: 0, way: 1 },
            EventKind::NodeStart { node: 7, core: 3 },
            EventKind::NodeFinish { node: 7, core: 3 },
            EventKind::WallocStart { core: 3, want: 6 },
            EventKind::WallocDone { core: 3, got: 6 },
            EventKind::Section { core: 3, node: 7, kind: SectionKind::Publish },
        ];
        let mut seen = [false; Category::COUNT];
        for s in samples {
            seen[s.category() as usize] = true;
            assert!(!s.name().is_empty());
        }
        assert!(seen.iter().all(|&s| s), "every category reachable: {seen:?}");
    }

    #[test]
    fn an_event_is_24_bytes() {
        // A full /trace capture ring is 2^18 of these.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
    }

    #[test]
    fn category_names_are_unique() {
        for a in Category::ALL {
            for b in Category::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }
}
