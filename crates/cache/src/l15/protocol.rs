//! The checkable L1.5 protocol vocabulary.
//!
//! Every observable protocol action of the Sec. 4.3 programming model —
//! the control instructions a kernel issues at dispatch (`demand`,
//! `ip_set`, `gv_set`), the Walloc grant/revoke reconfigurations they
//! trigger (Fig. 5), and the line-granular data accesses the node program
//! performs — is expressible as one [`ProtocolOp`]. The protocol verifier
//! (`l15-check`) lifts a recorded kernel run into this vocabulary, so a
//! rule violation names the action the run's trace shows.
//!
//! The vocabulary deliberately abstracts two hardware details:
//!
//! * **GV granularity.** The `gv_set` instruction publishes a *way mask*;
//!   the checkable op [`ProtocolOp::GvPublish`] names the *line* made
//!   globally visible, because the staleness rule (a consumer reading a
//!   line no `gv_set` ever covered) is a per-line property.
//! * **Buffer granularity.** A node's dependent-data buffer is
//!   represented by its base line address (the first line the consumer's
//!   `lw` loop touches); per-line enumeration adds volume, not precision,
//!   to the ordering rules.

use std::fmt;

/// One observable L1.5 protocol action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolOp {
    /// The `demand` instruction: the dispatched node wants `ways` L1.5
    /// ways in total.
    Demand {
        /// Requested total way count (the kernel asks for the ways it
        /// owns plus the plan's `local_ways`).
        ways: usize,
    },
    /// The `ip_set` instruction: switch the inclusion policy of the
    /// currently-owned ways (`true` = inclusive, stores route to L1.5).
    IpSet {
        /// New inclusion policy.
        on: bool,
    },
    /// The Walloc FSM granted `way` to the issuing core (one per cycle).
    Grant {
        /// Newly owned way.
        way: usize,
    },
    /// The way was revoked/returned to the N/U pool (kernel-side
    /// revocation once every consumer of the producer's data finished).
    Release {
        /// Released way.
        way: usize,
    },
    /// A `gv_set` covering the way that holds `line` — the line becomes
    /// globally visible to the other cores of the cluster.
    GvPublish {
        /// Base address of the published line.
        line: u64,
    },
    /// The node program reads `line` (a predecessor's dependent data).
    Read {
        /// Base address of the line read.
        line: u64,
    },
    /// The node program writes `line` (its own dependent data).
    Write {
        /// Base address of the line written.
        line: u64,
    },
}

impl ProtocolOp {
    /// The line address the op touches, if it is line-granular.
    pub fn line(self) -> Option<u64> {
        match self {
            ProtocolOp::GvPublish { line }
            | ProtocolOp::Read { line }
            | ProtocolOp::Write { line } => Some(line),
            _ => None,
        }
    }

    /// Whether the op is a data access (read or write).
    pub fn is_access(self) -> bool {
        matches!(self, ProtocolOp::Read { .. } | ProtocolOp::Write { .. })
    }
}

impl fmt::Display for ProtocolOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProtocolOp::Demand { ways } => write!(f, "demand({ways})"),
            ProtocolOp::IpSet { on } => write!(f, "ip_set({})", u8::from(on)),
            ProtocolOp::Grant { way } => write!(f, "grant(w{way})"),
            ProtocolOp::Release { way } => write!(f, "release(w{way})"),
            ProtocolOp::GvPublish { line } => write!(f, "gv_publish({line:#010x})"),
            ProtocolOp::Read { line } => write!(f, "read({line:#010x})"),
            ProtocolOp::Write { line } => write!(f, "write({line:#010x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_compact() {
        assert_eq!(ProtocolOp::Demand { ways: 3 }.to_string(), "demand(3)");
        assert_eq!(ProtocolOp::IpSet { on: true }.to_string(), "ip_set(1)");
        assert_eq!(ProtocolOp::Grant { way: 7 }.to_string(), "grant(w7)");
        assert_eq!(ProtocolOp::Release { way: 0 }.to_string(), "release(w0)");
        assert_eq!(
            ProtocolOp::GvPublish { line: 0x0100_0000 }.to_string(),
            "gv_publish(0x01000000)"
        );
        assert_eq!(ProtocolOp::Read { line: 0x40 }.to_string(), "read(0x00000040)");
        assert_eq!(ProtocolOp::Write { line: 0x40 }.to_string(), "write(0x00000040)");
    }

    #[test]
    fn line_and_access_classification() {
        assert_eq!(ProtocolOp::Read { line: 64 }.line(), Some(64));
        assert_eq!(ProtocolOp::Write { line: 64 }.line(), Some(64));
        assert_eq!(ProtocolOp::GvPublish { line: 64 }.line(), Some(64));
        assert_eq!(ProtocolOp::Grant { way: 1 }.line(), None);
        assert!(ProtocolOp::Read { line: 0 }.is_access());
        assert!(ProtocolOp::Write { line: 0 }.is_access());
        assert!(!ProtocolOp::GvPublish { line: 0 }.is_access());
        assert!(!ProtocolOp::Demand { ways: 1 }.is_access());
    }
}
