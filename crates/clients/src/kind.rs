//! The client registry: every command line and table names a client with
//! [`ClientKind`], and [`ClientKind::build`] is the one place a kind becomes
//! a client.
//!
//! [`AnyClient`] puts the built client behind one concrete type, so
//! harnesses hold a `Rio<AnyClient>` instead of monomorphizing a helper per
//! client. It forwards every [`Client`] hook — including
//! [`Client::wants_full_decode`], which picks the engine's block-decode
//! path — so a run through it is identical to one with the concrete client.

use rio_core::{Client, Core, EndTraceDecision, FaultKind, NullClient};
use rio_ia32::InstrList;

use crate::{CTrace, Combined, IbDispatch, Inc2Add, InsCount, OpStats, Rlr, Shepherd};

/// Names one of the sample clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClientKind {
    /// Base RIO, no client transformation.
    Null,
    /// Redundant load removal (§4.1).
    Rlr,
    /// Strength reduction (§4.2).
    Inc2Add,
    /// Adaptive indirect branch dispatch (§4.3).
    IbDispatch,
    /// Custom call-inlining traces (§4.4).
    CTrace,
    /// All four optimizations in combination.
    Combined,
    /// Program shepherding (shadow-stack return checking).
    Shepherd,
    /// Dynamic instruction counting.
    InsCount,
    /// Opcode-mix statistics.
    OpStats,
}

impl ClientKind {
    /// Every client, in declaration order.
    pub const ALL: [ClientKind; 9] = {
        use ClientKind::*;
        [
            Null, Rlr, Inc2Add, IbDispatch, CTrace, Combined, Shepherd, InsCount, OpStats,
        ]
    };

    /// The six Figure 5 bars, in order.
    pub const FIGURE5: [ClientKind; 6] = {
        use ClientKind::*;
        [Null, Rlr, Inc2Add, IbDispatch, CTrace, Combined]
    };

    /// The built client's [`Client::name`].
    pub fn label(self) -> &'static str {
        match self {
            ClientKind::Null => "null",
            ClientKind::Rlr => "rlr",
            ClientKind::Inc2Add => "inc2add",
            ClientKind::IbDispatch => "ibdispatch",
            ClientKind::CTrace => "ctrace",
            ClientKind::Combined => "combined",
            ClientKind::Shepherd => "shepherd",
            ClientKind::InsCount => "inscount",
            ClientKind::OpStats => "opstats",
        }
    }

    /// Parse a [`ClientKind::label`], or a Figure 5 legend name (`base`,
    /// `ctraces`).
    pub fn parse(s: &str) -> Option<ClientKind> {
        match s {
            "base" => Some(ClientKind::Null),
            "ctraces" => Some(ClientKind::CTrace),
            _ => ClientKind::ALL.into_iter().find(|k| k.label() == s),
        }
    }

    /// A fresh instance of the client.
    pub fn build(self) -> AnyClient {
        match self {
            ClientKind::Null => AnyClient::Null(NullClient),
            ClientKind::Rlr => AnyClient::Rlr(Rlr::new()),
            ClientKind::Inc2Add => AnyClient::Inc2Add(Inc2Add::new()),
            ClientKind::IbDispatch => AnyClient::IbDispatch(IbDispatch::new()),
            ClientKind::CTrace => AnyClient::CTrace(CTrace::new()),
            ClientKind::Combined => AnyClient::Combined(Combined::new()),
            ClientKind::Shepherd => AnyClient::Shepherd(Shepherd::new()),
            ClientKind::InsCount => AnyClient::InsCount(InsCount::new()),
            ClientKind::OpStats => AnyClient::OpStats(OpStats::new()),
        }
    }
}

/// A built client of any [`ClientKind`], one variant per kind.
#[derive(Debug)]
pub enum AnyClient {
    Null(NullClient),
    Rlr(Rlr),
    Inc2Add(Inc2Add),
    IbDispatch(IbDispatch),
    CTrace(CTrace),
    Combined(Combined),
    Shepherd(Shepherd),
    InsCount(InsCount),
    OpStats(OpStats),
}

/// Evaluate `$call` with `$c` bound to whichever client is inside.
macro_rules! forward {
    ($self:ident, $c:ident => $call:expr) => {
        match $self {
            AnyClient::Null($c) => $call,
            AnyClient::Rlr($c) => $call,
            AnyClient::Inc2Add($c) => $call,
            AnyClient::IbDispatch($c) => $call,
            AnyClient::CTrace($c) => $call,
            AnyClient::Combined($c) => $call,
            AnyClient::Shepherd($c) => $call,
            AnyClient::InsCount($c) => $call,
            AnyClient::OpStats($c) => $call,
        }
    };
}

/// Forward the `(&mut self, core: &mut Core, ...)` hooks.
macro_rules! forward_hooks {
    ($(fn $hook:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        fn $hook(&mut self, core: &mut Core, $($arg: $ty),*) $(-> $ret)? {
            forward!(self, c => c.$hook(core, $($arg),*))
        }
    )*};
}

impl Client for AnyClient {
    fn name(&self) -> &'static str {
        forward!(self, c => c.name())
    }

    fn wants_full_decode(&self) -> bool {
        forward!(self, c => c.wants_full_decode())
    }

    forward_hooks! {
        fn init();
        fn on_exit();
        fn thread_init();
        fn thread_exit();
        fn basic_block(tag: u32, bb: &mut InstrList);
        fn trace(tag: u32, trace: &mut InstrList);
        fn fragment_deleted(tag: u32);
        fn fault_event(kind: FaultKind, cache_eip: u32, app_pc: Option<u32>);
        fn end_trace(trace_tag: u32, next_tag: u32) -> EndTraceDecision;
        fn clean_call(arg: u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_back_and_legend_aliases_resolve() {
        for k in ClientKind::ALL {
            assert_eq!(ClientKind::parse(k.label()), Some(k));
        }
        assert_eq!(ClientKind::parse("base"), Some(ClientKind::Null));
        assert_eq!(ClientKind::parse("ctraces"), Some(ClientKind::CTrace));
        assert_eq!(ClientKind::parse("bogus"), None);
    }

    #[test]
    fn built_clients_report_their_label_and_decode_path() {
        // Only the clients whose `basic_block` hook reads or edits the
        // block's body ask for a full decode; the rest take bundles.
        let full_decode = [
            (ClientKind::Null, false),
            (ClientKind::Rlr, false),
            (ClientKind::Inc2Add, false),
            (ClientKind::IbDispatch, false),
            (ClientKind::CTrace, false),
            (ClientKind::Combined, false),
            (ClientKind::Shepherd, true),
            (ClientKind::InsCount, true),
            (ClientKind::OpStats, true),
        ];
        assert_eq!(full_decode.map(|(k, _)| k), ClientKind::ALL);
        for (k, full) in full_decode {
            assert_eq!(k.build().name(), k.label());
            assert_eq!(k.build().wants_full_decode(), full, "{k:?}");
        }
    }
}
