//! The client interface (paper §3.3, Table 3).
//!
//! A RIO *client* is "coupled with [the engine] in order to jointly operate
//! on an input program". The [`Client`] trait mirrors Table 3's hook
//! functions; each method documents the C hook it reproduces. Hooks receive
//! `&mut Core` in place of the paper's opaque `context` pointer — unlike the
//! C interface, the type system enforces that clients cannot touch engine
//! internals beyond the exported API.

use rio_ia32::InstrList;
use rio_sim::FaultKind;

use crate::core::Core;

/// Client answer to [`Client::end_trace`] (paper §3.5: "the client can
/// direct DynamoRIO to either end the trace, not end the trace, or use its
/// default test").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EndTraceDecision {
    /// Use the engine's default termination test (stop at a backward branch
    /// or upon reaching an existing trace or trace head).
    #[default]
    Default,
    /// End the trace before adding the next block.
    End,
    /// Keep extending the trace regardless of the default test.
    Continue,
}

/// Hook functions called by the engine at the moments listed in Table 3 of
/// the paper.
///
/// All methods have empty defaults, so a client implements only what it
/// needs. See `rio-clients` for the paper's four sample optimizations.
pub trait Client {
    /// Short name for reports.
    fn name(&self) -> &'static str {
        "client"
    }

    /// `dynamorio_init` — client initialization.
    fn init(&mut self, core: &mut Core) {
        let _ = core;
    }

    /// `dynamorio_exit` — client finalization.
    fn on_exit(&mut self, core: &mut Core) {
        let _ = core;
    }

    /// `dynamorio_thread_init` — per-thread initialization.
    fn thread_init(&mut self, core: &mut Core) {
        let _ = core;
    }

    /// `dynamorio_thread_exit` — per-thread finalization. Fires once for
    /// each thread that retires (`hlt` or `thread_exit`) and, at program
    /// exit, once for the thread on the CPU, with
    /// [`Core::current_thread`] naming that thread. Threads still waiting
    /// for their turn when the program exits get no call.
    fn thread_exit(&mut self, core: &mut Core) {
        let _ = core;
    }

    /// Whether the engine should fully decode basic blocks before calling
    /// [`Client::basic_block`]. Returning `false` keeps the Level 0 bundle
    /// fast path (the hook then sees bundles rather than instructions).
    ///
    /// In bundled mode the instruction that ends the block — a CTI, `hlt`,
    /// `int` or `int3` — is still decoded to Level 3; only the prefix before
    /// it is a bundle (and so is the block's tail when the block is split at
    /// [`Options::max_bb_instrs`](crate::Options::max_bb_instrs) or before
    /// undecodable bytes, where no such instruction exists). A hook that only
    /// reads the terminator should therefore return `false`, as should a
    /// client with no `basic_block` hook at all. Traces are always decoded
    /// in full, whatever this returns.
    fn wants_full_decode(&self) -> bool {
        true
    }

    /// `dynamorio_basic_block` — called each time a block is created, before
    /// mangling: the hook sees pure application code.
    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        let _ = (core, tag, bb);
    }

    /// `dynamorio_trace` — called each time a trace is created, just before
    /// it is placed in the trace cache. The list has already been completely
    /// processed by the engine: "the client sees exactly the code that will
    /// execute in the code cache (with the exception of the exit stubs)".
    fn trace(&mut self, core: &mut Core, tag: u32, trace: &mut InstrList) {
        let _ = (core, tag, trace);
    }

    /// `dynamorio_fragment_deleted` — called when a fragment is deleted from
    /// the block or trace cache.
    fn fragment_deleted(&mut self, core: &mut Core, tag: u32) {
        let _ = (core, tag);
    }

    /// Called when the application raises a fault, before delivery to the
    /// guest handler (or before the session surfaces a terminal
    /// [`Faulted`](crate::StepOutcome::Faulted) outcome if no handler is
    /// registered). `cache_eip` is where the machine actually faulted — a
    /// code-cache address in cache mode — and `app_pc` is the translated
    /// application pc when the engine could reconstruct it.
    fn fault_event(
        &mut self,
        core: &mut Core,
        kind: FaultKind,
        cache_eip: u32,
        app_pc: Option<u32>,
    ) {
        let _ = (core, kind, cache_eip, app_pc);
    }

    /// `dynamorio_end_trace` — asks the client whether to end the trace
    /// currently being built before appending the block at `next_tag`.
    fn end_trace(&mut self, core: &mut Core, trace_tag: u32, next_tag: u32) -> EndTraceDecision {
        let _ = (core, trace_tag, next_tag);
        EndTraceDecision::Default
    }

    /// Called when generated code executes a clean call the client inserted
    /// with [`Core::clean_call_instr`]. `arg` is the value registered at
    /// insertion time.
    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        let _ = (core, arg);
    }
}

/// The no-op client: plain RIO with no custom transformation (the "base
/// DynamoRIO" bar of Figure 5).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullClient;

impl Client for NullClient {
    fn name(&self) -> &'static str {
        "null"
    }

    fn wants_full_decode(&self) -> bool {
        false
    }
}
