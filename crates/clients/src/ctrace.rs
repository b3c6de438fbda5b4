//! Custom call-inlining traces (paper §4.4).
//!
//! "The standard DynamoRIO traces focus on loops and often end up with a hot
//! procedure call's return in a different trace from the call." This client
//! uses the custom-trace interface to inline whole procedure calls:
//!
//! * every direct call target is marked a **trace head**
//!   (`dr_mark_trace_head`);
//! * the `end_trace` hook ends a trace one block after a return is crossed
//!   ("once a return is reached, the trace is ended after the next basic
//!   block"), or at a maximum size "to prevent too much unrolling of loops
//!   inside calls";
//! * in the trace hook, inlined return checks are **removed entirely**,
//!   assuming the calling convention holds (§4.4's final paragraph) — the
//!   return collapses to a single `lea` popping the return address.

use std::collections::HashMap;

use rio_core::{elide_ret_check, find_ib_checks, Client, Core, EndTraceDecision, IndKind};
use rio_ia32::{InstrList, Opcode, Target};

/// Default cap on blocks per custom trace.
const DEFAULT_MAX_BBS: usize = 12;
/// Modeled cycles per elision (pattern match + rewrite).
const ELIDE_COST: u64 = 120;

/// How a basic block ends, as observed by the `basic_block` hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockKind {
    /// Ends in a call (direct or indirect).
    Call,
    /// Ends in a return.
    Ret,
    /// Anything else.
    Other,
}

/// Per-recording state for the `end_trace` policy.
#[derive(Clone, Copy, Debug)]
struct RecState {
    trace_tag: u32,
    /// Tag of the block most recently added to the trace.
    last: u32,
    /// Inlined-call nesting depth.
    depth: i32,
    /// A return at depth 0 was inlined; end after the next block.
    ret_pending: bool,
}

/// The custom-traces client.
#[derive(Clone, Debug)]
pub struct CTrace {
    /// Maximum blocks stitched into one custom trace.
    pub max_bbs: usize,
    /// Whether to elide inlined return checks (the calling-convention
    /// assumption). On by default, as in the paper.
    pub elide_returns: bool,
    /// Terminator kind per block tag, gathered in the `basic_block` hook —
    /// the client-side bookkeeping that drives `end_trace`.
    block_kind: HashMap<u32, BlockKind>,
    rec: Option<RecState>,
    /// Call-site blocks marked as trace heads.
    pub calls_marked: u64,
    /// Return checks removed.
    pub rets_elided: u64,
}

impl Default for CTrace {
    fn default() -> CTrace {
        CTrace {
            max_bbs: DEFAULT_MAX_BBS,
            elide_returns: true,
            block_kind: HashMap::new(),
            rec: None,
            calls_marked: 0,
            rets_elided: 0,
        }
    }
}

impl CTrace {
    /// Create with default parameters.
    pub fn new() -> CTrace {
        CTrace::default()
    }

    /// Create with a custom trace-size cap (for the parameter-sweep bench).
    pub fn with_max_bbs(max_bbs: usize) -> CTrace {
        CTrace {
            max_bbs,
            ..CTrace::default()
        }
    }
}

impl Client for CTrace {
    fn name(&self) -> &'static str {
        "ctrace"
    }

    // The `basic_block` hook reads only the block's last instruction, which
    // bundled decoding always leaves at Level 3 when it is a CTI.
    fn wants_full_decode(&self) -> bool {
        false
    }

    fn basic_block(&mut self, core: &mut Core, tag: u32, bb: &mut InstrList) {
        // Classify the terminator for the end_trace policy, and mark blocks
        // that end in a direct call as trace heads, so traces begin at the
        // call site. Starting at the call site (not the callee) is what
        // makes the inlined return target "nearly guaranteed" to match —
        // and what makes return elision sound: the matching `call` (the
        // pushed return address) is inside the same trace.
        let Some(last) = bb.last_id() else { return };
        let last = bb.get(last);
        let kind = match last.opcode() {
            Some(Opcode::Call | Opcode::CallInd) => BlockKind::Call,
            Some(Opcode::Ret) => BlockKind::Ret,
            _ => BlockKind::Other,
        };
        self.block_kind.insert(tag, kind);
        if last.opcode() == Some(Opcode::Call) && matches!(last.target(), Some(Target::Pc(_))) {
            if !core.is_trace_head(tag) {
                self.calls_marked += 1;
            }
            core.mark_trace_head(tag);
        }
    }

    fn end_trace(&mut self, core: &mut Core, trace_tag: u32, next_tag: u32) -> EndTraceDecision {
        // (Re)initialize per-recording state.
        let mut rec = match self.rec {
            Some(r) if r.trace_tag == trace_tag => r,
            _ => RecState {
                trace_tag,
                last: trace_tag,
                depth: 0,
                ret_pending: false,
            },
        };
        if core.recording_block_count() >= self.max_bbs {
            self.rec = None;
            return EndTraceDecision::End;
        }
        if rec.ret_pending {
            // The block after the return has been inlined; stop here.
            self.rec = None;
            return EndTraceDecision::End;
        }
        let kind = self
            .block_kind
            .get(&rec.last)
            .copied()
            .unwrap_or(BlockKind::Other);
        let decision = match kind {
            BlockKind::Call => {
                rec.depth += 1;
                EndTraceDecision::Continue
            }
            BlockKind::Ret => {
                rec.depth -= 1;
                if rec.depth <= 0 {
                    // Returned out of the inlined call: one more block.
                    rec.ret_pending = true;
                }
                EndTraceDecision::Continue
            }
            // Outside any inlined call, behave like standard traces so
            // plain loop code is unaffected.
            BlockKind::Other if rec.depth > 0 => EndTraceDecision::Continue,
            BlockKind::Other => EndTraceDecision::Default,
        };
        rec.last = next_tag;
        self.rec = Some(rec);
        decision
    }

    fn trace(&mut self, core: &mut Core, _tag: u32, trace: &mut InstrList) {
        self.rec = None;
        if !self.elide_returns {
            return;
        }
        // A return check may be elided only when the matching call is inside
        // the trace: walk the trace maintaining the stack of return
        // addresses pushed by inlined calls (`push $pc` from mangled call
        // instructions); a Ret check whose expected target equals the
        // top-of-stack is provably redundant under the calling convention.
        let checks = find_ib_checks(trace);
        let mut pushed: Vec<u32> = Vec::new();
        let ids: Vec<_> = trace.ids().collect();
        let mut check_iter = checks.iter().peekable();
        let mut to_elide = Vec::new();
        for id in ids {
            if let Some(check) = check_iter.peek() {
                if check.begin == id {
                    if check.kind == IndKind::Ret && pushed.last() == Some(&check.expected) {
                        pushed.pop();
                        to_elide.push(**check);
                    } else if check.kind == IndKind::Ret {
                        // Unmatched return: consume a frame if any.
                        pushed.pop();
                    }
                    check_iter.next();
                    continue;
                }
            }
            let instr = trace.get(id);
            // Inlined calls appear as `push $return_pc` with an app pc.
            if instr.opcode() == Some(Opcode::Push) && instr.app_pc() != 0 {
                if let Some(rio_ia32::Opnd::Pc(ret)) = instr.srcs().first() {
                    pushed.push(*ret);
                }
            }
        }
        for check in to_elide {
            elide_ret_check(trace, &check);
            core.charge(ELIDE_COST);
            self.rets_elided += 1;
        }
    }

    fn on_exit(&mut self, core: &mut Core) {
        core.printf(format!(
            "ctrace: {} call targets marked, {} returns elided\n",
            self.calls_marked, self.rets_elided
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{assert_matches_native, call_program};
    use rio_core::{NullClient, Options, Rio};
    use rio_sim::CpuKind;

    #[test]
    fn marks_call_targets_and_elides_returns() {
        let img = call_program(2_000);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, CTrace::new());
        let r = rio.run();
        assert_matches_native(&img, &r);
        assert!(rio.client.calls_marked >= 1);
        assert!(rio.client.rets_elided >= 1, "{:?}", rio.client);
        assert!(r.stats.traces_built >= 1);
    }

    #[test]
    fn elision_removes_return_overhead() {
        let img = call_program(20_000);
        let mut base = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
        let a = base.run();
        let mut opt = Rio::new(&img, Options::full(), CpuKind::Pentium4, CTrace::new());
        let b = opt.run();
        assert_eq!(a.exit_code, b.exit_code);
        assert!(
            b.stats.ib_lookups < a.stats.ib_lookups,
            "inlined+elided returns should cut lookups: {} vs {}",
            b.stats.ib_lookups,
            a.stats.ib_lookups
        );
    }

    #[test]
    fn respects_max_trace_size() {
        let img = call_program(2_000);
        let mut rio = Rio::new(
            &img,
            Options::full(),
            CpuKind::Pentium4,
            CTrace::with_max_bbs(2),
        );
        let r = rio.run();
        assert_matches_native(&img, &r);
        assert!(r.stats.traces_built >= 1);
    }

    #[test]
    fn disabled_elision_still_correct() {
        let img = call_program(1_000);
        let mut client = CTrace::new();
        client.elide_returns = false;
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, client);
        let r = rio.run();
        assert_matches_native(&img, &r);
        assert_eq!(rio.client.rets_elided, 0);
    }
}

#[cfg(test)]
mod mispredict_tests {
    use super::*;
    use crate::programs::call_program;
    use rio_core::{NullClient, Options, Rio};
    use rio_sim::CpuKind;

    #[test]
    fn custom_traces_recover_return_prediction() {
        // The §4.4 payoff: call-site-anchored traces inline the matching
        // return, eliminating the translated-return mispredictions that
        // standard traces leave behind.
        let img = call_program(5_000);
        let mut standard = Rio::new(&img, Options::full(), CpuKind::Pentium4, NullClient);
        let a = standard.run();
        let mut custom = Rio::new(&img, Options::full(), CpuKind::Pentium4, CTrace::new());
        let b = custom.run();
        assert_eq!(a.exit_code, b.exit_code);
        assert!(
            b.counters.ind_mispredicts * 2 < a.counters.ind_mispredicts,
            "custom traces should absorb return mispredictions: {} vs {}",
            b.counters.ind_mispredicts,
            a.counters.ind_mispredicts
        );
    }
}
