//! Runtime options, overhead cost parameters, and the RIO address-space
//! layout (spill slots and runtime sentinels).

use rio_sim::Image;

/// How much of the engine runs: the rows of the paper's Table 1, in order.
/// Each row adds one feature to the row before, so a feature is on in its
/// own row and every later one (`mode >= ExecMode::DirectLinks`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecMode {
    /// Pure emulation: every instruction is dispatched individually with no
    /// caching (row 1).
    Emulate,
    /// Basic-block code cache, with no linking and no traces (row 2).
    BlockCache,
    /// Adds links between fragments connected by direct branches (row 3).
    DirectLinks,
    /// Adds the in-cache hashtable lookup for indirect branches in place of
    /// a full context switch (row 4).
    IndirectLinks,
    /// Adds traces built from hot basic-block sequences: the full system
    /// (row 5).
    Traces,
}

/// Engine configuration. [`Options::default`] is the full system (Table 1's
/// last row: cache + direct links + indirect links + traces); the other
/// rows differ from it in [`Options::mode`] alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// The Table 1 row: which of emulation, block cache, direct links,
    /// indirect links and traces run.
    pub mode: ExecMode,
    /// Executions of a trace head before trace generation begins (Dynamo
    /// default: 50).
    pub trace_threshold: u32,
    /// Maximum number of basic blocks stitched into one trace.
    pub max_trace_bbs: usize,
    /// Inline a check for the recorded target at indirect branches inside
    /// traces (§3's "check ... much faster than the hashtable lookup").
    pub inline_ib_target: bool,
    /// Maximum instructions per basic block before an artificial split.
    pub max_bb_instrs: usize,
    /// Capacity of each sub-cache in live bytes; `None` = unlimited (the
    /// paper's evaluation configuration). When exceeded, single fragments
    /// are evicted in FIFO order at the next safe point.
    pub cache_limit: Option<u32>,
    /// Re-verify affected fragments' structural invariants after every
    /// emit, link, unlink, invalidation, and eviction (set by `--verify`;
    /// the self-checking mode behind `Core::verify_cache`). Verification
    /// work is not charged to the run, so enabling it never perturbs the
    /// application's cycle counts.
    pub verify: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            mode: ExecMode::Traces,
            trace_threshold: 50,
            max_trace_bbs: 16,
            inline_ib_target: true,
            max_bb_instrs: 12,
            cache_limit: None,
            verify: false,
        }
    }
}

impl Options {
    /// Table 1 row 1: pure emulation.
    pub fn emulation() -> Options {
        Options {
            mode: ExecMode::Emulate,
            ..Options::default()
        }
    }

    /// Table 1 row 2: basic-block cache only, no linking, no traces.
    pub fn cache_only() -> Options {
        Options {
            mode: ExecMode::BlockCache,
            ..Options::default()
        }
    }

    /// Table 1 row 3: + direct-branch linking.
    pub fn with_direct_links() -> Options {
        Options {
            mode: ExecMode::DirectLinks,
            ..Options::default()
        }
    }

    /// Table 1 row 4: + indirect-branch in-cache lookup.
    pub fn with_indirect_links() -> Options {
        Options {
            mode: ExecMode::IndirectLinks,
            ..Options::default()
        }
    }

    /// Table 1 row 5 / the full system: + traces.
    pub fn full() -> Options {
        Options::default()
    }

    /// The five Table 1 rows with their labels, emulation first: each row
    /// adds one engine feature (block cache, direct links, indirect links,
    /// traces) to the row before.
    pub fn table1() -> [(&'static str, Options); 5] {
        [
            ("Emulation", Options::emulation()),
            ("+ Basic block cache", Options::cache_only()),
            ("+ Link direct branches", Options::with_direct_links()),
            ("+ Link indirect branches", Options::with_indirect_links()),
            ("+ Traces", Options::full()),
        ]
    }
}

/// Cycle costs of RIO runtime operations, charged on top of executed
/// instructions. Calibrated so the Table 1 bands land in the paper's ranges.
pub mod costs {
    /// Per-application-instruction cost of pure emulation (fetch + decode +
    /// dispatch in the emulator loop).
    pub const EMULATE_PER_INSTR: u64 = 1250;
    /// A context switch between the code cache and RIO (save/restore
    /// machine state).
    pub const CONTEXT_SWITCH: u64 = 850;
    /// Dispatch work per fragment lookup (hashtable probe + bookkeeping).
    pub const DISPATCH: u64 = 120;
    /// The in-cache indirect-branch hashtable lookup.
    pub const HASH_LOOKUP: u64 = 70;
    /// Building one basic block, per decoded instruction (decode + copy +
    /// emit + bookkeeping).
    pub const BB_BUILD_PER_INSTR: u64 = 100;
    /// Fixed per-basic-block build cost.
    pub const BB_BUILD_BASE: u64 = 500;
    /// Building one trace, per instruction (re-decode + stitch + emit).
    pub const TRACE_BUILD_PER_INSTR: u64 = 250;
    /// Fixed per-trace build cost.
    pub const TRACE_BUILD_BASE: u64 = 2000;
    /// Patching one link (encode displacement + bookkeeping).
    pub const LINK_PATCH: u64 = 100;
    /// Trace-head counter increment in dispatch.
    pub const COUNTER_INCREMENT: u64 = 10;
    /// A clean call from the code cache into a client routine (state save,
    /// call, restore).
    pub const CLEAN_CALL: u64 = 60;
    /// Replacing a fragment (unlink/relink + bookkeeping), excluding the
    /// client's own rewriting work.
    pub const REPLACE_FRAGMENT: u64 = 3000;
}

/// RIO-owned address-space layout: thread-local spill slots and runtime
/// sentinel addresses.
///
/// Sentinels are addresses at or above [`Image::RIO_RUNTIME_BASE`]; control
/// arriving at one is a transfer into the RIO runtime, intercepted by the
/// engine (they are never backed by real code).
pub mod layout {
    use super::Image;

    /// Thread-local slot where mangled code spills `%ecx`
    /// (paper §3.2: "special thread-local slots to spill registers").
    pub const ECX_SLOT: u32 = Image::RIO_DATA_BASE;
    /// Spill slot for `%eax`.
    pub const EAX_SLOT: u32 = Image::RIO_DATA_BASE + 4;
    /// Spill slot for `%edx`.
    pub const EDX_SLOT: u32 = Image::RIO_DATA_BASE + 8;
    /// Generic thread-local storage field for clients (paper §3.2).
    pub const CLIENT_TLS_SLOT: u32 = Image::RIO_DATA_BASE + 12;
    /// Scratch slot used by inline sequences.
    pub const SCRATCH_SLOT: u32 = Image::RIO_DATA_BASE + 16;

    /// Indirect-branch lookup entry: mangled indirect branches jump here
    /// with the target application address in `%ecx`.
    pub const IB_LOOKUP: u32 = Image::RIO_RUNTIME_BASE + 0x10;
    /// Base of exit-stub sentinel addresses; stub `k` exits to
    /// `STUB_BASE + 4k`.
    pub const STUB_BASE: u32 = 0xF100_0000;
    /// Exclusive end of the stub sentinel range.
    pub const STUB_END: u32 = 0xF200_0000;
    /// Base of clean-call sentinel addresses; token `k` calls
    /// `CLEAN_CALL_BASE + 4k`.
    pub const CLEAN_CALL_BASE: u32 = 0xF200_0000;
    /// Exclusive end of the clean-call sentinel range.
    pub const CLEAN_CALL_END: u32 = 0xF300_0000;

    /// Sentinel address of stub `k`.
    pub fn stub_sentinel(k: u32) -> u32 {
        STUB_BASE + k * 4
    }

    /// Stub index for a sentinel address in the stub range.
    pub fn stub_index(addr: u32) -> Option<u32> {
        (STUB_BASE..STUB_END)
            .contains(&addr)
            .then(|| (addr - STUB_BASE) / 4)
    }

    /// Sentinel address of clean-call token `k`.
    pub fn clean_call_sentinel(k: u32) -> u32 {
        CLEAN_CALL_BASE + k * 4
    }

    /// Clean-call token for a sentinel address in the clean-call range.
    pub fn clean_call_index(addr: u32) -> Option<u32> {
        (CLEAN_CALL_BASE..CLEAN_CALL_END)
            .contains(&addr)
            .then(|| (addr - CLEAN_CALL_BASE) / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_the_full_system() {
        let o = Options::default();
        assert_eq!(o.mode, ExecMode::Traces);
        assert_eq!(o, Options::full());
        assert_eq!(o.trace_threshold, 50);
    }

    #[test]
    fn table1_rows_strictly_add_features() {
        let rows = Options::table1().map(|(_, o)| o);
        assert_eq!(rows[0].mode, ExecMode::Emulate);
        assert_eq!(rows[4].mode, ExecMode::Traces);
        for pair in rows.windows(2) {
            assert!(pair[0].mode < pair[1].mode, "{pair:?}");
            // The row is the only difference between rows.
            assert_eq!(
                pair[0],
                Options {
                    mode: pair[0].mode,
                    ..pair[1]
                }
            );
        }
    }

    #[test]
    fn sentinel_round_trips() {
        for k in [0u32, 1, 77, 1_000_000] {
            assert_eq!(layout::stub_index(layout::stub_sentinel(k)), Some(k));
            assert_eq!(
                layout::clean_call_index(layout::clean_call_sentinel(k)),
                Some(k)
            );
        }
        assert_eq!(layout::stub_index(0x1000), None);
        assert_eq!(layout::stub_index(layout::CLEAN_CALL_BASE), None);
        assert_eq!(layout::clean_call_index(layout::STUB_BASE), None);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn slots_live_in_rio_data_region() {
        assert!(layout::ECX_SLOT >= Image::RIO_DATA_BASE);
        assert!(layout::CLIENT_TLS_SLOT < Image::RIO_RUNTIME_BASE);
    }
}
