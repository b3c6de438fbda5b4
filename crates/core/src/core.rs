//! The `Core` context: the engine state handed to client hooks.
//!
//! `Core` plays the role of the paper's opaque `context` parameter plus the
//! exported API (§3.2): transparent output, register spill slots, a generic
//! thread-local field, processor identification, custom exit stubs, clean
//! calls, custom trace heads (§3.5), and the adaptive-optimization interface
//! `dr_decode_fragment` / `dr_replace_fragment` (§3.4).

use rio_ia32::{create, decode_instr, Instr, InstrId, InstrList, MemRef, OpSize, Reg, Target};
use rio_sim::{CpuKind, ExecRegion, Image, Machine, Os};

use crate::cache::{CodeCache, ExitKind, FragmentId, FragmentKind};
use crate::config::{costs, layout, Options};
use crate::emit::{emit_fragment, CustomStub, EmitError};
use crate::link::{redirect_incoming, unlink_incoming, unlink_outgoing};
use crate::mangle::Note;
use crate::stats::Stats;
use crate::tagmap::TagSet;
use crate::verify::{verify_fragment, Decoded, LintSnapshot, Violation};

/// State of an in-progress trace recording (§3.5's trace generation mode).
#[derive(Clone, Debug)]
pub(crate) struct Recording {
    /// The trace head tag.
    pub trace_tag: u32,
    /// Tags of the blocks recorded so far, in execution order.
    pub tags: Vec<u32>,
}

/// Why a fragment leaves the cache. Every cause counts in
/// [`Stats::deletions`]; evictions, invalidations and fault evictions also
/// have a counter of their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Removal {
    /// The safe deletion of a copy [`Core::replace_fragment`] displaced
    /// (counted in `replacements` when it was replaced).
    Replaced,
    /// FIFO eviction under capacity pressure.
    Evicted,
    /// A requested whole-cache flush (counted once per sub-cache in
    /// `cache_flushes`).
    Flushed,
    /// Precise invalidation by a write to the fragment's source code.
    Invalidated,
    /// Eviction of a repeatedly faulting fragment.
    Faulted,
}

/// Per-thread engine state: the thread-private cache plus trace-recording
/// state (paper §2: thread-private caches "enable thread-specific
/// optimizations" and avoid all cross-thread synchronization).
pub(crate) struct ThreadCore {
    pub cache: CodeCache,
    pub recording: Option<Recording>,
    pub last_exit_was_return: bool,
    /// Tags whose fragments were evicted for repeated faulting; the next
    /// dispatch of such a tag runs the application code by emulation
    /// instead of rebuilding a (possibly still-faulting) cache copy.
    pub fault_quarantine: TagSet,
    /// Whether the thread is currently executing a quarantined block
    /// outside the cache (so `handle_leave` treats application addresses
    /// as ordinary dispatch targets).
    pub quarantine_exec: bool,
    /// Where the thread resumes when it is next switched in: the cache, at
    /// its saved `eip`, with this execution region; or, before its first
    /// turn, a dispatch at its entry `eip`.
    pub resume: Option<ExecRegion>,
}

impl ThreadCore {
    pub(crate) fn new(tid: u32) -> ThreadCore {
        ThreadCore {
            cache: CodeCache::for_thread(tid),
            recording: None,
            last_exit_was_return: false,
            fault_quarantine: TagSet::default(),
            quarantine_exec: false,
            resume: None,
        }
    }
}

/// The engine context passed to every client hook.
pub struct Core {
    /// The simulated machine executing the code cache.
    pub machine: Machine,
    /// Engine configuration.
    pub options: Options,
    /// Engine statistics.
    pub stats: Stats,
    pub(crate) threads: Vec<ThreadCore>,
    pub(crate) cur: usize,
    pub(crate) os: Os,
    pub(crate) pending_deletions: Vec<FragmentId>,
    /// Tags of fragments removed since the engine last fired the
    /// `fragment_deleted` hook, in removal order.
    pub(crate) deleted_tags: Vec<u32>,
    pub(crate) pending_custom_stubs: Vec<CustomStub>,
    pub(crate) marked_heads: TagSet,
    /// The loaded application image: its entry, its code range (watched
    /// for writes) and the data segments the final state digest reads.
    pub(crate) image: Image,
    pub(crate) last_dispatched: Option<u32>,
    clean_call_args: Vec<u64>,
    /// Why a client hook asked for something the engine cannot give; the
    /// engine ends the run with this engine fault at its next safe point.
    pub(crate) client_fault: Option<String>,
    client_output: String,
    pending_flush: bool,
    /// Fragments touched by an emit/link/unlink/invalidate/evict since the
    /// last safe point, awaiting re-verification under [`Options::verify`].
    verify_queue: Vec<(usize, FragmentId)>,
    /// The verifier's decode of the fragment it checks, kept between checks.
    verify_decoded: Decoded,
    /// The lints' snapshot buffers, lent out by [`Core::lint_snapshot`] and
    /// returned by [`Core::lint_client_edit`].
    lint_buffers: LintSnapshot,
    /// The lint snapshot of the list [`Core::decode_fragment`] last
    /// returned, and the thread, tag and fragment it was decoded from:
    /// [`Core::replace_fragment`] diffs the client's edited list against it.
    decoded_snapshot: LintSnapshot,
    decoded_from: Option<(usize, u32, FragmentId)>,
    /// Violations recorded by incremental verification and the lints.
    verify_findings: Vec<Violation>,
}

impl Core {
    /// Create a core over a fresh machine with `image` loaded.
    pub fn new(image: &Image, options: Options, kind: CpuKind) -> Core {
        let mut machine = Machine::new(kind);
        machine.load_image(image);
        Core {
            machine,
            options,
            stats: Stats::default(),
            threads: vec![ThreadCore::new(0)],
            cur: 0,
            os: Os::new(),
            pending_deletions: Vec::new(),
            deleted_tags: Vec::new(),
            pending_custom_stubs: Vec::new(),
            marked_heads: TagSet::default(),
            image: image.clone(),
            last_dispatched: None,
            clean_call_args: Vec::new(),
            client_fault: None,
            client_output: String::new(),
            pending_flush: false,
            verify_queue: Vec::new(),
            verify_decoded: Vec::new(),
            lint_buffers: LintSnapshot::default(),
            decoded_snapshot: LintSnapshot::default(),
            decoded_from: None,
            verify_findings: Vec::new(),
        }
    }

    // ----- transparency (§3.2) -------------------------------------------

    /// Transparent client output (paper: `dr_printf`) — buffered separately
    /// from the application's output so client I/O can never interleave
    /// with or corrupt it.
    pub fn printf(&mut self, s: impl AsRef<str>) {
        self.client_output.push_str(s.as_ref());
    }

    /// Everything the client printed so far.
    pub fn client_output(&self) -> &str {
        &self.client_output
    }

    /// The application's buffered output so far.
    pub fn app_output(&self) -> &str {
        &self.os.output
    }

    // ----- processor identification (§3.2) -------------------------------

    /// The processor family the code cache runs on (paper:
    /// `proc_get_family`), for architecture-specific optimizations.
    pub fn proc_kind(&self) -> CpuKind {
        self.machine.cpu_kind()
    }

    // ----- overhead accounting -------------------------------------------

    /// Charge cycles of client work (optimization time) to the run. The
    /// paper's evaluation includes optimization time in the measured runs;
    /// clients call this to model theirs.
    pub fn charge(&mut self, cycles: u64) {
        self.machine.charge(cycles);
    }

    /// Charge and count one context switch from the cache to the engine.
    pub(crate) fn context_switch(&mut self) {
        self.charge(costs::CONTEXT_SWITCH);
        self.stats.context_switches += 1;
    }

    /// Roll back a mangling `%ecx` spill: between the spill and its
    /// restore the application's `%ecx` lives in the thread-local slot, so
    /// copy it back when control will not resume inside the mangled region.
    pub(crate) fn restore_spilled_ecx(&mut self) {
        let saved = self.machine.mem.read_u32(layout::ECX_SLOT);
        self.machine.cpu.set_reg(Reg::Ecx, saved);
    }

    // ----- spill slots and client TLS (§3.2) ------------------------------

    /// The thread-local spill slot for a register (paper: "special
    /// thread-local slots to spill registers"). Only `%ecx`, `%eax`, and
    /// `%edx` have dedicated slots.
    ///
    /// Asking for any other register is a client error: it returns `None`,
    /// and the engine ends the run with an engine fault (exit status 128)
    /// naming the register at its next safe point, before any further
    /// application code runs.
    pub fn spill_slot(&mut self, reg: Reg) -> Option<MemRef> {
        let addr = match reg.parent32() {
            Reg::Ecx => layout::ECX_SLOT,
            Reg::Eax => layout::EAX_SLOT,
            Reg::Edx => layout::EDX_SLOT,
            other => {
                self.client_fault.get_or_insert_with(|| {
                    format!("client asked for a spill slot for {other}, which has none")
                });
                return None;
            }
        };
        Some(MemRef::absolute(addr, OpSize::S32))
    }

    /// Read the generic client thread-local field (paper §3.2). The field is
    /// also addressable from generated code via
    /// [`layout::CLIENT_TLS_SLOT`](crate::config::layout::CLIENT_TLS_SLOT).
    ///
    /// Note: with cooperative multithreading the slot is shared across
    /// threads (as are the register spill slots). This is safe for the
    /// engine's own spills — threads only switch at system calls, never
    /// inside a mangled spill/restore sequence — but clients storing
    /// longer-lived per-thread state should key it by
    /// [`Core::current_thread`].
    pub fn client_tls(&self) -> u32 {
        self.machine.mem.read_u32(layout::CLIENT_TLS_SLOT)
    }

    /// Write the generic client thread-local field.
    pub fn set_client_tls(&mut self, v: u32) {
        self.machine.mem.write_u32(layout::CLIENT_TLS_SLOT, v);
    }

    // ----- custom exit stubs (§3.2) ---------------------------------------

    /// Request that `instrs` be prepended to the exit stub of the exit CTI
    /// `exit`, optionally forcing the exit to route through the stub even
    /// when linked. Applies to the fragment currently being built (call from
    /// within a `basic_block` or `trace` hook). In a `basic_block` hook,
    /// `exit` may also be the block's last instruction when mangling
    /// replaces it or appends after it (a `call`, `ret`, indirect `jmp` or
    /// `call`, or a block cut before a split): the stub goes to the exit
    /// mangling puts in its place. A stub on any other instruction that is
    /// not an exit is never emitted.
    pub fn append_exit_stub(&mut self, exit: InstrId, instrs: InstrList, force_stub: bool) {
        self.pending_custom_stubs.push(CustomStub {
            exit_instr: exit,
            instrs,
            force_stub,
        });
    }

    // ----- clean calls ----------------------------------------------------

    /// Create a call instruction that, when executed in the code cache,
    /// transfers to the client's [`Client::clean_call`] hook with `arg`
    /// (the mechanism behind Figure 4's `call prof_routine`). Insert the
    /// returned instruction anywhere in a block or trace.
    ///
    /// [`Client::clean_call`]: crate::Client::clean_call
    pub fn clean_call_instr(&mut self, arg: u64) -> Instr {
        let token = self.clean_call_args.len() as u32;
        self.clean_call_args.push(arg);
        create::call(Target::Pc(layout::clean_call_sentinel(token)))
    }

    /// The argument registered for clean-call token `token`.
    pub(crate) fn clean_call_arg(&self, token: u32) -> Option<u64> {
        self.clean_call_args.get(token as usize).copied()
    }

    /// Number of clean-call tokens registered so far (sentinels below this
    /// bound are valid transfer targets for the verifier).
    pub(crate) fn clean_call_count(&self) -> u32 {
        self.clean_call_args.len() as u32
    }

    // ----- custom traces (§3.5) -------------------------------------------

    /// Mark `tag` as a trace head (paper: `dr_mark_trace_head`). Future and
    /// existing blocks for `tag` will be counted in dispatch and eventually
    /// grown into traces; any links into an existing block are severed so
    /// dispatch sees every execution.
    pub fn mark_trace_head(&mut self, tag: u32) {
        if !self.marked_heads.insert(tag) {
            return;
        }
        self.stats.trace_heads += 1;
        if let Some(id) = self.threads[self.cur].cache.lookup_bb(tag) {
            if !self.threads[self.cur].cache.frag(id).is_trace_head {
                self.threads[self.cur].cache.frag_mut(id).is_trace_head = true;
                let n_unlinked = self.threads[self.cur].cache.frag(id).incoming.len() as u64;
                self.note_verify_neighbors(self.cur, id);
                unlink_incoming(&mut self.machine, &mut self.threads[self.cur].cache, id);
                self.stats.unlinks += n_unlinked;
            }
        }
    }

    /// Whether `tag` has been marked as a trace head.
    pub fn is_trace_head(&self, tag: u32) -> bool {
        self.marked_heads.contains(&tag)
    }

    /// Whether a trace is currently being recorded.
    pub fn in_trace_recording(&self) -> bool {
        self.threads[self.cur].recording.is_some()
    }

    /// Number of blocks recorded so far in the current trace.
    pub fn recording_block_count(&self) -> usize {
        self.threads[self.cur]
            .recording
            .as_ref()
            .map_or(0, |r| r.tags.len())
    }

    /// Whether the most recent fragment exit was a translated return —
    /// exposed for custom-trace clients implementing §4.4's "once a return
    /// is reached, the trace is ended after the next basic block".
    pub fn last_exit_was_return(&self) -> bool {
        self.threads[self.cur].last_exit_was_return
    }

    // ----- fragment queries -----------------------------------------------

    /// Whether a fragment (block or trace) exists for `tag`.
    pub fn fragment_exists(&self, tag: u32) -> bool {
        self.threads[self.cur].cache.lookup(tag).is_some()
    }

    /// The kind of fragment that will execute for `tag`.
    pub fn fragment_kind(&self, tag: u32) -> Option<FragmentKind> {
        self.threads[self.cur]
            .cache
            .lookup(tag)
            .map(|id| self.threads[self.cur].cache.frag(id).kind)
    }

    // ----- adaptive optimization (§3.4) ------------------------------------

    /// Re-create the `InstrList` for the fragment executing for `tag` from
    /// the code cache (paper: `dr_decode_fragment`).
    ///
    /// The list reflects exactly the code in the cache body (stubs
    /// excluded). Exit branches are re-targeted to their application
    /// addresses (direct) or the lookup sentinel (indirect, with their
    /// [`Note::IbExit`] marker restored); intra-fragment branches become
    /// label targets. Application pcs and `%ecx` spill/restore markers are
    /// restored from the translation table, so a re-emitted copy keeps
    /// working fault translation. Inline-check *metadata* (the expected
    /// target of a [`Note::IbCheckBegin`]) is not reconstructable from
    /// machine code, so re-decoded fragments conservatively lose check
    /// elision.
    ///
    /// The core keeps the returned list's lint snapshot, so the
    /// [`Core::replace_fragment`] that follows lints the client's edits
    /// without decoding the fragment again.
    pub fn decode_fragment(&mut self, tag: u32) -> Option<InstrList> {
        let id = self.threads[self.cur].cache.lookup(tag)?;
        let frag = self.threads[self.cur].cache.frag(id);
        let start = frag.start;
        let body_end = start + frag.body_len;

        // Pass 1: linear decode of the body, restoring each instruction's
        // application pc from the translation table.
        let mut decoded: Vec<(u32, Instr)> = Vec::new();
        let mut spill_state: Vec<bool> = Vec::new();
        let mut pc = start;
        let mut buf = [0u8; 16];
        while pc < body_end {
            self.machine.mem.read_bytes(pc, &mut buf);
            let (mut instr, len) = decode_instr(&buf, pc).ok()?;
            let row = frag.translate(pc);
            instr.set_app_pc(row.map_or(0, |t| t.app_pc));
            spill_state.push(row.is_some_and(|t| t.ecx_spilled));
            decoded.push((pc - start, instr));
            pc += len;
        }
        // Restore the %ecx spill markers: `ecx_spilled` flips true on the
        // row *after* a spill and false on the row after the restoring
        // load, so each transition identifies the instruction carrying the
        // marker. (A spill that opened an inline check is re-marked as a
        // plain spill — same region semantics, no elidable metadata.)
        for i in 0..decoded.len().saturating_sub(1) {
            if decoded[i].1.note != 0 {
                continue;
            }
            match (spill_state[i], spill_state[i + 1]) {
                (false, true) => decoded[i].1.note = Note::Spill.pack(),
                (true, false) => decoded[i].1.note = Note::IbCheckEnd.pack(),
                _ => {}
            }
        }

        // Exit branch offsets -> exit metadata.
        let exit_at = |off: u32| frag.exits.iter().find(|e| e.branch_instr_off == off);

        // Intra-fragment branch targets that need labels.
        let mut label_offsets: Vec<u32> = Vec::new();
        for (off, instr) in &decoded {
            if exit_at(*off).is_some() {
                continue;
            }
            if let Some(Target::Pc(t)) = instr.target() {
                if t >= start && t < body_end {
                    label_offsets.push(t - start);
                }
            }
        }

        // Pass 2: build the list, inserting labels and fixing targets.
        let mut il = InstrList::new();
        let mut label_ids: Vec<(u32, InstrId)> = Vec::new();
        for (off, instr) in decoded {
            if label_offsets.contains(&off) {
                let lid = il.push_back(Instr::label());
                label_ids.push((off, lid));
            }
            let mut instr = instr;
            if let Some(exit) = exit_at(off) {
                match exit.kind {
                    ExitKind::Direct { target } => instr.set_target(Target::Pc(target)),
                    ExitKind::Indirect { kind } => {
                        instr.set_target(Target::Pc(layout::IB_LOOKUP));
                        instr.note = Note::IbExit(kind).pack();
                    }
                }
            }
            il.push_back(instr);
        }
        // Fix intra-fragment targets to labels.
        let ids: Vec<InstrId> = il.ids().collect();
        for id in ids {
            let instr = il.get(id);
            if Note::parse(instr.note).is_some() {
                continue;
            }
            if let Some(Target::Pc(t)) = instr.target() {
                if t >= start && t < body_end {
                    let off = t - start;
                    if let Some((_, lid)) = label_ids.iter().find(|(o, _)| *o == off) {
                        il.get_mut(id).set_target(Target::Instr(*lid));
                    }
                }
            }
        }
        self.decoded_snapshot.capture(&il);
        self.decoded_from = Some((self.cur, tag, id));
        Some(il)
    }

    /// Replace the fragment for `tag` with a new version built from `il`
    /// (paper: `dr_replace_fragment`).
    ///
    /// The replacement is safe even while execution is logically inside the
    /// old fragment (e.g. from a clean call out of it): all links targeting
    /// and originating from the old fragment are immediately redirected, the
    /// old fragment's bytes stay resident, and it is deleted at the next
    /// safe point — so "the current thread will continue to execute in the
    /// old fragment only until the next branch" (§3.4).
    ///
    /// Returns `false` if no fragment exists for `tag` or the new list fails
    /// to encode.
    pub fn replace_fragment(&mut self, tag: u32, mut il: InstrList) -> bool {
        let Some(old) = self.threads[self.cur].cache.lookup(tag) else {
            return false;
        };
        let (kind, src_ranges) = {
            let f = self.threads[self.cur].cache.frag(old);
            (f.kind, f.src_ranges.clone())
        };
        // Transformation-safety lint: diff the replacement list against the
        // decode of the cache copy it replaces — client edits may only add
        // writes to registers and flags the liveness analysis proves dead.
        // A list not decoded from that copy has every write checked as new.
        if self.decoded_from.take() != Some((self.cur, tag, old)) {
            self.decoded_snapshot.clear();
        }
        let v = self.decoded_snapshot.check(&il, self.cur, tag);
        self.note_lint(v);
        self.charge(costs::REPLACE_FRAGMENT);
        let Ok(new) = self.emit(kind, tag, &mut il, src_ranges) else {
            return false;
        };
        // Preserve trace-head status and counter.
        let (head, counter) = {
            let f = self.threads[self.cur].cache.frag(old);
            (f.is_trace_head, f.counter)
        };
        {
            let f = self.threads[self.cur].cache.frag_mut(new);
            f.is_trace_head = head;
            f.counter = counter;
        }
        self.note_verify_neighbors(self.cur, old);
        let moved = self.threads[self.cur].cache.frag(old).incoming.len() as u64;
        redirect_incoming(
            &mut self.machine,
            &mut self.threads[self.cur].cache,
            old,
            new,
        );
        self.stats.links += moved;
        self.stats.unlinks += moved;
        unlink_outgoing(&mut self.machine, &mut self.threads[self.cur].cache, old);
        self.threads[self.cur].cache.remove_from_maps(old);
        self.pending_deletions.push(old);
        self.stats.replacements += 1;
        true
    }

    /// Emit `il` as a `kind` fragment for `tag` into the current thread's
    /// cache — the one emission path for blocks, traces and replacements.
    /// It takes the custom exit stubs requested since the last emission
    /// (consumed even when emission fails) and queues the new fragment for
    /// verification.
    pub(crate) fn emit(
        &mut self,
        kind: FragmentKind,
        tag: u32,
        il: &mut InstrList,
        src_ranges: impl Into<Vec<(u32, u32)>>,
    ) -> Result<FragmentId, EmitError> {
        let custom = std::mem::take(&mut self.pending_custom_stubs);
        let cache = &mut self.threads[self.cur].cache;
        let id = emit_fragment(&mut self.machine, cache, kind, tag, il, custom, src_ranges)?;
        self.note_verify(self.cur, id);
        Ok(id)
    }

    /// Remove fragment `id` from thread `thread`'s cache — the one deletion
    /// routine behind every [`Removal`] cause. It queues the link
    /// neighbours for re-verification, unlinks the fragment both ways,
    /// unmaps and tombstones it, counts it, and queues its tag for the
    /// `fragment_deleted` hook. The bytes stay resident, so this is safe
    /// while `eip` is still inside the fragment.
    pub(crate) fn remove_fragment(&mut self, thread: usize, id: FragmentId, cause: Removal) {
        self.note_verify_neighbors(thread, id);
        let cache = &mut self.threads[thread].cache;
        unlink_incoming(&mut self.machine, cache, id);
        unlink_outgoing(&mut self.machine, cache, id);
        cache.remove(id);
        self.deleted_tags.push(cache.frag(id).tag);
        self.stats.deletions += 1;
        match cause {
            Removal::Evicted => self.stats.evictions += 1,
            Removal::Invalidated => self.stats.invalidations += 1,
            Removal::Faulted => self.stats.fault_evictions += 1,
            Removal::Replaced | Removal::Flushed => {}
        }
    }

    /// Delete the replaced fragments that control has left (engine-internal;
    /// called at safe points). A replaced fragment may have re-acquired
    /// links: it keeps executing until control leaves it, and traversing an
    /// exit re-links lazily, so the removal unlinks it again.
    pub(crate) fn take_safe_deletions(&mut self) {
        let eip = self.machine.cpu.eip;
        for id in std::mem::take(&mut self.pending_deletions) {
            let f = self.threads[self.cur].cache.frag(id);
            // A fragment already removed by another cause had its hook
            // fire there.
            if f.deleted {
                continue;
            }
            if f.contains(eip) {
                self.pending_deletions.push(id);
            } else {
                self.remove_fragment(self.cur, id, Removal::Replaced);
            }
        }
    }

    // ----- cache capacity management ----------------------------------------

    /// If a sub-cache's live bytes exceed [`Options::cache_limit`], evict
    /// fragments one at a time in FIFO order (oldest `FragmentId` first —
    /// insertion order) until back under the limit (paper §6: per-fragment
    /// deletion "from the head of the FIFO" beats flushing the whole
    /// cache). Called at dispatch (a safe point — control is out of the
    /// cache), but a fragment that `eip` is suspended inside (a session
    /// stopped mid-[`Rio::step`](crate::Rio::step)) is skipped and becomes
    /// the first candidate at a later dispatch.
    pub(crate) fn process_cache_pressure(&mut self) {
        let Some(limit) = self.options.cache_limit else {
            return;
        };
        let eip = self.machine.cpu.eip;
        for kind in [FragmentKind::BasicBlock, FragmentKind::Trace] {
            let mut cursor = FragmentId(0);
            while self.threads[self.cur].cache.live_bytes(kind) > limit {
                let Some(id) = self.threads[self.cur].cache.oldest_live(kind, cursor) else {
                    break;
                };
                cursor = FragmentId(id.0 + 1);
                if !self.threads[self.cur].cache.frag(id).contains(eip) {
                    self.remove_fragment(self.cur, id, Removal::Evicted);
                }
            }
        }
    }

    /// Request that the current thread's entire code cache be flushed at
    /// the next safe point (the next dispatch). Each flushed fragment's tag
    /// is reported through the `fragment_deleted` client hook, exactly as
    /// for capacity evictions. Safe to call while a session is
    /// suspended by [`Rio::step`](crate::Rio::step) — the flush happens
    /// before any further cache execution.
    pub fn request_cache_flush(&mut self) {
        self.pending_flush = true;
    }

    /// Perform a requested whole-cache flush (engine-internal; called at
    /// dispatch, a safe point): remove every live fragment, one sub-cache
    /// at a time, and reset the sub-cache's allocator.
    pub(crate) fn take_requested_flush(&mut self) {
        if !std::mem::take(&mut self.pending_flush) {
            return;
        }
        for kind in [FragmentKind::BasicBlock, FragmentKind::Trace] {
            let ids = self.threads[self.cur].cache.live_ids(|f| f.kind == kind);
            if !ids.is_empty() {
                self.stats.cache_flushes += 1;
            }
            for id in ids {
                self.remove_fragment(self.cur, id, Removal::Flushed);
            }
            self.threads[self.cur].cache.reset_alloc(kind);
        }
    }

    // ----- cache consistency (paper §6) -------------------------------------

    /// Precisely invalidate every fragment whose source ranges overlap the
    /// written span `[addr, addr + len)` — the response to a
    /// `CpuExit::CodeWrite`. Overlapping fragments in *every* thread's
    /// cache (the writer may invalidate another thread's copy) are removed,
    /// which is safe even while `eip` is still inside the writing fragment.
    /// The next dispatch of an invalidated tag rebuilds from the freshly
    /// written application bytes.
    pub(crate) fn invalidate_code_write(&mut self, addr: u32, len: u32) {
        let (lo, hi) = (addr, addr.saturating_add(len));
        for t in 0..self.threads.len() {
            for id in self.threads[t].cache.live_ids(|f| f.overlaps_src(lo, hi)) {
                self.remove_fragment(t, id, Removal::Invalidated);
            }
        }
    }

    // ----- fault recovery ---------------------------------------------------

    /// Evict a repeatedly-faulting fragment and quarantine its tag, so the
    /// next dispatch re-executes the application code by emulation instead
    /// of rebuilding a corrupt copy. Safe while `eip` is still inside the
    /// fragment: delivery redirects control out of it before it could
    /// re-enter.
    pub(crate) fn fault_evict(&mut self, id: FragmentId) {
        let tag = self.threads[self.cur].cache.frag(id).tag;
        self.remove_fragment(self.cur, id, Removal::Faulted);
        self.threads[self.cur].fault_quarantine.insert(tag);
    }

    /// Consume the quarantine marker for `tag`, if present. The dispatch
    /// that consumes it runs the block by emulation; subsequent dispatches
    /// rebuild a fresh cache copy (self-healing).
    pub(crate) fn take_fault_quarantine(&mut self, tag: u32) -> bool {
        self.threads[self.cur].fault_quarantine.remove(&tag)
    }

    // ----- static verification ----------------------------------------------

    /// Run the cache verifier over every live fragment in every thread's
    /// cache, decoding the actual cache bytes and checking the structural
    /// invariants (clean decode, closed-world control flow, link-map
    /// agreement, translation-table monotonicity and coverage, `%ecx`
    /// spill balance, source-range sanity). One check is counted per
    /// fragment in [`Stats::checks_run`]; violations are returned in
    /// deterministic (thread, fragment) order and counted in
    /// [`Stats::violations`].
    pub fn verify_cache(&mut self) -> Vec<Violation> {
        let mut all = Vec::new();
        for t in 0..self.threads.len() {
            for id in (0..self.threads[t].cache.len() as u32).map(FragmentId) {
                if !self.threads[t].cache.frag(id).deleted {
                    all.extend(self.verify_one(t, id));
                }
            }
        }
        all
    }

    /// Verify one fragment, counting the check and its violations.
    fn verify_one(&mut self, t: usize, id: FragmentId) -> Vec<Violation> {
        self.stats.checks_run += 1;
        let cache = &self.threads[t].cache;
        let clean_calls = self.clean_call_count();
        let v = verify_fragment(
            &self.machine,
            cache,
            t,
            id,
            self.image.code_range(),
            clean_calls,
            &mut self.verify_decoded,
        );
        self.stats.violations += v.len() as u64;
        v
    }

    /// Violations recorded so far by incremental ([`Options::verify`])
    /// verification and the client-safety lints, in detection order.
    pub fn verify_findings(&self) -> &[Violation] {
        &self.verify_findings
    }

    /// Queue a fragment for re-verification at the next safe point (no-op
    /// unless [`Options::verify`] is set). Called wherever the cache is
    /// mutated: emission, linking, unlinking, invalidation, eviction.
    pub(crate) fn note_verify(&mut self, thread: usize, id: FragmentId) {
        if self.options.verify {
            self.verify_queue.push((thread, id));
        }
    }

    /// Queue the link neighbors of `id` — incoming sources (their exits
    /// will be re-patched) and outgoing targets (their incoming lists will
    /// shrink) — ahead of an unlink or deletion of `id`.
    pub(crate) fn note_verify_neighbors(&mut self, thread: usize, id: FragmentId) {
        if !self.options.verify {
            return;
        }
        let f = self.threads[thread].cache.frag(id);
        let mut neighbors: Vec<FragmentId> = f.incoming.iter().map(|(src, _)| *src).collect();
        neighbors.extend(f.exits.iter().filter_map(|e| e.linked_to));
        for n in neighbors {
            if n != id {
                self.verify_queue.push((thread, n));
            }
        }
    }

    /// Re-verify every fragment queued since the last safe point
    /// (deduplicated; tombstoned fragments are skipped). Verification work
    /// is not charged to the run. Returns the number of new violations.
    pub(crate) fn drain_verify_queue(&mut self) -> usize {
        if self.verify_queue.is_empty() {
            return 0;
        }
        let mut queue = std::mem::take(&mut self.verify_queue);
        queue.sort_unstable_by_key(|(t, id)| (*t, id.0));
        queue.dedup();
        let mut found = 0;
        for &(t, id) in &queue {
            if self.threads[t].cache.frag(id).deleted {
                continue;
            }
            let v = self.verify_one(t, id);
            found += v.len();
            self.verify_findings.extend(v);
        }
        // Verification queues nothing, so the emptied buffer goes back.
        queue.clear();
        self.verify_queue = queue;
        found
    }

    /// Snapshot `il` ahead of a client hook, into the core's reused lint
    /// buffers (a hook that nests another snapshot gets fresh ones).
    pub(crate) fn lint_snapshot(&mut self, il: &InstrList) -> LintSnapshot {
        let mut snapshot = std::mem::take(&mut self.lint_buffers);
        snapshot.capture(il);
        snapshot
    }

    /// Run the client-safety lints over an instruction list a client hook
    /// just returned, diffing it against the pre-hook `snapshot` under a
    /// fresh liveness analysis, and keep the snapshot's buffers. Always on
    /// (uncharged); violations land in [`Stats::violations`] and
    /// [`Core::verify_findings`].
    pub(crate) fn lint_client_edit(&mut self, snapshot: LintSnapshot, il: &InstrList, tag: u32) {
        let v = snapshot.check(il, self.cur, tag);
        self.note_lint(v);
        self.lint_buffers = snapshot;
    }

    /// Count one lint run and record its violations.
    fn note_lint(&mut self, v: Vec<Violation>) {
        self.stats.checks_run += 1;
        self.stats.violations += v.len() as u64;
        self.verify_findings.extend(v);
    }

    // ----- introspection for reports ---------------------------------------

    /// The current thread's code cache (read-only), for tests and reports.
    pub fn cache(&self) -> &CodeCache {
        &self.threads[self.cur].cache
    }

    /// Number of threads created so far (including the initial thread).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The currently executing thread's id.
    pub fn current_thread(&self) -> usize {
        self.cur
    }

    /// A specific thread's private cache, for cross-thread inspection in
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread_cache(&self, tid: usize) -> &CodeCache {
        &self.threads[tid].cache
    }

    /// A human-readable listing of the current thread's live fragments:
    /// tag, kind, cache placement, and per-exit link state. A debugging aid
    /// in the spirit of DynamoRIO's `-loglevel` fragment dumps.
    pub fn fragment_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let cache = self.cache();
        for f in cache.iter().filter(|f| !f.deleted) {
            let kind = match f.kind {
                FragmentKind::BasicBlock => "bb   ",
                FragmentKind::Trace => "trace",
            };
            let _ = writeln!(
                out,
                "{kind} tag={:#010x} cache={:#010x}+{:<4} exits={}{}",
                f.tag,
                f.start,
                f.total_len,
                f.exits.len(),
                if f.is_trace_head {
                    format!("  [trace head, count {}]", f.counter)
                } else {
                    String::new()
                }
            );
            for (i, e) in f.exits.iter().enumerate() {
                let desc = match e.kind {
                    ExitKind::Direct { target } => format!("direct -> {target:#010x}"),
                    ExitKind::Indirect { kind } => format!("indirect ({kind:?})"),
                };
                let link = match e.linked_to {
                    Some(id) => format!("linked to {:#010x}", cache.frag(id).start),
                    None => "unlinked".to_string(),
                };
                let _ = writeln!(out, "      exit {i}: {desc}, {link}");
            }
        }
        out
    }

    /// Disassemble the cache body of the fragment executing for `tag`
    /// (current thread), for debugging and the CLI `fragments` command.
    pub fn disassemble_fragment(&self, tag: u32) -> Option<String> {
        use std::fmt::Write;
        let id = self.cache().lookup(tag)?;
        let frag = self.cache().frag(id);
        let mut bytes = vec![0u8; frag.body_len as usize];
        self.machine.mem.read_bytes(frag.start, &mut bytes);
        let lines = rio_ia32::disasm::disassemble(&bytes, frag.start).ok()?;
        let mut out = String::new();
        for l in lines {
            let _ = writeln!(out, "{:08x}  {:<24} {}", l.pc, l.raw, l.text);
        }
        Some(out)
    }
}
