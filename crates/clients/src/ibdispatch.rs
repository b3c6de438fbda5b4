//! Adaptive indirect branch dispatch (paper §4.3, Figure 4).
//!
//! The indirect-branch hashtable lookup "is the single greatest source of
//! overhead". This client value-profiles indirect branch targets on the
//! lookup path of each trace and, once enough samples accumulate,
//! **rewrites the trace from inside itself**: a chain of flag-free
//! compare-and-branch pairs for the hottest targets is inserted before the
//! profiling call, turning most lookups into direct (linkable!) exits —
//! "adaptively replacing the hashtable lookup with a series of compares and
//! direct branches".
//!
//! The profiling call is kept after the compares, so only residual misses
//! are sampled. "No profiling is done to determine if the inserted targets
//! remain hot; once a target is inserted, it is never removed."

use std::collections::HashMap;

use rio_core::{layout, Client, Core, Note};
use rio_ia32::{create, Instr, InstrId, InstrList, MemRef, OpSize, Opnd, Reg, Target};

/// Samples collected at a site before it is rewritten.
const DEFAULT_THRESHOLD: usize = 64;
/// Maximum compare-branch pairs inserted per site (bounded by `jecxz`'s
/// rel8 reach across the chain).
const MAX_TARGETS: usize = 4;
/// Modeled cycles for one trace rewrite (decode + insert + re-encode).
const REWRITE_COST: u64 = 4000;

/// Per-site profiling state.
#[derive(Debug)]
struct Site {
    /// Trace this site lives in.
    trace_tag: u32,
    /// The clean-call sentinel identifying the site's call instruction.
    sentinel: u32,
    /// Collected target samples since the last rewrite.
    samples: Vec<u32>,
    /// Whether the site has been rewritten (one rewrite per site).
    rewritten: bool,
}

/// The adaptive indirect-branch dispatch client.
#[derive(Debug, Default)]
pub struct IbDispatch {
    sites: Vec<Site>,
    /// Sampling threshold before rewriting.
    pub threshold: usize,
    /// Total samples observed.
    pub samples_taken: u64,
    /// Trace rewrites performed.
    pub rewrites: u64,
    /// Compare-branch pairs inserted.
    pub targets_inserted: u64,
}

impl IbDispatch {
    /// Create the client with the default sampling threshold.
    pub fn new() -> IbDispatch {
        IbDispatch {
            threshold: DEFAULT_THRESHOLD,
            ..IbDispatch::default()
        }
    }

    /// The hottest distinct targets among `samples`, most frequent first.
    fn hot_targets(samples: &[u32], max: usize) -> Vec<u32> {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for s in samples {
            *counts.entry(*s).or_default() += 1;
        }
        let mut by_count: Vec<(u32, u32)> = counts.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_count.into_iter().take(max).map(|(t, _)| t).collect()
    }

    /// Rewrite the trace containing `site`: insert the dispatch chain.
    fn rewrite(&mut self, core: &mut Core, site_idx: usize) {
        let (tag, sentinel) = {
            let s = &self.sites[site_idx];
            (s.trace_tag, s.sentinel)
        };
        let Some(mut il) = core.decode_fragment(tag) else {
            return;
        };
        // Locate this site's profiling call and the ib-exit jmp after it.
        let Some(call_id) = il.ids().find(|id| {
            let i = il.get(*id);
            i.opcode() == Some(rio_ia32::Opcode::Call) && i.target() == Some(Target::Pc(sentinel))
        }) else {
            return;
        };
        let mut exit_search = il.next_id(call_id);
        let exit_id = loop {
            match exit_search {
                Some(id) if matches!(Note::parse(il.get(id).note), Some(Note::IbExit(_))) => {
                    break id;
                }
                Some(id) => exit_search = il.next_id(id),
                None => return,
            }
        };

        let targets = Self::hot_targets(&self.sites[site_idx].samples, MAX_TARGETS);
        if targets.is_empty() {
            return;
        }

        // Before the call: the compare chain (flag-free, as in the engine's
        // own inlined checks). After the exit jmp: one match block per
        // target restoring the app %ecx and exiting directly.
        let ecx_slot = Opnd::Mem(MemRef::absolute(layout::ECX_SLOT, OpSize::S32));
        let mut match_blocks: Vec<(InstrId, u32)> = Vec::new();
        let mut insert_after = exit_id;
        for t in &targets {
            let lbl = il.insert_after(insert_after, Instr::label());
            let restore = il.insert_after(lbl, create::mov(Opnd::reg(Reg::Ecx), ecx_slot));
            // Mark the restore so re-emission knows the %ecx spill region
            // ends here (keeps the fragment's fault-translation rows and
            // the cache verifier's spill-balance check exact).
            il.get_mut(restore).note = Note::IbCheckEnd.pack();
            let exit = il.insert_after(restore, create::jmp(Target::Pc(*t)));
            insert_after = exit;
            match_blocks.push((lbl, *t));
        }
        for (lbl, t) in &match_blocks {
            il.insert_before(
                call_id,
                create::lea(
                    Reg::Ecx,
                    MemRef::base_disp(Reg::Ecx, -(*t as i32), OpSize::S32),
                ),
            );
            let mut jz = create::jecxz(Target::Pc(0));
            jz.set_target(Target::Instr(*lbl));
            il.insert_before(call_id, jz);
            il.insert_before(
                call_id,
                create::lea(
                    Reg::Ecx,
                    MemRef::base_disp(Reg::Ecx, *t as i32, OpSize::S32),
                ),
            );
        }

        core.charge(REWRITE_COST);
        if core.replace_fragment(tag, il) {
            self.rewrites += 1;
            self.targets_inserted += targets.len() as u64;
            let site = &mut self.sites[site_idx];
            site.rewritten = true;
            site.samples.clear();
        }
    }
}

impl Client for IbDispatch {
    fn name(&self) -> &'static str {
        "ibdispatch"
    }

    // No `basic_block` hook: blocks keep the Level 0 bundle fast path.
    fn wants_full_decode(&self) -> bool {
        false
    }

    fn trace(&mut self, core: &mut Core, tag: u32, trace: &mut InstrList) {
        // Instrument every indirect-branch lookup path in the trace with a
        // profiling call (Figure 4, upper half).
        let exits: Vec<InstrId> = trace
            .ids()
            .filter(|id| matches!(Note::parse(trace.get(*id).note), Some(Note::IbExit(_))))
            .collect();
        for exit_id in exits {
            let site_id = self.sites.len() as u64;
            let call = core.clean_call_instr(site_id);
            let sentinel = match call.target() {
                Some(Target::Pc(p)) => p,
                _ => unreachable!("clean call instr targets its sentinel"),
            };
            trace.insert_before(exit_id, call);
            self.sites.push(Site {
                trace_tag: tag,
                sentinel,
                samples: Vec::new(),
                rewritten: false,
            });
        }
    }

    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        let idx = arg as usize;
        // The runtime target is in %ecx at the profiling point.
        let target = core.machine.cpu.reg(Reg::Ecx);
        self.samples_taken += 1;
        let site = &mut self.sites[idx];
        site.samples.push(target);
        if site.samples.len() >= self.threshold && !site.rewritten {
            self.rewrite(core, idx);
        }
    }

    fn on_exit(&mut self, core: &mut Core) {
        core.printf(format!(
            "ibdispatch: {} sites, {} samples, {} rewrites, {} targets inserted\n",
            self.sites.len(),
            self.samples_taken,
            self.rewrites,
            self.targets_inserted
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::{Options, Rio};
    use rio_ia32::encode::encode_list;
    use rio_ia32::Cc;
    use rio_sim::{run_native, CpuKind, Image};

    #[test]
    fn hot_targets_orders_by_frequency() {
        let samples = [5, 7, 7, 7, 5, 9];
        assert_eq!(IbDispatch::hot_targets(&samples, 2), vec![7, 5]);
        assert_eq!(IbDispatch::hot_targets(&samples, 10), vec![7, 5, 9]);
        assert!(IbDispatch::hot_targets(&[], 4).is_empty());
    }

    /// A call-heavy program where the callee returns to two different call
    /// sites — the return's inlined target check misses half the time,
    /// which is exactly the pattern §4.3 targets.
    fn two_site_call_program(iters: i32) -> Image {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(iters)));
        let top = il.push_back(create::label());
        let c1 = il.push_back(create::call(Target::Pc(0)));
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(1)));
        let c2 = il.push_back(create::call(Target::Pc(0)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::reg(Reg::Edi)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        let f = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(2)));
        il.push_back(create::ret());
        il.get_mut(c1).set_target(Target::Instr(f));
        il.get_mut(c2).set_target(Target::Instr(f));
        Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
    }

    #[test]
    fn profiles_rewrites_and_preserves_semantics() {
        let img = two_site_call_program(3_000);
        let native = run_native(&img, CpuKind::Pentium4);
        let mut rio = Rio::new(
            &img,
            Options::full(),
            CpuKind::Pentium4,
            IbDispatch {
                threshold: 32,
                ..IbDispatch::new()
            },
        );
        let r = rio.run();
        assert_eq!(r.exit_code, native.exit_code, "rewrite broke execution");
        assert!(rio.client.samples_taken > 0, "no profiling happened");
        assert!(rio.client.rewrites >= 1, "no rewrite: {:?}", rio.client);
        assert!(r.stats.replacements >= 1);
    }

    #[test]
    fn dispatch_reduces_hashtable_lookups() {
        let img = two_site_call_program(10_000);
        let mut base = Rio::new(
            &img,
            Options::full(),
            CpuKind::Pentium4,
            rio_core::NullClient,
        );
        let a = base.run();
        let mut opt = Rio::new(
            &img,
            Options::full(),
            CpuKind::Pentium4,
            IbDispatch {
                threshold: 32,
                ..IbDispatch::new()
            },
        );
        let b = opt.run();
        assert_eq!(a.exit_code, b.exit_code);
        assert!(
            b.stats.ib_lookups < a.stats.ib_lookups,
            "dispatch chains should absorb lookups: {} vs {}",
            b.stats.ib_lookups,
            a.stats.ib_lookups
        );
    }
}
