//! Linking and unlinking fragments.
//!
//! "If a target basic block is already present in the code cache, and is
//! targeted via a direct branch, DynamoRIO links the two blocks together
//! with a direct jump. This avoids the cost of a subsequent context switch"
//! (paper §2). Linking patches an exit's link word in cache memory to the
//! target's entry; unlinking patches it back to where it rests unlinked.

use rio_sim::Machine;

use crate::cache::{CodeCache, ExitKind, FragmentId};

/// Patch the rel32 displacement word at `disp_addr` so the branch lands on
/// `target`.
fn patch_disp(machine: &mut Machine, disp_addr: u32, target: u32) {
    let disp = target.wrapping_sub(disp_addr.wrapping_add(4));
    machine.mem.write_u32(disp_addr, disp);
    // Only the decode holding this displacement word can be stale; the
    // hot link/unlink path must not wipe unrelated decodes.
    machine.invalidate_code_range(disp_addr, 4);
}

/// Link `src`'s exit `exit_idx` to fragment `dst` by patching its link word.
/// A forced custom stub's link word is the stub's own `jmp`, so client stub
/// code still runs (paper §3.2).
///
/// # Panics
///
/// Panics if the exit is indirect or already linked.
pub fn link_exit(
    machine: &mut Machine,
    cache: &mut CodeCache,
    src: FragmentId,
    exit_idx: usize,
    dst: FragmentId,
) {
    let exit = &cache.frag(src).exits[exit_idx];
    assert!(
        matches!(exit.kind, ExitKind::Direct { .. }),
        "cannot link an indirect exit"
    );
    assert!(exit.linked_to.is_none(), "exit already linked");
    patch_disp(machine, exit.link_word.addr, cache.frag(dst).start);
    cache.frag_mut(src).exits[exit_idx].linked_to = Some(dst);
    cache.frag_mut(dst).incoming.push((src, exit_idx));
}

/// Unlink `src`'s exit `exit_idx`, returning its link word to rest.
pub fn unlink_exit(machine: &mut Machine, cache: &mut CodeCache, src: FragmentId, exit_idx: usize) {
    let exit = &mut cache.frag_mut(src).exits[exit_idx];
    let Some(dst) = exit.linked_to.take() else {
        return;
    };
    let word = exit.link_word;
    patch_disp(machine, word.addr, word.unlinked);
    cache
        .frag_mut(dst)
        .incoming
        .retain(|(f, e)| !(*f == src && *e == exit_idx));
}

/// Unlink every exit that currently targets `dst` (e.g. when `dst` becomes a
/// trace head and must henceforth be reached through dispatch).
pub fn unlink_incoming(machine: &mut Machine, cache: &mut CodeCache, dst: FragmentId) {
    let incoming: Vec<(FragmentId, usize)> = cache.frag(dst).incoming.clone();
    for (src, exit_idx) in incoming {
        unlink_exit(machine, cache, src, exit_idx);
    }
}

/// Redirect every exit linked to `old` so it links to `new` instead — the
/// heart of safe fragment replacement: "all links targeting and originating
/// from the old fragment are immediately modified to use the new fragment"
/// (paper §3.4).
pub fn redirect_incoming(
    machine: &mut Machine,
    cache: &mut CodeCache,
    old: FragmentId,
    new: FragmentId,
) {
    let incoming: Vec<(FragmentId, usize)> = cache.frag(old).incoming.clone();
    for (src, exit_idx) in incoming {
        unlink_exit(machine, cache, src, exit_idx);
        link_exit(machine, cache, src, exit_idx, new);
    }
}

/// Unlink all of `frag`'s own outgoing links (used when deleting it).
pub fn unlink_outgoing(machine: &mut Machine, cache: &mut CodeCache, frag: FragmentId) {
    let n = cache.frag(frag).exits.len();
    for i in 0..n {
        unlink_exit(machine, cache, frag, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FragmentKind;
    use crate::config::layout;
    use crate::emit::{emit_fragment, tests::two_blocks};
    use crate::mangle::mangle_bb;
    use rio_ia32::{InstrList, Level};
    use rio_sim::CpuExit;

    #[test]
    fn linked_exit_jumps_directly_into_target() {
        // A custom stub runs on a linked exit only when it is forced.
        for force_stub in [None, Some(false), Some(true)] {
            let (mut m, mut cache, fa, fb) = two_blocks(force_stub);
            link_exit(&mut m, &mut cache, fa, 0, fb);
            m.cpu.eip = cache.frag(fa).start;
            let exit = m.run();
            // Control flows A -> B without leaving the cache, B halts.
            assert_eq!(exit, CpuExit::Halt);
            assert_eq!(m.cpu.reg(rio_ia32::Reg::Eax), 9);
            assert_eq!(cache.frag(fb).incoming, vec![(fa, 0)]);
            let ran = u32::from(force_stub == Some(true));
            assert_eq!(m.mem.read_u32(layout::SCRATCH_SLOT), ran, "{force_stub:?}");
        }
    }

    #[test]
    fn unlinked_exit_returns_to_stub() {
        let (mut m, mut cache, fa, fb) = two_blocks(None);
        link_exit(&mut m, &mut cache, fa, 0, fb);
        unlink_exit(&mut m, &mut cache, fa, 0);
        m.cpu.eip = cache.frag(fa).start;
        let exit = m.run();
        let stub = cache.frag(fa).exits[0].stub;
        assert_eq!(exit, CpuExit::OutOfRegion(layout::stub_sentinel(stub)));
        assert!(cache.frag(fb).incoming.is_empty());
    }

    #[test]
    fn unlink_incoming_detaches_all_sources() {
        let (mut m, mut cache, fa, fb) = two_blocks(None);
        link_exit(&mut m, &mut cache, fa, 0, fb);
        unlink_incoming(&mut m, &mut cache, fb);
        assert!(cache.frag(fa).exits[0].linked_to.is_none());
        assert!(cache.frag(fb).incoming.is_empty());
    }

    #[test]
    fn redirect_incoming_moves_links() {
        let (mut m, mut cache, fa, fb) = two_blocks(None);
        link_exit(&mut m, &mut cache, fa, 0, fb);
        // Emit a replacement copy of B.
        let mut b2 =
            InstrList::decode_block(&[0xB8, 11, 0, 0, 0, 0xF4], 0x2000, Level::L3).unwrap();
        mangle_bb(&mut b2, 0x2006);
        let fb2 = emit_fragment(
            &mut m,
            &mut cache,
            FragmentKind::BasicBlock,
            0x2000,
            b2,
            vec![],
            vec![(0x2000, 0x2006)],
        )
        .unwrap();
        redirect_incoming(&mut m, &mut cache, fb, fb2);
        m.cpu.eip = cache.frag(fa).start;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(rio_ia32::Reg::Eax), 11); // new fragment ran
        assert_eq!(cache.frag(fb2).incoming, vec![(fa, 0)]);
        assert!(cache.frag(fb).incoming.is_empty());
    }

    #[test]
    fn unlinking_forced_exit_restores_the_stub_sentinel() {
        // After the unlink, running A must execute the custom stub code and
        // come to rest on the stub *sentinel* — not loop back into a forced
        // stub's entry.
        for force_stub in [false, true] {
            let (mut m, mut cache, fa, fb) = two_blocks(Some(force_stub));
            link_exit(&mut m, &mut cache, fa, 0, fb);
            unlink_exit(&mut m, &mut cache, fa, 0);
            m.cpu.eip = cache.frag(fa).start;
            let exit = m.run();
            let stub = cache.frag(fa).exits[0].stub;
            assert_eq!(exit, CpuExit::OutOfRegion(layout::stub_sentinel(stub)));
            assert_eq!(m.mem.read_u32(layout::SCRATCH_SLOT), 1); // stub code ran
        }
    }

    #[test]
    #[should_panic(expected = "exit already linked")]
    fn double_link_is_rejected() {
        let (mut m, mut cache, fa, fb) = two_blocks(None);
        link_exit(&mut m, &mut cache, fa, 0, fb);
        link_exit(&mut m, &mut cache, fa, 0, fb);
    }
}
