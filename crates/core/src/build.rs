//! Basic-block construction: decoding application code into an `InstrList`.
//!
//! Two strategies, as in the paper (§3.1's example): when no client needs to
//! inspect the block, the non-CTI prefix is kept as a single **Level 0
//! bundle** and only the block-ending CTI is fully decoded (Level 3); when a
//! client hook will run, every instruction is decoded to Level 3.

use std::borrow::BorrowMut;

use rio_ia32::decode::{decode_instr, decode_opcode};
use rio_ia32::{DecodeError, Instr, InstrList};
use rio_sim::Memory;

use crate::mangle::{mangle_bb, mangle_trace_connector, Terminator};

/// A decoded (not yet mangled) basic block: its instructions, in a list
/// of its own ([`decode_bb`]) or one the caller keeps ([`decode_bb_into`]).
#[derive(Debug)]
pub struct BuiltBlock<L = InstrList> {
    /// The instructions, at Level 0+3 or full Level 3 detail.
    pub il: L,
    /// Application address of the block entry.
    pub tag: u32,
    /// Application address immediately after the block (fall-through /
    /// return address).
    pub end_pc: u32,
    /// Number of application instructions in the block.
    pub num_instrs: usize,
    /// The block terminator classification.
    pub terminator: Terminator,
}

/// Maximum bytes fetched per instruction decode.
const FETCH: usize = 16;

/// Decode the basic block starting at `tag` from application memory into a
/// new list.
///
/// The block extends to (and includes) the first control-transfer
/// instruction or `hlt`, or is split after `max_instrs` instructions, or
/// ends just before the first undecodable instruction after at least one
/// valid one (control then falls through to it, where it faults).
///
/// With `full_decode` every instruction is decoded to Level 3 (a client will
/// inspect the block); otherwise the non-CTI prefix is kept as a Level 0
/// bundle.
///
/// # Errors
///
/// Returns [`DecodeError`] if the instruction at `tag` itself is invalid —
/// the application jumped somewhere bogus.
pub fn decode_bb(
    mem: &Memory,
    tag: u32,
    full_decode: bool,
    max_instrs: usize,
) -> Result<BuiltBlock, DecodeError> {
    decode_bb_into(mem, tag, full_decode, max_instrs, InstrList::new())
}

/// [`decode_bb`] into `il`, which is cleared first: a list the caller keeps
/// from block to block lends the block its slots and its Level 0 bundle's
/// byte storage, so a warm list decodes a block with no allocation.
///
/// # Errors
///
/// As [`decode_bb`].
pub fn decode_bb_into<L: BorrowMut<InstrList>>(
    mem: &Memory,
    tag: u32,
    full_decode: bool,
    max_instrs: usize,
    mut il: L,
) -> Result<BuiltBlock<L>, DecodeError> {
    let list = il.borrow_mut();
    list.clear();
    let mut pc = tag;
    let mut count = 0usize;
    // The pending Level 0 bundle: its first pc, the offset of its last
    // instruction and its instruction count. Its bytes are read from
    // memory in one go when it is pushed.
    let mut bundle_start = tag;
    let mut bundle_last_off = 0u32;
    let mut bundle_count = 0u32;
    let mut buf = [0u8; FETCH];

    let push_bundle = |il: &mut InstrList, start: u32, last_off: u32, n: u32, end: u32| {
        if n > 0 {
            let mut bytes = il.bundle_buffer();
            bytes.resize(end.wrapping_sub(start) as usize, 0);
            mem.read_bytes(start, &mut bytes);
            il.push_back(Instr::bundle(bytes, start, last_off, n));
        }
    };

    loop {
        mem.read_bytes(pc, &mut buf);
        // With `full_decode` every instruction is decoded to Level 3, once;
        // otherwise only its opcode is, and the block-ending instruction
        // (always Level 3) is decoded again in full.
        let decoded = if full_decode {
            decode_instr(&buf, pc).map(|(instr, len)| (instr.opcode(), len, Some(instr)))
        } else {
            decode_opcode(&buf).map(|(opcode, len)| (Some(opcode), len, None))
        };
        let decoded = decoded.and_then(|(opcode, len, instr)| {
            // System calls end blocks (as in real DynamoRIO): the program
            // may exit mid-syscall, so nothing after one is guaranteed to
            // execute.
            let is_terminator = opcode.is_some_and(|op| {
                op.is_cti()
                    || op.is_halt()
                    || matches!(op, rio_ia32::Opcode::Int | rio_ia32::Opcode::Int3)
            });
            let instr = match instr {
                None if is_terminator => {
                    let (instr, ilen) = decode_instr(&buf, pc)?;
                    debug_assert_eq!(ilen, len);
                    Some(instr)
                }
                instr => instr,
            };
            Ok((len, is_terminator, instr))
        });
        let (len, is_terminator, instr) = match decoded {
            Ok(d) => d,
            // Undecodable bytes after a valid prefix end the block before
            // them, like a `max_instrs` split: the prefix runs, and the
            // fault is raised when control falls through to those bytes.
            Err(_) if count > 0 => break,
            Err(e) => return Err(e),
        };
        count += 1;
        match instr {
            Some(instr) => {
                push_bundle(list, bundle_start, bundle_last_off, bundle_count, pc);
                bundle_count = 0;
                list.push_back(instr);
            }
            None => {
                if bundle_count == 0 {
                    bundle_start = pc;
                }
                bundle_last_off = pc.wrapping_sub(bundle_start);
                bundle_count += 1;
            }
        }
        pc = pc.wrapping_add(len);
        if is_terminator || count >= max_instrs {
            break;
        }
    }
    push_bundle(list, bundle_start, bundle_last_off, bundle_count, pc);

    let terminator = crate::mangle::classify_terminator(list);
    Ok(BuiltBlock {
        il,
        tag,
        end_pc: pc,
        num_instrs: count,
        terminator,
    })
}

/// Decode the blocks at `tags` in full into `trace`, which is cleared
/// first: each block is decoded into `block` (kept by the caller, as for
/// [`decode_bb_into`]), joined to the next with [`mangle_trace_connector`]
/// (the last is mangled as a block) and moved to the end of `trace`, and
/// its `(tag, end_pc)` pushed to `src_ranges`. Without `inline_ib_target`
/// a block ending in an indirect branch ends the trace, since the blocks
/// after it are unreachable. Returns the application instructions decoded.
/// With warm lists this allocates only where `src_ranges` grows.
///
/// # Errors
///
/// As [`decode_bb`], for the first block that no longer decodes.
pub fn decode_trace_into(
    mem: &Memory,
    tags: &[u32],
    max_instrs: usize,
    inline_ib_target: bool,
    block: &mut InstrList,
    trace: &mut InstrList,
    src_ranges: &mut Vec<(u32, u32)>,
) -> Result<usize, DecodeError> {
    trace.clear();
    let mut total = 0;
    for (i, &tag) in tags.iter().enumerate() {
        let bb = decode_bb_into(mem, tag, true, max_instrs, &mut *block)?;
        total += bb.num_instrs;
        src_ranges.push((tag, bb.end_pc));
        let Some(&next) = tags.get(i + 1) else {
            mangle_bb(bb.il, bb.end_pc);
            trace.append(bb.il);
            break;
        };
        mangle_trace_connector(bb.il, next, bb.end_pc, inline_ib_target);
        trace.append(bb.il);
        let indirect = matches!(
            bb.terminator,
            Terminator::Ret { .. } | Terminator::JmpInd | Terminator::CallInd
        );
        if indirect && !inline_ib_target {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, Level, Opnd, Reg, Target};
    use rio_sim::Image;

    fn memory_with(ilist: &InstrList) -> Memory {
        let bytes = encode_list(ilist, Image::CODE_BASE).unwrap().bytes;
        let mut mem = Memory::new();
        mem.write_bytes(Image::CODE_BASE, &bytes);
        mem
    }

    #[test]
    fn block_ends_at_cti() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(2)));
        il.push_back(create::jmp(Target::Pc(0x5000)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(9))); // next block
        let mem = memory_with(&il);
        let bb = decode_bb(&mem, Image::CODE_BASE, true, 64).unwrap();
        assert_eq!(bb.num_instrs, 3);
        assert_eq!(bb.terminator, Terminator::Jmp { target: 0x5000 });
        assert_eq!(bb.il.len(), 3);
    }

    #[test]
    fn fast_path_bundles_prefix() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(2)));
        il.push_back(create::inc(Opnd::reg(Reg::Ecx)));
        il.push_back(create::ret());
        let mem = memory_with(&il);
        let bb = decode_bb(&mem, Image::CODE_BASE, false, 64).unwrap();
        // One Level 0 bundle + the Level 3 ret.
        assert_eq!(bb.il.len(), 2);
        let first = bb.il.get(bb.il.first_id().unwrap());
        assert_eq!(first.level(), Level::L0);
        assert_eq!(first.bundle_count(), 3);
        let last = bb.il.get(bb.il.last_id().unwrap());
        assert_eq!(last.level(), Level::L3);
        assert_eq!(bb.num_instrs, 4);
        assert_eq!(bb.terminator, Terminator::Ret { extra: 0 });
    }

    #[test]
    fn hlt_terminates_block() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let mem = memory_with(&il);
        let bb = decode_bb(&mem, Image::CODE_BASE, true, 64).unwrap();
        assert_eq!(bb.terminator, Terminator::Halt);
        assert_eq!(bb.il.len(), 2);
    }

    #[test]
    fn max_instrs_splits_block() {
        let mut il = InstrList::new();
        for _ in 0..10 {
            il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        }
        il.push_back(create::ret());
        let mem = memory_with(&il);
        let bb = decode_bb(&mem, Image::CODE_BASE, true, 4).unwrap();
        assert_eq!(bb.num_instrs, 4);
        assert_eq!(bb.terminator, Terminator::FallThrough);
        assert_eq!(bb.end_pc, Image::CODE_BASE + 4); // four 1-byte incs
    }

    #[test]
    fn syscall_ends_block() {
        // The program may exit inside a system call, so (as in real
        // DynamoRIO) nothing after one belongs to the same block.
        let mut il = InstrList::new();
        il.push_back(create::int(0x80));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::ret());
        let mem = memory_with(&il);
        let bb = decode_bb(&mem, Image::CODE_BASE, true, 64).unwrap();
        assert_eq!(bb.num_instrs, 1);
        assert_eq!(bb.terminator, Terminator::FallThrough);
        assert_eq!(bb.end_pc, Image::CODE_BASE + 2);
    }

    #[test]
    fn invalid_code_reports_decode_error() {
        let mut mem = Memory::new();
        mem.write_bytes(Image::CODE_BASE, &[0xD7]); // unsupported xlat
        assert!(decode_bb(&mem, Image::CODE_BASE, true, 64).is_err());
    }

    #[test]
    fn invalid_code_after_a_valid_prefix_ends_the_block_before_it() {
        // `inc %eax; inc %ecx; <xlat>; ret`: both decode strategies stop
        // before the bad byte and fall through to it.
        let mut mem = Memory::new();
        mem.write_bytes(Image::CODE_BASE, &[0x40, 0x41, 0xD7, 0xC3]);
        for full in [true, false] {
            let bb = decode_bb(&mem, Image::CODE_BASE, full, 64).unwrap();
            assert_eq!(bb.num_instrs, 2);
            assert_eq!(bb.end_pc, Image::CODE_BASE + 2);
            assert_eq!(bb.terminator, Terminator::FallThrough);
        }
    }
}
