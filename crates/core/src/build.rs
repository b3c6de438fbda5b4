//! Basic-block construction: decoding application code into an `InstrList`.
//!
//! Two strategies, as in the paper (§3.1's example): when no client needs to
//! inspect the block, the non-CTI prefix is kept as a single **Level 0
//! bundle** and only the block-ending CTI is fully decoded (Level 3); when a
//! client hook will run, every instruction is decoded to Level 3.

use rio_ia32::decode::{decode_instr, decode_opcode};
use rio_ia32::{DecodeError, Instr, InstrList};
use rio_sim::Memory;

use crate::mangle::Terminator;

/// A decoded (not yet mangled) basic block.
#[derive(Debug)]
pub struct BuiltBlock {
    /// The instructions, at Level 0+3 or full Level 3 detail.
    pub il: InstrList,
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

/// Decode the basic block starting at `tag` from application memory.
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
    let mut il = InstrList::new();
    let mut pc = tag;
    let mut count = 0usize;
    let mut bundle: Vec<u8> = Vec::new();
    let mut bundle_start = tag;
    let mut bundle_last_off = 0u32;
    let mut bundle_count = 0u32;
    let mut buf = [0u8; FETCH];

    let flush_bundle =
        |il: &mut InstrList, bundle: &mut Vec<u8>, start: u32, last_off: u32, n: u32| {
            if !bundle.is_empty() {
                il.push_back(Instr::bundle(std::mem::take(bundle), start, last_off, n));
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
                flush_bundle(
                    &mut il,
                    &mut bundle,
                    bundle_start,
                    bundle_last_off,
                    bundle_count,
                );
                il.push_back(instr);
            }
            None => {
                if bundle.is_empty() {
                    bundle_start = pc;
                }
                bundle_last_off = bundle.len() as u32;
                bundle.extend_from_slice(&buf[..len as usize]);
                bundle_count += 1;
            }
        }
        pc = pc.wrapping_add(len);
        if is_terminator || count >= max_instrs {
            break;
        }
    }
    flush_bundle(
        &mut il,
        &mut bundle,
        bundle_start,
        bundle_last_off,
        bundle_count,
    );

    let terminator = crate::mangle::classify_terminator(&il);
    Ok(BuiltBlock {
        il,
        tag,
        end_pc: pc,
        num_instrs: count,
        terminator,
    })
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
