//! Randomized tests over the instruction-representation core and the
//! full compile-and-execute pipeline (deterministic in-tree RNG).

use rio_fuzz::gen::gen_instr;
use rio_ia32::encode::encode_list;
use rio_ia32::{create, decode_instr, decode_sizeof, encode_instr, InstrList, Level, Opnd, Reg};
use rio_tests::Rng;

/// Synthesized instruction -> encode -> decode yields identical opcode and
/// operands.
#[test]
fn encode_decode_round_trip() {
    for case in 0..1500u64 {
        let mut rng = Rng::new(0xE_0001 + case);
        let instr = gen_instr(&mut rng);
        let bytes = match encode_instr(&instr, 0x1000, &|_| None) {
            Ok(b) => b,
            // Unencodable operand combinations are allowed to be rejected,
            // never to panic.
            Err(_) => continue,
        };
        let (decoded, len) = decode_instr(&bytes, 0x1000).expect("own encodings decode");
        assert_eq!(len as usize, bytes.len(), "case {case}: {instr:?}");
        assert_eq!(decoded.opcode(), instr.opcode(), "case {case}");
        assert_eq!(decoded.srcs(), instr.srcs(), "case {case}: {instr:?}");
        assert_eq!(decoded.dsts(), instr.dsts(), "case {case}: {instr:?}");
    }
}

/// decode_sizeof always agrees with the full decoder's length.
#[test]
fn sizeof_agrees_with_full_decode() {
    for case in 0..2000u64 {
        let mut rng = Rng::new(0x51_0001 + case);
        let len = 1 + rng.below(15);
        let bytes = rng.bytes(len);
        let size = decode_sizeof(&bytes);
        let full = decode_instr(&bytes, 0);
        match (size, full) {
            (Ok(n), Ok((_, m))) => assert_eq!(n, m, "{bytes:02x?}"),
            (Err(_), Err(_)) => {}
            (Ok(_), Err(_)) | (Err(_), Ok(_)) => {
                panic!("sizeof/full decode disagree on {bytes:02x?}");
            }
        }
    }
}

/// The decoder never panics on arbitrary bytes.
#[test]
fn decoder_is_total() {
    for case in 0..3000u64 {
        let mut rng = Rng::new(0xD0_0001 + case);
        let len = rng.below(32);
        let bytes = rng.bytes(len);
        let _ = decode_sizeof(&bytes);
        let _ = decode_instr(&bytes, 0x1234);
    }
}

/// Blocks decoded at any level re-encode to semantically identical code:
/// the re-encoded bytes decode to the same instruction sequence.
#[test]
fn block_level_round_trip() {
    for case in 0..300u64 {
        let mut rng = Rng::new(0xB10C_0001 + case);
        // Build a block from synthesized instructions (drop rets to keep it
        // a straight line, then terminate).
        let mut il = InstrList::new();
        for _ in 0..1 + rng.below(11) {
            let i = gen_instr(&mut rng);
            if i.opcode() == Some(rio_ia32::Opcode::Ret) {
                continue;
            }
            il.push_back(i);
        }
        il.push_back(create::ret());
        let bytes = match encode_list(&il, 0x40_0000) {
            Ok(e) => e.bytes,
            Err(_) => continue,
        };
        for level in [Level::L0, Level::L1, Level::L2, Level::L3] {
            let redecoded = InstrList::decode_block(&bytes, 0x40_0000, level)
                .expect("own encodings decode at every level");
            let reencoded = encode_list(&redecoded, 0x40_0000).expect("re-encodes");
            assert_eq!(
                &reencoded.bytes, &bytes,
                "case {case}: level {level:?} changed the code"
            );
        }
    }
}

/// InstrList structural invariants under arbitrary edit sequences.
#[test]
fn instr_list_invariants() {
    for case in 0..200u64 {
        let mut rng = Rng::new(0x11_0001 + case);
        let mut il = InstrList::new();
        let mut ids: Vec<rio_ia32::InstrId> = Vec::new();
        let mut expected_len = 0usize;
        for _ in 0..1 + rng.below(59) {
            match rng.below(5) {
                0 => {
                    ids.push(il.push_back(create::nop()));
                    expected_len += 1;
                }
                1 => {
                    ids.push(il.push_front(create::inc(Opnd::reg(Reg::Eax))));
                    expected_len += 1;
                }
                2 if !ids.is_empty() => {
                    let id = ids.remove(ids.len() / 2);
                    il.remove(id);
                    expected_len -= 1;
                }
                3 if !ids.is_empty() => {
                    let id = ids[ids.len() / 2];
                    il.replace(id, create::dec(Opnd::reg(Reg::Ebx)));
                }
                4 if !ids.is_empty() => {
                    let at = ids[ids.len() / 2];
                    ids.push(il.insert_after(at, create::nop()));
                    expected_len += 1;
                }
                _ => {}
            }
            assert_eq!(il.len(), expected_len);
            // Forward and backward traversals agree.
            let fwd: Vec<_> = il.ids().collect();
            assert_eq!(fwd.len(), expected_len);
            let mut back = Vec::new();
            let mut cur = il.last_id();
            while let Some(id) = cur {
                back.push(id);
                cur = il.prev_id(id);
            }
            back.reverse();
            assert_eq!(fwd, back);
        }
    }
}
