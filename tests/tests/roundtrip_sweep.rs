//! Property-style sweeps driven by the deterministic xorshift [`Rng`]:
//! decoding is the left inverse of encoding on random instruction soup, and
//! the liveness analysis is invariant under an encode/decode round-trip of a
//! whole list.

use rio_fuzz::gen::gen_instr;
use rio_ia32::encode::encode_list;
use rio_ia32::liveness::Liveness;
use rio_ia32::{
    create, decode_instr, effects, encode_instr, Instr, InstrList, Level, Opcode, Target,
};
use rio_tests::Rng;

/// Semantic equality: everything the engine relies on, ignoring the raw
/// byte image (re-encoding may legally pick a different template, e.g.
/// rel8 vs rel32 for a direct branch).
fn semantically_equal(a: &Instr, b: &Instr) -> bool {
    a.opcode() == b.opcode()
        && a.srcs() == b.srcs()
        && a.dsts() == b.dsts()
        && a.target() == b.target()
        && effects(a).uses == effects(b).uses
        && effects(a).writes == effects(b).writes
}

#[test]
fn decode_is_left_inverse_of_encode_on_random_soup() {
    let mut rng = Rng::new(0x5EED_CAFE);
    let pc = 0x40_0000;
    let mut decoded = 0u32;
    for _ in 0..60_000 {
        let mut bytes = [0u8; 12];
        bytes.fill_with(|| rng.next_u64() as u8);
        let Ok((instr, len)) = decode_instr(&bytes, pc) else {
            continue;
        };
        decoded += 1;
        let encoded = encode_instr(&instr, pc, &|_| None)
            .unwrap_or_else(|e| panic!("decoded {bytes:02x?} but cannot re-encode: {e:?}"));
        let (again, len2) = decode_instr(&encoded, pc)
            .unwrap_or_else(|e| panic!("re-encoded {encoded:02x?} does not decode: {e:?}"));
        assert!(
            semantically_equal(&instr, &again),
            "round-trip changed {bytes:02x?} (len {len}) into {encoded:02x?} (len {len2}):\
             \n  {instr:?}\n  {again:?}"
        );
        // When the encoder reproduces the original bytes (the common case),
        // the round-trip must be the strict identity.
        if encoded[..] == bytes[..len as usize] {
            assert_eq!(again, instr);
        }
    }
    // The sweep must actually exercise the decoder, not skip everything.
    assert!(decoded > 5_000, "only {decoded} random buffers decoded");
}

#[test]
fn liveness_is_invariant_under_encode_decode_roundtrip() {
    let mut rng = Rng::new(0xD1CE_D1CE);
    let pc = 0x40_0000;
    for _ in 0..2_000 {
        // A random straight-line block ending in a direct jump.
        let mut il = InstrList::new();
        for _ in 0..(4 + rng.below(8)) {
            let instr = gen_instr(&mut rng);
            if instr.opcode() != Some(Opcode::Ret) {
                il.push_back(instr);
            }
        }
        il.push_back(create::jmp(Target::Pc(0x41_0000)));

        let bytes = encode_list(&il, pc).expect("random block encodes").bytes;
        let back = InstrList::decode_block(&bytes, pc, Level::L3).expect("re-decodes");

        let ids_a: Vec<_> = il.ids().collect();
        let ids_b: Vec<_> = back.ids().collect();
        assert_eq!(ids_a.len(), ids_b.len(), "instruction count changed");

        let live_a = Liveness::analyze(&il);
        let live_b = Liveness::analyze(&back);
        for (ia, ib) in ids_a.iter().zip(&ids_b) {
            assert_eq!(
                live_a.live_before(*ia),
                live_b.live_before(*ib),
                "live-before diverged at {:?} vs {:?}",
                il.get(*ia),
                back.get(*ib)
            );
            assert_eq!(
                live_a.live_after(*ia),
                live_b.live_after(*ib),
                "live-after diverged at {:?} vs {:?}",
                il.get(*ia),
                back.get(*ib)
            );
        }
    }
}
