//! Exhaustive decoder sweeps: the three decoding strategies read one decode
//! table, and must agree on validity, length and opcode for every one-byte
//! and `0x0F`-prefixed opcode under every ModRM byte.

use rio_ia32::{decode_instr, decode_opcode, decode_sizeof};

fn check(bytes: &[u8]) {
    let size = decode_sizeof(bytes);
    let op = decode_opcode(bytes);
    let full = decode_instr(bytes, 0x40_0000);
    match (&size, &op, &full) {
        (Ok(n), Ok((o, m)), Ok((i, k))) => {
            assert_eq!(n, m, "sizeof vs opcode length on {bytes:02x?}");
            assert_eq!(n, k, "sizeof vs full length on {bytes:02x?}");
            assert_eq!(
                Some(*o),
                i.opcode(),
                "opcode vs full opcode on {bytes:02x?}"
            );
        }
        (Err(a), Err(b), Err(c)) => {
            assert_eq!(a, b, "sizeof vs opcode error on {bytes:02x?}");
            assert_eq!(a, c, "sizeof vs full error on {bytes:02x?}");
        }
        _ => panic!(
            "strategies disagree on {bytes:02x?}: sizeof={size:?} opcode={:?} full={}",
            op.as_ref().map(|(o, n)| (*o, *n)),
            full.is_ok()
        ),
    }
}

#[test]
fn all_one_byte_opcodes_agree_across_strategies() {
    for b0 in 0u8..=255 {
        if b0 == 0x0F {
            continue; // two-byte escape, covered below
        }
        for modrm in 0u8..=255 {
            // Pad generously: enough bytes for any SIB/disp/imm shape.
            let bytes = [b0, modrm, 0x24, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77];
            check(&bytes);
        }
    }
}

#[test]
fn all_two_byte_opcodes_agree_across_strategies() {
    for b1 in 0u8..=255 {
        for modrm in 0u8..=255 {
            let bytes = [0x0F, b1, modrm, 0x24, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66];
            check(&bytes);
        }
    }
}

#[test]
fn truncation_at_every_length_is_an_error_not_a_panic() {
    // Take several real instructions and feed every proper prefix.
    let samples: [&[u8]; 6] = [
        &[0x8b, 0x84, 0x8d, 0x11, 0x22, 0x33, 0x44], // mov with SIB+disp32
        &[0x81, 0xc0, 0x78, 0x56, 0x34, 0x12],       // add imm32
        &[0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00],       // jnl rel32
        &[0x0f, 0xba, 0xe0, 0x07],                   // bt imm8
        &[0xc7, 0x45, 0xfc, 1, 0, 0, 0],             // mov imm -> mem
        &[0xf7, 0xc3, 5, 0, 0, 0],                   // test imm32
    ];
    for s in samples {
        assert!(decode_sizeof(s).is_ok());
        for cut in 0..s.len() {
            let prefix = &s[..cut];
            assert!(
                decode_sizeof(prefix).is_err(),
                "prefix of length {cut} of {s:02x?} must not decode"
            );
            assert!(decode_instr(prefix, 0).is_err());
        }
    }
}
