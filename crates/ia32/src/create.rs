//! Instruction-creation constructors.
//!
//! "Instruction generation is simplified through a set of macros. A macro is
//! provided for every IA-32 instruction. The macro takes as arguments only
//! those operands that are explicit and automatically fills in the implicit
//! operands" (paper §3.2). In Rust the `INSTR_CREATE_*` macros become plain
//! constructor functions: [`add`]`(dst, src)` is the analogue of
//! `INSTR_CREATE_add(ctx, dst, src)`.
//!
//! All constructors produce Level 4 instructions (synthesized, no raw bits).
//! The IA-32 abstraction can also be bypassed by building an
//! [`Instr`] from an opcode and complete operand lists with
//! [`Instr::new`].

use crate::instr::{Instr, Target};
use crate::opcode::{Cc, Opcode};
use crate::opnd::{MemRef, OpSize, Opnd};
use crate::reg::Reg;

fn stack_mem(disp: i32) -> Opnd {
    Opnd::Mem(MemRef::base_disp(Reg::Esp, disp, OpSize::S32))
}

/// `mov dst, src`.
pub fn mov(dst: Opnd, src: Opnd) -> Instr {
    Instr::new(Opcode::Mov, &[src], &[dst])
}

/// `lea dst, mem` — load effective address.
pub fn lea(dst: Reg, mem: MemRef) -> Instr {
    Instr::new(Opcode::Lea, &[Opnd::Mem(mem)], &[Opnd::reg(dst)])
}

/// `movzx dst32, src` (8- or 16-bit source).
pub fn movzx(dst: Reg, src: Opnd) -> Instr {
    Instr::new(Opcode::Movzx, &[src], &[Opnd::reg(dst)])
}

/// `movsx dst32, src` (8- or 16-bit source).
pub fn movsx(dst: Reg, src: Opnd) -> Instr {
    Instr::new(Opcode::Movsx, &[src], &[Opnd::reg(dst)])
}

fn arith(op: Opcode, dst: Opnd, src: Opnd) -> Instr {
    Instr::new(op, &[src, dst], &[dst])
}

/// `add dst, src` (paper Figure 3: `INSTR_CREATE_add`).
pub fn add(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Add, dst, src)
}

/// `sub dst, src` (paper Figure 3: `INSTR_CREATE_sub`).
pub fn sub(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Sub, dst, src)
}

/// `adc dst, src`.
pub fn adc(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Adc, dst, src)
}

/// `sbb dst, src`.
pub fn sbb(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Sbb, dst, src)
}

/// `and dst, src`.
pub fn and(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::And, dst, src)
}

/// `or dst, src`.
pub fn or(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Or, dst, src)
}

/// `xor dst, src`.
pub fn xor(dst: Opnd, src: Opnd) -> Instr {
    arith(Opcode::Xor, dst, src)
}

/// `cmp a, b` — computes `a - b`, writes flags only.
pub fn cmp(a: Opnd, b: Opnd) -> Instr {
    Instr::new(Opcode::Cmp, &[a, b], &[])
}

/// `test a, b` — computes `a & b`, writes flags only.
pub fn test(a: Opnd, b: Opnd) -> Instr {
    Instr::new(Opcode::Test, &[a, b], &[])
}

/// `inc rm` — increment; does not write CF.
pub fn inc(rm: Opnd) -> Instr {
    Instr::new(Opcode::Inc, &[rm], &[rm])
}

/// `dec rm` — decrement; does not write CF.
pub fn dec(rm: Opnd) -> Instr {
    Instr::new(Opcode::Dec, &[rm], &[rm])
}

/// `neg rm`.
pub fn neg(rm: Opnd) -> Instr {
    Instr::new(Opcode::Neg, &[rm], &[rm])
}

/// `not rm`.
pub fn not(rm: Opnd) -> Instr {
    Instr::new(Opcode::Not, &[rm], &[rm])
}

/// `xchg a, b`.
pub fn xchg(a: Opnd, b: Opnd) -> Instr {
    Instr::new(Opcode::Xchg, &[a, b], &[a, b])
}

/// `shl rm, count` (count: immediate or `%cl`).
pub fn shl(rm: Opnd, count: Opnd) -> Instr {
    Instr::new(Opcode::Shl, &[count, rm], &[rm])
}

/// `shr rm, count`.
pub fn shr(rm: Opnd, count: Opnd) -> Instr {
    Instr::new(Opcode::Shr, &[count, rm], &[rm])
}

/// `sar rm, count`.
pub fn sar(rm: Opnd, count: Opnd) -> Instr {
    Instr::new(Opcode::Sar, &[count, rm], &[rm])
}

/// Two-operand `imul dst, src` (`dst = dst * src`).
pub fn imul(dst: Reg, src: Opnd) -> Instr {
    Instr::new(Opcode::Imul, &[src, Opnd::reg(dst)], &[Opnd::reg(dst)])
}

/// Three-operand `imul dst, src, imm`.
pub fn imul3(dst: Reg, src: Opnd, imm: Opnd) -> Instr {
    Instr::new(Opcode::Imul, &[src, imm], &[Opnd::reg(dst)])
}

/// A one-operand multiply or divide by `rm`, with the implicit operands of
/// its size: the 8-bit forms multiply `%al` into `%ax` and divide `%ax`; the
/// 32-bit forms use `%edx:%eax`.
fn widening(op: Opcode, rm: Opnd) -> Instr {
    let divide = matches!(op, Opcode::Div | Opcode::Idiv);
    let [al, ax, eax, edx] = [Reg::Al, Reg::Ax, Reg::Eax, Reg::Edx].map(Opnd::reg);
    match (rm.size(), divide) {
        (OpSize::S8, false) => Instr::new(op, &[rm, al], &[ax]),
        (OpSize::S8, true) => Instr::new(op, &[rm, ax], &[ax]),
        (_, false) => Instr::new(op, &[rm, eax], &[edx, eax]),
        (_, true) => Instr::new(op, &[rm, edx, eax], &[edx, eax]),
    }
}

/// `mul rm` (`edx:eax = eax * rm`, or `ax = al * rm8`; unsigned).
pub fn mul(rm: Opnd) -> Instr {
    widening(Opcode::Mul, rm)
}

/// `idiv rm` (`eax = edx:eax / rm`, `edx = remainder`, or `%al`/`%ah` from
/// `%ax` for an 8-bit `rm`; signed).
pub fn idiv(rm: Opnd) -> Instr {
    widening(Opcode::Idiv, rm)
}

/// `div rm` (unsigned; operands as for [`idiv`]).
pub fn div(rm: Opnd) -> Instr {
    widening(Opcode::Div, rm)
}

/// `cdq` — sign-extend `%eax` into `%edx`.
pub fn cdq() -> Instr {
    Instr::new(Opcode::Cdq, &[Opnd::reg(Reg::Eax)], &[Opnd::reg(Reg::Edx)])
}

/// `cwde` — sign-extend `%ax` into `%eax`.
pub fn cwde() -> Instr {
    Instr::new(Opcode::Cwde, &[Opnd::reg(Reg::Ax)], &[Opnd::reg(Reg::Eax)])
}

/// `push src` (register, immediate, memory, or code address).
pub fn push(src: Opnd) -> Instr {
    Instr::new(
        Opcode::Push,
        &[src, Opnd::reg(Reg::Esp)],
        &[Opnd::reg(Reg::Esp), stack_mem(-4)],
    )
}

/// `pop dst`.
pub fn pop(dst: Opnd) -> Instr {
    Instr::new(
        Opcode::Pop,
        &[Opnd::reg(Reg::Esp), stack_mem(0)],
        &[dst, Opnd::reg(Reg::Esp)],
    )
}

/// `pushfd` — push EFLAGS.
pub fn pushfd() -> Instr {
    Instr::new(
        Opcode::Pushfd,
        &[Opnd::reg(Reg::Esp)],
        &[Opnd::reg(Reg::Esp), stack_mem(-4)],
    )
}

/// `popfd` — pop EFLAGS.
pub fn popfd() -> Instr {
    Instr::new(
        Opcode::Popfd,
        &[Opnd::reg(Reg::Esp), stack_mem(0)],
        &[Opnd::reg(Reg::Esp)],
    )
}

/// `lahf` — flags into `%ah`.
pub fn lahf() -> Instr {
    Instr::new(Opcode::Lahf, &[], &[Opnd::reg(Reg::Ah)])
}

/// `sahf` — `%ah` into flags.
pub fn sahf() -> Instr {
    Instr::new(Opcode::Sahf, &[Opnd::reg(Reg::Ah)], &[])
}

/// `set<cc> rm8`.
pub fn setcc(cc: Cc, rm8: Opnd) -> Instr {
    Instr::new(Opcode::Set(cc), &[], &[rm8])
}

/// `cmov<cc> dst32, src` — conditional move.
pub fn cmov(cc: Cc, dst: Reg, src: Opnd) -> Instr {
    Instr::new(Opcode::Cmov(cc), &[src, Opnd::reg(dst)], &[Opnd::reg(dst)])
}

/// `rol rm, count`.
pub fn rol(rm: Opnd, count: Opnd) -> Instr {
    Instr::new(Opcode::Rol, &[count, rm], &[rm])
}

/// `ror rm, count`.
pub fn ror(rm: Opnd, count: Opnd) -> Instr {
    Instr::new(Opcode::Ror, &[count, rm], &[rm])
}

/// `bt rm, bit` — test a bit into CF (bit: register or imm8).
pub fn bt(rm: Opnd, bit: Opnd) -> Instr {
    Instr::new(Opcode::Bt, &[rm, bit], &[])
}

/// `bswap r32`.
pub fn bswap(r: Reg) -> Instr {
    Instr::new(Opcode::Bswap, &[Opnd::reg(r)], &[Opnd::reg(r)])
}

/// `nop`.
pub fn nop() -> Instr {
    Instr::new(Opcode::Nop, &[], &[])
}

/// `int3` breakpoint.
pub fn int3() -> Instr {
    Instr::new(Opcode::Int3, &[], &[])
}

/// `int n` — software interrupt (the simulated system-call gate).
pub fn int(n: u8) -> Instr {
    Instr::new(Opcode::Int, &[Opnd::Imm(n as i32, OpSize::S8)], &[])
}

/// `hlt` — terminates the simulated program.
pub fn hlt() -> Instr {
    Instr::new(Opcode::Hlt, &[], &[])
}

/// Direct `jmp target`.
pub fn jmp(target: Target) -> Instr {
    Instr::new(Opcode::Jmp, &[target.to_opnd()], &[])
}

/// Conditional direct `j<cc> target`.
pub fn jcc(cc: Cc, target: Target) -> Instr {
    Instr::new(Opcode::Jcc(cc), &[target.to_opnd()], &[])
}

/// `jecxz target` — jump if `%ecx` is zero; reads no eflags.
pub fn jecxz(target: Target) -> Instr {
    Instr::new(Opcode::Jecxz, &[target.to_opnd(), Opnd::reg(Reg::Ecx)], &[])
}

/// Direct `call target`.
pub fn call(target: Target) -> Instr {
    Instr::new(
        Opcode::Call,
        &[target.to_opnd(), Opnd::reg(Reg::Esp)],
        &[Opnd::reg(Reg::Esp), stack_mem(-4)],
    )
}

/// Indirect `jmp *rm`.
pub fn jmp_ind(rm: Opnd) -> Instr {
    Instr::new(Opcode::JmpInd, &[rm], &[])
}

/// Indirect `call *rm`.
pub fn call_ind(rm: Opnd) -> Instr {
    Instr::new(
        Opcode::CallInd,
        &[rm, Opnd::reg(Reg::Esp)],
        &[Opnd::reg(Reg::Esp), stack_mem(-4)],
    )
}

/// `ret`.
pub fn ret() -> Instr {
    Instr::new(
        Opcode::Ret,
        &[Opnd::reg(Reg::Esp), stack_mem(0)],
        &[Opnd::reg(Reg::Esp)],
    )
}

/// `ret imm16` — return and pop `imm` extra bytes.
pub fn ret_imm(imm: u16) -> Instr {
    Instr::new(
        Opcode::Ret,
        &[
            Opnd::Imm(imm as i32, OpSize::S16),
            Opnd::reg(Reg::Esp),
            stack_mem(0),
        ],
        &[Opnd::reg(Reg::Esp)],
    )
}

/// A label pseudo-instruction (branch target within an `InstrList`).
pub fn label() -> Instr {
    Instr::label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_instr;
    use crate::encode::encode_instr;
    use crate::instr::Level;

    fn round_trip(i: &Instr) -> Instr {
        let bytes = encode_instr(i, 0x1000, &|_| Some(0x1000)).unwrap();
        let (re, len) = decode_instr(&bytes, 0x1000).unwrap();
        assert_eq!(len as usize, bytes.len());
        re
    }

    #[test]
    fn constructors_are_level4() {
        assert_eq!(nop().level(), Level::L4);
        assert_eq!(add(Opnd::reg(Reg::Eax), Opnd::imm8(1)).level(), Level::L4);
    }

    #[test]
    fn created_instructions_round_trip_semantically() {
        let cases = vec![
            mov(Opnd::reg(Reg::Eax), Opnd::imm32(42)),
            lea(
                Reg::Esi,
                MemRef::base_index(Reg::Ecx, Reg::Eax, 1, 0, OpSize::S32),
            ),
            add(Opnd::reg(Reg::Ebx), Opnd::imm32(0x1234)),
            sub(
                Opnd::reg(Reg::Eax),
                Opnd::Mem(MemRef::base_disp(Reg::Esi, 0x1c, OpSize::S32)),
            ),
            cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Ecx)),
            inc(Opnd::reg(Reg::Edi)),
            dec(Opnd::Mem(MemRef::base_disp(Reg::Ebp, -8, OpSize::S32))),
            shl(Opnd::reg(Reg::Ecx), Opnd::imm8(7)),
            imul(Reg::Eax, Opnd::reg(Reg::Ebx)),
            imul3(Reg::Edx, Opnd::reg(Reg::Ecx), Opnd::imm32(1000)),
            idiv(Opnd::reg(Reg::Ebx)),
            push(Opnd::reg(Reg::Ebp)),
            pop(Opnd::reg(Reg::Ebp)),
            test(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Eax)),
            setcc(Cc::Nz, Opnd::reg(Reg::Al)),
            movzx(Reg::Eax, Opnd::reg(Reg::Bl)),
            cdq(),
            ret(),
            int(0x80),
        ];
        for i in cases {
            let re = round_trip(&i);
            assert_eq!(i.opcode(), re.opcode(), "{i}");
            assert_eq!(i.srcs(), re.srcs(), "{i}");
            assert_eq!(i.dsts(), re.dsts(), "{i}");
        }
    }

    #[test]
    fn cti_constructors_round_trip_targets() {
        for i in [
            jmp(Target::Pc(0x2000)),
            jcc(Cc::Nl, Target::Pc(0x3000)),
            call(Target::Pc(0x400000)),
            jecxz(Target::Pc(0x1010)),
        ] {
            let re = round_trip(&i);
            assert_eq!(i.opcode(), re.opcode());
            assert_eq!(re.src(0), i.src(0), "{i}");
        }
    }

    #[test]
    fn implicit_operands_are_materialized() {
        let p = push(Opnd::reg(Reg::Eax));
        assert!(p.srcs().iter().any(|o| o.as_reg() == Some(Reg::Esp)));
        assert!(p.dsts().iter().any(|o| o.as_mem().is_some()));
        let d = idiv(Opnd::reg(Reg::Ecx));
        assert_eq!(d.srcs().len(), 3);
        let c = call(Target::Pc(0x1000));
        assert!(c.dsts().iter().any(|o| o.as_mem().is_some()));
    }

    #[test]
    fn inc2add_transformation_shape() {
        // The exact replacement from Figure 3 of the paper.
        let original = inc(Opnd::reg(Reg::Eax));
        let replacement = add(*original.dst(0), Opnd::imm8(1));
        assert_eq!(replacement.dst(0), original.dst(0));
        let bytes = encode_instr(&replacement, 0, &|_| None).unwrap();
        assert_eq!(bytes, vec![0x83, 0xC0, 0x01]);
    }
}

#[cfg(test)]
mod extended_isa_tests {
    use super::*;
    use crate::decode::decode_instr;
    use crate::encode::encode_instr;

    fn round_trip(i: &Instr) {
        let bytes = encode_instr(i, 0x1000, &|_| None).unwrap();
        let (re, len) = decode_instr(&bytes, 0x1000).unwrap();
        assert_eq!(len as usize, bytes.len(), "{i}");
        assert_eq!(i.opcode(), re.opcode(), "{i}");
        assert_eq!(i.srcs(), re.srcs(), "{i}");
        assert_eq!(i.dsts(), re.dsts(), "{i}");
    }

    #[test]
    fn cmov_round_trips_for_all_conditions() {
        for cc in Cc::ALL {
            round_trip(&cmov(cc, Reg::Edx, Opnd::reg(Reg::Esi)));
            round_trip(&cmov(
                cc,
                Reg::Eax,
                Opnd::Mem(MemRef::base_disp(Reg::Ebp, -8, OpSize::S32)),
            ));
        }
    }

    #[test]
    fn rotate_and_bit_ops_round_trip() {
        round_trip(&rol(Opnd::reg(Reg::Eax), Opnd::imm8(7)));
        round_trip(&ror(Opnd::reg(Reg::Ebx), Opnd::reg(Reg::Cl)));
        round_trip(&rol(
            Opnd::Mem(MemRef::base_disp(Reg::Esi, 4, OpSize::S32)),
            Opnd::imm8(1),
        ));
        round_trip(&bt(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Edx)));
        round_trip(&bt(Opnd::reg(Reg::Eax), Opnd::imm8(17)));
        round_trip(&bswap(Reg::Edi));
    }

    #[test]
    fn short_xchg_decodes() {
        // 0x93 = xchg %eax, %ebx
        let (i, len) = decode_instr(&[0x93], 0).unwrap();
        assert_eq!(len, 1);
        assert_eq!(i.opcode(), Some(Opcode::Xchg));
        assert_eq!(i.src(0).as_reg(), Some(Reg::Eax));
        assert_eq!(i.src(1).as_reg(), Some(Reg::Ebx));
    }

    #[test]
    fn cmov_eflags_metadata() {
        use crate::eflags::Eflags;
        let i = cmov(Cc::Z, Reg::Eax, Opnd::reg(Reg::Ebx));
        assert_eq!(i.eflags().read, Eflags::ZF);
        assert!(i.eflags().written.is_empty());
        let b = bt(Opnd::reg(Reg::Eax), Opnd::imm8(3));
        assert_eq!(b.eflags().written, Eflags::CF);
    }
}
