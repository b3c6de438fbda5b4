//! Engine edge cases: unusual application code shapes that exercise rarely
//! taken translation paths (jecxz exits, `ret n`, 8-bit/carry arithmetic,
//! flag save/restore, deep recursion, tiny block splits).

use rio_core::{layout, Client, Core, NullClient, Options, Rio};
use rio_ia32::encode::encode_list;
use rio_ia32::{create, Cc, InstrId, InstrList, MemRef, OpSize, Opnd, Reg, Target};
use rio_sim::{CpuKind, Image, TRAP_EXIT_CODE};
use rio_tests::{assert_native_identical, assert_transparent, exit_with, program};

#[test]
fn jecxz_terminated_blocks_translate_via_trampolines() {
    // Application code whose loop exit is a jecxz — the exit cannot encode
    // a rel32 target, so emission must route it through a trampoline.
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(500)));
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(3)));
        il.push_back(create::dec(Opnd::reg(Reg::Ecx)));
        let out = il.push_back(create::jecxz(Target::Pc(0)));
        let mut back = create::jmp(Target::Pc(0));
        back.set_target(Target::Instr(top));
        il.push_back(back);
        let done = il.push_back(create::label());
        il.get_mut(out).set_target(Target::Instr(done));
        exit_with(il, Reg::Edi);
    });
    assert_eq!(assert_transparent(&img).exit_code, 1500);
}

#[test]
fn ret_n_calling_convention() {
    // Callee pops its own argument with `ret 4` (stdcall-style).
    let img = program(|il| {
        il.push_back(create::push(Opnd::imm32(20)));
        let c = il.push_back(create::call(Target::Pc(0)));
        // No caller cleanup: ret 4 already popped the arg.
        exit_with(il, Reg::Eax);
        let f = il.push_back(create::label());
        il.push_back(create::mov(
            Opnd::reg(Reg::Eax),
            Opnd::Mem(MemRef::base_disp(Reg::Esp, 4, OpSize::S32)),
        ));
        il.push_back(create::imul3(Reg::Eax, Opnd::reg(Reg::Eax), Opnd::imm32(2)));
        il.push_back(create::ret_imm(4));
        il.get_mut(c).set_target(Target::Instr(f));
    });
    assert_eq!(assert_transparent(&img).exit_code, 40);
}

#[test]
fn carry_chains_and_eight_bit_arithmetic_survive_translation() {
    let img = program(|il| {
        // 64-bit-ish addition via adc, then 8-bit register juggling.
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-1)));
        il.push_back(create::mov(Opnd::reg(Reg::Edx), Opnd::imm32(0)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1))); // CF=1
        il.push_back(create::adc(Opnd::reg(Reg::Edx), Opnd::imm32(0))); // edx=1
        il.push_back(create::mov(Opnd::reg(Reg::Cl), Opnd::imm8(200u8 as i8)));
        il.push_back(create::add(Opnd::reg(Reg::Cl), Opnd::imm8(100))); // 8-bit wrap
        il.push_back(create::movzx(Reg::Esi, Opnd::reg(Reg::Cl)));
        // ebx = edx*1000 + cl
        il.push_back(create::imul3(
            Reg::Ebx,
            Opnd::reg(Reg::Edx),
            Opnd::imm32(1000),
        ));
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::reg(Reg::Esi)));
        exit_with(il, Reg::Ebx);
    });
    assert_eq!(
        assert_transparent(&img).exit_code,
        1000 + ((200 + 100) & 0xFF)
    );
}

#[test]
fn pushfd_popfd_lahf_sahf_through_the_cache() {
    let img = program(|il| {
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Eax))); // ZF=1
        il.push_back(create::pushfd());
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1))); // ZF=0
        il.push_back(create::popfd()); // ZF back to 1
        il.push_back(create::setcc(Cc::Z, Opnd::reg(Reg::Cl)));
        il.push_back(create::lahf());
        il.push_back(create::movzx(Reg::Edx, Opnd::reg(Reg::Ah)));
        il.push_back(create::movzx(Reg::Ebx, Opnd::reg(Reg::Cl)));
        exit_with(il, Reg::Ebx);
    });
    assert_eq!(assert_transparent(&img).exit_code, 1);
}

#[test]
fn deep_recursion_under_translation() {
    let img = rio_workloads::compile(
        "fn ack_ish(n, acc) {
             if (n == 0) { return acc; }
             return ack_ish(n - 1, acc + n);
         }
         fn main() { return ack_ish(800, 0) % 251; }",
    )
    .unwrap();
    assert_eq!(assert_transparent(&img).exit_code, (800 * 801 / 2) % 251);
}

#[test]
fn tiny_block_splits_are_correct() {
    // Force one-instruction blocks: every block gets a synthetic
    // fall-through exit, stressing the split path.
    let img = rio_workloads::compile(
        "fn main() {
             var s = 0;
             var i = 0;
             while (i < 300) { s = s + i * 2 + 1; i++; }
             return s % 251;
         }",
    )
    .unwrap();
    for max_bb_instrs in [1, 2, 3] {
        assert_native_identical(
            &img,
            Options {
                max_bb_instrs,
                ..Options::full()
            },
        );
    }
}

#[test]
fn new_isa_instructions_translate_correctly() {
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x0102_0304)));
        il.push_back(create::bswap(Reg::Eax));
        il.push_back(create::rol(Opnd::reg(Reg::Eax), Opnd::imm8(8)));
        il.push_back(create::bt(Opnd::reg(Reg::Eax), Opnd::imm8(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(111)));
        il.push_back(create::cmov(Cc::B, Reg::Ecx, Opnd::reg(Reg::Ebx))); // CF from bt
        il.push_back(create::xchg(Opnd::reg(Reg::Ecx), Opnd::reg(Reg::Edi)));
        exit_with(il, Reg::Edi);
    });
    // bswap(0x01020304)=0x04030201, rol 8 -> 0x03020104, bit1 = 0 -> cmov not taken
    assert_eq!(assert_transparent(&img).exit_code, 0);
}

#[test]
fn indirect_jump_with_changing_targets_in_traces() {
    // A jump table whose hot target changes midway through the run: traces
    // built for the first phase must keep working via their miss paths.
    let img = rio_workloads::compile(
        "global acc = 0;
         fn main() {
             var i = 0;
             while (i < 4000) {
                 var phase = i / 2000;       // 0 then 1
                 switch ((i % 4) + phase * 4) {
                     case 0 { acc = acc + 1; }
                     case 1 { acc = acc + 2; }
                     case 2 { acc = acc + 3; }
                     case 3 { acc = acc + 4; }
                     case 4 { acc = acc + 10; }
                     case 5 { acc = acc + 20; }
                     case 6 { acc = acc + 30; }
                     case 7 { acc = acc + 40; }
                 }
                 i++;
             }
             print(acc);
             return acc % 251;
         }",
    )
    .unwrap();
    assert_transparent(&img);
}

/// Print `!`, then execute `trap`: a stray trap ends the program with the
/// same status natively and in every engine mode.
fn trap_image(trap: rio_ia32::Instr) -> Image {
    program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(3)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(b'!' as i32)));
        il.push_back(create::int(0x80));
        il.push_back(trap);
        exit_with(il, Reg::Ebx);
    })
}

#[test]
fn int3_exits_like_native() {
    let img = trap_image(create::int3());
    let summary = assert_transparent(&img);
    assert_eq!(summary.exit_code, TRAP_EXIT_CODE);
    assert_eq!(summary.output, "!");
}

#[test]
fn stray_interrupt_vector_exits_like_native() {
    let img = trap_image(create::int(0x21));
    assert_eq!(assert_transparent(&img).exit_code, TRAP_EXIT_CODE);
}

/// Register the label `body` returns as the fault handler, run `body`'s
/// code, and follow it with bytes that do not decode. Assembled twice: the
/// first pass learns the handler's address.
fn with_handler(body: impl Fn(&mut InstrList) -> InstrId) -> Image {
    let build = |handler: u32| {
        let mut il = InstrList::new();
        il.push_back(create::mov(
            Opnd::reg(Reg::Ebx),
            Opnd::imm32(handler as i32),
        ));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(20)));
        il.push_back(create::int(0x80));
        let entry = body(&mut il);
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let handler = Image::CODE_BASE + enc.offset_of(entry).unwrap();
        let mut code = enc.bytes;
        code.extend_from_slice(&[0xFF; 8]);
        (handler, Image::from_code(code))
    };
    build(build(0).0).1
}

#[test]
fn undecodable_jump_target_is_delivered_to_the_handler() {
    // The block at the jump target cannot be built, so the engine raises
    // the invalid-opcode fault at dispatch; the handler must run next, as
    // it does natively.
    let img = with_handler(|il| {
        let jmp = il.push_back(create::jmp(Target::Pc(0)));
        let entry = il.push_back(create::label());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(77)));
        exit_with(il, Reg::Ebx);
        let garbage = il.push_back(create::label());
        il.get_mut(jmp).set_target(Target::Instr(garbage));
        entry
    });
    assert_eq!(assert_transparent(&img).exit_code, 77);
}

#[test]
fn undecodable_bytes_mid_block_fault_after_the_valid_prefix() {
    // `L: add $10,%ebx` is followed by bytes that do not decode. Natively
    // the `add` runs before the fault reaches the handler, so the block at
    // `L` must end before the bad bytes instead of failing as a whole.
    let img = with_handler(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(5)));
        il.push_back(create::inc(Opnd::reg(Reg::Ebx)));
        let jmp = il.push_back(create::jmp(Target::Pc(0)));
        let entry = il.push_back(create::label());
        exit_with(il, Reg::Ebx);
        let l = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(10)));
        il.get_mut(jmp).set_target(Target::Instr(l));
        entry
    });
    assert_eq!(assert_transparent(&img).exit_code, 16);
}

/// An image whose first instruction jumps straight to `target`.
fn jump_image(target: u32) -> Image {
    program(|il| {
        il.push_back(create::jmp(Target::Pc(target)));
    })
}

/// Run `image` under the full engine with `client`; the run must end with
/// an engine fault (exit status 128) whose message contains `what`.
fn assert_engine_fault<C: Client>(image: &Image, client: C, what: &str) -> Rio<C> {
    let mut rio = Rio::new(image, Options::full(), CpuKind::Pentium4, client);
    let r = rio.run();
    let fault = r.fault.expect("the run ends with a fault");
    assert_eq!((r.exit_code, fault.kind), (128, None), "{}", fault.message);
    assert!(fault.message.contains(what), "{}", fault.message);
    rio
}

#[test]
fn application_jumps_to_runtime_sentinels_are_engine_faults() {
    // The application jumps to a clean-call token and an exit stub no
    // client or fragment ever handed out.
    let token = layout::clean_call_sentinel(1000);
    assert_engine_fault(
        &jump_image(token),
        NullClient,
        "unknown clean-call token (1000)",
    );
    let stub = layout::stub_sentinel(1_000_000);
    assert_engine_fault(&jump_image(stub), NullClient, "unknown stub (1000000)");
}

/// A client that asks for a spill slot `%ebx` does not have.
#[derive(Default)]
struct EbxSpiller {
    slot: Option<Option<MemRef>>,
}
impl Client for EbxSpiller {
    fn name(&self) -> &'static str {
        "ebx-spiller"
    }
    fn basic_block(&mut self, core: &mut Core, _tag: u32, _bb: &mut InstrList) {
        self.slot.get_or_insert(core.spill_slot(Reg::Ebx));
    }
}

#[test]
fn a_spill_slot_for_a_register_without_one_is_an_engine_fault() {
    let img = program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(7)));
        exit_with(il, Reg::Edi);
    });
    let rio = assert_engine_fault(&img, EbxSpiller::default(), "spill slot for %ebx");
    assert_eq!(rio.client.slot, Some(None));
    // The fault ends the run before any application code executes.
    assert_eq!(rio.core.machine.counters.instructions, 0);
}
