//! Programs and the native check shared by the client unit tests.

use rio_core::{check_transparent, RioRunResult};
use rio_ia32::encode::encode_list;
use rio_ia32::{create, Cc, InstrList, Opnd, Reg, Target};
use rio_sim::{run_native, CpuKind, Image, RunResult};

/// Assemble a program at [`Image::CODE_BASE`] from a builder closure.
pub(crate) fn program(build: impl FnOnce(&mut InstrList)) -> Image {
    let mut il = InstrList::new();
    build(&mut il);
    Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
}

/// Append `exit(reg)`: `ebx = reg; eax = 1; int 0x80`.
pub(crate) fn exit_with(il: &mut InstrList, reg: Reg) {
    il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::reg(reg)));
    il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
    il.push_back(create::int(0x80));
}

/// Append `esi = n; top: body; dec esi; jnz top`.
pub(crate) fn counted_loop(il: &mut InstrList, n: i32, body: impl FnOnce(&mut InstrList)) {
    il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(n)));
    let top = il.push_back(create::label());
    body(il);
    il.push_back(create::dec(Opnd::reg(Reg::Esi)));
    let mut j = create::jcc(Cc::Nz, Target::Pc(0));
    j.set_target(Target::Instr(top));
    il.push_back(j);
}

/// Exit with the sum of `1..=n`, computed by a one-block loop.
pub(crate) fn loop_program(n: i32) -> Image {
    program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        counted_loop(il, n, |il| {
            il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::reg(Reg::Esi)));
        });
        exit_with(il, Reg::Edi);
    })
}

/// A loop calling one small function (`edi += 2; ret`) from two sites,
/// `iters` times, then exiting with `%edi`: the return's inlined target
/// check misses half the time.
pub(crate) fn call_program(iters: i32) -> Image {
    program(|il| {
        il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
        let mut calls = [None; 2];
        counted_loop(il, iters, |il| {
            calls[0] = Some(il.push_back(create::call(Target::Pc(0))));
            il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(1)));
            calls[1] = Some(il.push_back(create::call(Target::Pc(0))));
        });
        exit_with(il, Reg::Edi);
        let f = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(2)));
        il.push_back(create::ret());
        for c in calls.into_iter().flatten() {
            il.get_mut(c).set_target(Target::Instr(f));
        }
    })
}

/// Run `image` natively on the Pentium 4 model and assert that the engine
/// run `r` passes [`check_transparent`] against it; returns the native run.
pub(crate) fn assert_matches_native(image: &Image, r: &RioRunResult) -> RunResult {
    let native = run_native(image, CpuKind::Pentium4);
    if let Err(d) = check_transparent(&native, r) {
        panic!("diverged from native execution on {d}");
    }
    native
}
