//! Strength reduction: `inc` → `add 1` / `dec` → `sub 1` (paper §4.2,
//! Figure 3).
//!
//! "On the Pentium 4 the `inc` instruction is slower than `add 1` ... The
//! opposite is true on the Pentium 3." The client checks the processor
//! family at initialization and disables itself on anything but the
//! Pentium 4 model — "a perfect example of an architecture-specific
//! optimization that is best performed dynamically".
//!
//! The analysis is a direct port of Figure 3: the replacement is legal only
//! if the carry flag (`CF`) — which `add` writes but `inc` does not — is
//! dead: some later instruction in the linear stream writes `CF` before any
//! instruction reads it, without crossing a fragment exit.

use rio_core::{Client, Core};
use rio_ia32::{create, Eflags, InstrId, InstrList, Opcode, Opnd};
use rio_sim::CpuKind;

/// Modeled cycles of client work per instruction examined.
const ANALYSIS_COST_PER_INSTR: u64 = 6;

/// The strength-reduction client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inc2Add {
    enabled: bool,
    /// `inc`/`dec` instructions examined.
    pub num_examined: u64,
    /// Instructions converted.
    pub num_converted: u64,
}

impl Inc2Add {
    /// Create the client (enabled state decided at `init`).
    pub fn new() -> Inc2Add {
        Inc2Add::default()
    }

    /// Whether the conversion of the `inc`/`dec` at `id` is legal: CF must
    /// be written before it is read, without reaching a fragment exit
    /// (Figure 3's `inc2add` helper).
    fn convertible(il: &InstrList, id: InstrId) -> bool {
        let mut cur = Some(id);
        while let Some(i) = cur {
            let instr = il.get(i);
            if i != id {
                let eflags = instr.eflags();
                // "add writes CF, inc does not, check ok!"
                if eflags.read.contains(Eflags::CF) {
                    return false;
                }
                // "if writes but doesn't read, we can replace"
                if eflags.written.contains(Eflags::CF) {
                    return true;
                }
                // "simplification: stop at first exit"
                if instr.is_exit_cti() {
                    return false;
                }
            }
            cur = il.next_id(i);
        }
        false
    }

    /// Apply the transformation to one list; returns conversions made.
    pub fn transform(&mut self, core: &mut Core, il: &mut InstrList) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut converted = 0;
        let ids: Vec<InstrId> = il.ids().collect();
        core.charge(ANALYSIS_COST_PER_INSTR * ids.len() as u64);
        for id in ids {
            let instr = il.get(id);
            let opcode = instr.opcode();
            if !matches!(opcode, Some(Opcode::Inc | Opcode::Dec)) {
                continue;
            }
            self.num_examined += 1;
            if !Self::convertible(il, id) {
                continue;
            }
            let dst = *il.get(id).dst(0);
            let app_pc = il.get(id).app_pc();
            let prefixes = il.get(id).prefixes();
            let mut replacement = if opcode == Some(Opcode::Inc) {
                create::add(dst, Opnd::imm8(1))
            } else {
                create::sub(dst, Opnd::imm8(1))
            };
            replacement.set_prefixes(prefixes);
            replacement.set_app_pc(app_pc);
            il.replace(id, replacement);
            self.num_converted += 1;
            converted += 1;
        }
        converted
    }
}

impl Client for Inc2Add {
    fn name(&self) -> &'static str {
        "inc2add"
    }

    // No `basic_block` hook: blocks keep the Level 0 bundle fast path.
    fn wants_full_decode(&self) -> bool {
        false
    }

    fn init(&mut self, core: &mut Core) {
        self.enabled = core.proc_kind() == CpuKind::Pentium4;
        self.num_examined = 0;
        self.num_converted = 0;
    }

    fn on_exit(&mut self, core: &mut Core) {
        if self.enabled {
            core.printf(format!(
                "converted {} out of {}\n",
                self.num_converted, self.num_examined
            ));
        } else {
            core.printf("kept original inc/dec\n");
        }
    }

    fn trace(&mut self, core: &mut Core, _tag: u32, trace: &mut InstrList) {
        self.transform(core, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::{Options, Rio};
    use rio_ia32::{Reg, Target};
    use rio_sim::Image;

    fn client(kind: CpuKind) -> (Inc2Add, Core) {
        let image = Image::from_code(vec![0xf4]);
        let mut core = Core::new(&image, Options::default(), kind);
        let mut c = Inc2Add::new();
        c.init(&mut core);
        (c, core)
    }

    #[test]
    fn converts_when_cf_is_clobbered_later() {
        let (mut c, mut core) = client(CpuKind::Pentium4);
        let mut il = InstrList::new();
        let inc = il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1))); // writes CF
        il.push_back(create::jmp(Target::Pc(0x1000)));
        assert_eq!(c.transform(&mut core, &mut il), 1);
        assert_eq!(il.get(inc).opcode(), Some(Opcode::Add));
        assert_eq!(il.get(inc).src(0).as_imm(), Some(1));
    }

    #[test]
    fn dec_becomes_sub() {
        let (mut c, mut core) = client(CpuKind::Pentium4);
        let mut il = InstrList::new();
        let dec = il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Ebx)));
        assert_eq!(c.transform(&mut core, &mut il), 1);
        assert_eq!(il.get(dec).opcode(), Some(Opcode::Sub));
    }

    #[test]
    fn refuses_when_cf_is_read() {
        let (mut c, mut core) = client(CpuKind::Pentium4);
        let mut il = InstrList::new();
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::adc(Opnd::reg(Reg::Ebx), Opnd::imm32(0))); // reads CF!
        assert_eq!(c.transform(&mut core, &mut il), 0);
        assert_eq!(c.num_examined, 1);
    }

    #[test]
    fn refuses_when_exit_reached_first() {
        let (mut c, mut core) = client(CpuKind::Pentium4);
        let mut il = InstrList::new();
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::jmp(Target::Pc(0x1000))); // exit before CF write
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1)));
        assert_eq!(c.transform(&mut core, &mut il), 0);
    }

    #[test]
    fn disabled_on_pentium3() {
        let (mut c, mut core) = client(CpuKind::Pentium3);
        let mut il = InstrList::new();
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Ebx)));
        assert_eq!(c.transform(&mut core, &mut il), 0);
        assert_eq!(c.num_examined, 0); // never even examined
        c.on_exit(&mut core);
        assert!(core.client_output().contains("kept original"));
    }

    #[test]
    fn jcc_reading_only_zf_does_not_block() {
        // jnz reads ZF, not CF; the scan continues past it... but jnz is an
        // exit CTI, which stops the scan conservatively.
        let (mut c, mut core) = client(CpuKind::Pentium4);
        let mut il = InstrList::new();
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::jcc(rio_ia32::Cc::Nz, Target::Pc(0x1000)));
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1)));
        assert_eq!(c.transform(&mut core, &mut il), 0);
    }

    #[test]
    fn end_to_end_preserves_results_and_converts() {
        // A loop whose body has a convertible inc (CF clobbered by the
        // following add before the flags-reading jnz... actually dec writes
        // flags: inc eax; add edi, 2; dec esi; jnz — inc's CF-dead proof is
        // the add.
        use rio_ia32::encode::encode_list;
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Esi), Opnd::imm32(400)));
        let top = il.push_back(create::label());
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(2)));
        il.push_back(create::dec(Opnd::reg(Reg::Esi)));
        let mut j = create::jcc(rio_ia32::Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::reg(Reg::Eax)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        let image = Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes);

        let native = rio_sim::run_native(&image, CpuKind::Pentium4);
        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, Inc2Add::new());
        let r = rio.run();
        assert_eq!(r.exit_code, native.exit_code);
        assert_eq!(r.exit_code, 400);
        assert!(rio.client.num_converted >= 1, "{:?}", rio.client);
        assert!(r.client_output.starts_with("converted"));
    }
}
