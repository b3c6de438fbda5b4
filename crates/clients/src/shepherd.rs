//! Program shepherding: a security client (the paper's reference \[23\],
//! "Secure Execution via Program Shepherding"), demonstrating the
//! conclusion's claim that the interface is general enough for "sandboxing,
//! intrusion detection".
//!
//! The client maintains a **shadow return stack** via clean calls inserted
//! at every call and return: a call records its return address; a return
//! checks that the address about to be popped from the application stack
//! matches the shadow top. A mismatch means the return address was
//! overwritten — the signature of a stack-smashing control-flow hijack.
//!
//! Calls and returns are instrumented both in basic blocks (before mangling,
//! where they are still `call`/`ret` instructions) and in traces (after
//! mangling, where calls appear as `push $return_pc` and returns as inlined
//! check regions or lookup exits).

use rio_core::{find_ib_checks, Client, Core, IndKind, Note};
use rio_ia32::{InstrId, InstrList, Opcode, Opnd, Reg};

/// Clean-call argument tags.
const TAG_CALL: u64 = 1 << 62;
const TAG_RET: u64 = 2 << 62;

/// A detected control-flow violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What the shadow stack expected (top entry; 0 if empty).
    pub expected: u32,
    /// Where the return was actually about to go.
    pub actual: u32,
}

/// The program-shepherding client.
#[derive(Debug, Default)]
pub struct Shepherd {
    shadow: Vec<u32>,
    /// Calls observed.
    pub calls_seen: u64,
    /// Returns checked.
    pub rets_checked: u64,
    /// Return-address violations detected.
    pub violations: Vec<Violation>,
    /// Deepest shadow stack observed.
    pub max_depth: usize,
}

impl Shepherd {
    /// Create the client.
    pub fn new() -> Shepherd {
        Shepherd::default()
    }

    /// Instrument one list: insert a clean call before every application
    /// call (raw `call`, or mangled `push $pc`) and before every return
    /// (raw `ret`, mangled lookup exit, or inlined check region).
    fn instrument(&mut self, core: &mut Core, il: &mut InstrList) {
        // Return sites: inlined check regions (begin at the spill)...
        let checks = find_ib_checks(il);
        let mut ret_sites: Vec<InstrId> = checks
            .iter()
            .filter(|c| c.kind == IndKind::Ret)
            .map(|c| c.begin)
            .collect();
        // Ids covered by any check region (their internal miss-path jumps
        // must not be instrumented a second time).
        let mut in_region: Vec<InstrId> = Vec::new();
        for c in &checks {
            let mut cur = Some(c.begin);
            while let Some(id) = cur {
                in_region.push(id);
                if id == c.end {
                    break;
                }
                cur = il.next_id(id);
            }
        }
        let ids: Vec<InstrId> = il.ids().collect();
        for id in &ids {
            let instr = il.get(*id);
            match instr.opcode() {
                // Raw application return (basic-block hook, pre-mangle).
                Some(Opcode::Ret) => ret_sites.push(*id),
                // Mangled lookup-exit return: walk back to the first
                // app-originated instruction (the spill carries the ret's
                // app pc), which is where %esp still points at the return
                // address.
                Some(Opcode::Jmp)
                    if matches!(Note::parse(instr.note), Some(Note::IbExit(IndKind::Ret)))
                        && !in_region.contains(id) =>
                {
                    let mut cur = il.prev_id(*id);
                    while let Some(p) = cur {
                        if il.get(p).app_pc() != 0 {
                            ret_sites.push(p);
                            break;
                        }
                        cur = il.prev_id(p);
                    }
                }
                _ => {}
            }
        }

        // Call sites: raw `call` (any kind), or mangled `push $ret_pc`.
        let mut call_sites: Vec<(InstrId, u32)> = Vec::new();
        for id in &ids {
            let instr = il.get(*id);
            match instr.opcode() {
                Some(Opcode::Call | Opcode::CallInd) if instr.app_pc() != 0 => {
                    // Return address = instruction end = app_pc + length.
                    if let Some(len) = instr.known_len() {
                        call_sites.push((*id, instr.app_pc() + len));
                    }
                }
                Some(Opcode::Push) if instr.app_pc() != 0 => {
                    if let Some(Opnd::Pc(ret)) = instr.srcs().first() {
                        call_sites.push((*id, *ret));
                    }
                }
                _ => {}
            }
        }

        for (id, ret_pc) in call_sites {
            let cc = core.clean_call_instr(TAG_CALL | ret_pc as u64);
            il.insert_before(id, cc);
        }
        for id in ret_sites {
            let cc = core.clean_call_instr(TAG_RET);
            il.insert_before(id, cc);
        }
    }
}

impl Client for Shepherd {
    fn name(&self) -> &'static str {
        "shepherd"
    }

    fn basic_block(&mut self, core: &mut Core, _tag: u32, bb: &mut InstrList) {
        self.instrument(core, bb);
    }

    fn trace(&mut self, core: &mut Core, _tag: u32, trace: &mut InstrList) {
        self.instrument(core, trace);
    }

    fn clean_call(&mut self, core: &mut Core, arg: u64) {
        if arg & TAG_CALL != 0 {
            self.calls_seen += 1;
            self.shadow.push(arg as u32);
            self.max_depth = self.max_depth.max(self.shadow.len());
        } else if arg & TAG_RET != 0 {
            self.rets_checked += 1;
            // At this point %esp points at the application return address.
            let esp = core.machine.cpu.reg(Reg::Esp);
            let actual = core.machine.mem.read_u32(esp);
            let expected = self.shadow.pop().unwrap_or(0);
            if actual != expected {
                self.violations.push(Violation { expected, actual });
            }
        }
    }

    fn on_exit(&mut self, core: &mut Core) {
        core.printf(format!(
            "shepherd: {} calls, {} returns checked, {} violations\n",
            self.calls_seen,
            self.rets_checked,
            self.violations.len()
        ));
        for v in self.violations.iter().take(5) {
            core.printf(format!(
                "  VIOLATION: return to {:#010x}, expected {:#010x}\n",
                v.actual, v.expected
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{assert_matches_native, counted_loop, exit_with, program};
    use rio_core::{Options, Rio};
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, MemRef, OpSize, Target};
    use rio_sim::{CpuKind, Image};

    fn benign_program(iters: i32) -> Image {
        program(|il| {
            il.push_back(create::mov(Opnd::reg(Reg::Edi), Opnd::imm32(0)));
            let mut call = None;
            counted_loop(il, iters, |il| {
                call = Some(il.push_back(create::call(Target::Pc(0))));
            });
            exit_with(il, Reg::Edi);
            let f = il.push_back(create::label());
            il.push_back(create::add(Opnd::reg(Reg::Edi), Opnd::imm32(2)));
            il.push_back(create::ret());
            il.get_mut(call.unwrap()).set_target(Target::Instr(f));
        })
    }

    /// A function that overwrites its own return address, redirecting the
    /// return to a gadget — the classic hijack pattern.
    fn hijack_program() -> Image {
        let mut il = InstrList::new();
        let c = il.push_back(create::call(Target::Pc(0)));
        // Legitimate continuation: exit(1).
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        // "Gadget": exit(66).
        let gadget = il.push_back(create::label());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(66)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        // f: overwrite [esp] with the gadget address, then ret.
        let f = il.push_back(create::label());
        let patch = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Esp, 0, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::ret());
        il.get_mut(c).set_target(Target::Instr(f));
        // Resolve the gadget address.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let gadget_addr = Image::CODE_BASE + enc.offset_of(gadget).unwrap();
        il.get_mut(patch)
            .set_src(0, Opnd::imm32(gadget_addr as i32));
        Image::from_code(encode_list(&il, Image::CODE_BASE).unwrap().bytes)
    }

    #[test]
    fn benign_program_has_no_violations() {
        let img = benign_program(300);
        let mut rio = Rio::new(&img, Options::full(), CpuKind::Pentium4, Shepherd::new());
        let r = rio.run();
        assert_matches_native(&img, &r);
        assert_eq!(rio.client.violations, vec![]);
        assert_eq!(rio.client.calls_seen, 300);
        assert_eq!(rio.client.rets_checked, 300);
        assert!(r.client_output.contains("0 violations"));
    }

    #[test]
    fn return_address_overwrite_is_detected() {
        let img = hijack_program();
        let mut rio = Rio::new(
            &img,
            Options::with_indirect_links(),
            CpuKind::Pentium4,
            Shepherd::new(),
        );
        let r = rio.run();
        // The hijack succeeds (monitoring, not enforcement)...
        assert_eq!(r.exit_code, 66);
        // ...but shepherding caught it.
        assert_eq!(rio.client.violations.len(), 1);
        let v = rio.client.violations[0];
        assert_ne!(v.actual, v.expected);
        assert!(r.client_output.contains("VIOLATION"));
    }

    #[test]
    fn recursion_tracks_depth() {
        use rio_workloads::compile;
        let image = compile(
            "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             fn main() { return fib(12); }",
        )
        .unwrap();
        let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, Shepherd::new());
        let r = rio.run();
        assert_matches_native(&image, &r);
        assert!(rio.client.violations.is_empty());
        assert!(rio.client.max_depth >= 12, "depth {}", rio.client.max_depth);
        assert_eq!(rio.client.calls_seen, rio.client.rets_checked);
    }
}
