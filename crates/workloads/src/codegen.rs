//! Code generation from Dyna ASTs to IA-32 subset machine code.
//!
//! The generator is intentionally naive, mirroring how unoptimized compiler
//! output looks on register-starved IA-32 (and why the paper's dynamic
//! optimizations find work to do even in `gcc -O3` binaries):
//!
//! * every variable lives in memory (locals on the `%ebp` frame, globals in
//!   the data segment) and is **reloaded at each use** — redundant loads for
//!   §4.1's client;
//! * `x++` / `x--` compile to memory `inc`/`dec` — strength-reduction fuel
//!   for §4.2's client;
//! * dense `switch` statements compile to **jump tables** (`jmp *t(,%eax,4)`)
//!   and `icall` to indirect calls — targets for §4.3's client;
//! * calls use a cdecl-like convention (args pushed right-to-left, caller
//!   cleans, result in `%eax`) — inlining material for §4.4's client.

use std::collections::HashMap;

use rio_ia32::encode::{encode_instr, encode_list};
use rio_ia32::{create, Cc, InstrId, InstrList, MemRef, OpSize, Opnd, Reg, Target};
use rio_sim::Image;

use crate::ast::{BinOp, Expr, Function, Program, Stmt};
use crate::compiler::CompileError;

/// Where switch jump tables are placed (above globals).
const TABLE_BASE: u32 = Image::DATA_BASE + 0x0080_0000;

struct FnCtx {
    name: String,
    /// name -> ebp-relative offset (locals negative, params positive).
    slots: HashMap<String, i32>,
    next_local: i32,
    /// Innermost-first stack of pending `break`/`continue` jumps, patched
    /// when the loop's labels are placed.
    loop_stack: Vec<LoopJumps>,
}

#[derive(Default)]
struct LoopJumps {
    breaks: Vec<InstrId>,
    continues: Vec<InstrId>,
}

pub(crate) struct Codegen {
    il: InstrList,
    fn_labels: HashMap<String, InstrId>,
    fn_arity: HashMap<String, usize>,
    globals: HashMap<String, (u32, u32)>,
    data: Vec<(u32, Vec<u8>)>,
    data_next: u32,
    table_next: u32,
    fnaddr_patches: Vec<(InstrId, String)>,
    table_patches: Vec<(u32, Vec<InstrId>)>,
    call_patches: Vec<(InstrId, String)>,
}

fn slot_opnd(disp: i32) -> Opnd {
    Opnd::Mem(MemRef::base_disp(Reg::Ebp, disp, OpSize::S32))
}

fn global_opnd(addr: u32) -> Opnd {
    Opnd::Mem(MemRef::absolute(addr, OpSize::S32))
}

fn eax() -> Opnd {
    Opnd::reg(Reg::Eax)
}

fn ecx() -> Opnd {
    Opnd::reg(Reg::Ecx)
}

impl Codegen {
    pub(crate) fn new() -> Codegen {
        Codegen {
            il: InstrList::new(),
            fn_labels: HashMap::new(),
            fn_arity: HashMap::new(),
            globals: HashMap::new(),
            data: Vec::new(),
            data_next: Image::DATA_BASE,
            table_next: TABLE_BASE,
            fnaddr_patches: Vec::new(),
            table_patches: Vec::new(),
            call_patches: Vec::new(),
        }
    }

    pub(crate) fn compile(mut self, prog: &Program) -> Result<Image, CompileError> {
        // Lay out globals.
        for g in &prog.globals {
            if self.globals.contains_key(&g.name) {
                return Err(CompileError::Duplicate(g.name.clone()));
            }
            let addr = self.data_next;
            self.data_next += g.len * 4;
            self.globals.insert(g.name.clone(), (addr, g.len));
            if g.init != 0 {
                self.data.push((addr, g.init.to_le_bytes().to_vec()));
            }
        }
        // Forward-declare every function (labels first, for forward calls).
        for f in &prog.functions {
            if self.fn_arity.contains_key(&f.name) {
                return Err(CompileError::Duplicate(f.name.clone()));
            }
            self.fn_arity.insert(f.name.clone(), f.params.len());
        }
        if !self.fn_arity.contains_key("main") {
            return Err(CompileError::NoMain);
        }

        // Entry stub: call main; exit(eax).
        let entry_call = self.il.push_back(create::call(Target::Pc(0)));
        self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
        self.il.push_back(create::mov(eax(), Opnd::imm32(1)));
        self.il.push_back(create::int(0x80));
        self.il.push_back(create::hlt()); // unreachable backstop

        for f in &prog.functions {
            let label = self.il.push_back(create::label());
            self.fn_labels.insert(f.name.clone(), label);
            self.function(f)?;
        }

        let main_label = self.fn_labels["main"];
        self.il
            .get_mut(entry_call)
            .set_target(Target::Instr(main_label));
        self.resolve_calls()?;

        // Encode, then patch absolute addresses (function pointers, jump
        // tables). A patch changes only a fixed-width imm32 value, so the
        // offsets stay put and each patched instruction is re-encoded in
        // place.
        let mut enc = encode_list(&self.il, Image::CODE_BASE)?;
        for (id, name) in &self.fnaddr_patches {
            let label = self
                .fn_labels
                .get(name)
                .copied()
                .ok_or_else(|| CompileError::UnknownFunction(name.clone()))?;
            let addr = Image::CODE_BASE + enc.offset_of(label).expect("label encoded");
            self.il.get_mut(*id).set_src(0, Opnd::imm32(addr as i32));
            let off = enc.offset_of(*id).expect("patch encoded");
            let len = enc.len_of(*id).expect("patch encoded");
            let patched = encode_instr(self.il.get(*id), Image::CODE_BASE + off, &|_| None)?;
            enc.bytes[off as usize..(off + len) as usize].copy_from_slice(&patched);
        }
        for (table_addr, labels) in &self.table_patches {
            let mut bytes = Vec::with_capacity(labels.len() * 4);
            for l in labels {
                let addr = Image::CODE_BASE + enc.offset_of(*l).expect("label encoded");
                bytes.extend_from_slice(&addr.to_le_bytes());
            }
            self.data.push((*table_addr, bytes));
        }

        Ok(Image {
            code: enc.bytes,
            data: self.data,
            entry: Image::CODE_BASE,
        })
    }

    fn function(&mut self, f: &Function) -> Result<(), CompileError> {
        let mut ctx = FnCtx {
            name: f.name.clone(),
            slots: HashMap::new(),
            next_local: -4,
            loop_stack: Vec::new(),
        };
        for (i, p) in f.params.iter().enumerate() {
            // Saved ebp at 0(%ebp), return address at 4(%ebp), args above.
            ctx.slots.insert(p.clone(), 8 + 4 * i as i32);
        }
        // Pre-size the frame: count `var` declarations recursively.
        let nlocals = count_lets(&f.body);

        self.il.push_back(create::push(Opnd::reg(Reg::Ebp)));
        self.il
            .push_back(create::mov(Opnd::reg(Reg::Ebp), Opnd::reg(Reg::Esp)));
        if nlocals > 0 {
            self.il.push_back(create::sub(
                Opnd::reg(Reg::Esp),
                Opnd::imm32(4 * nlocals as i32),
            ));
        }
        self.stmts(&mut ctx, &f.body)?;
        // Implicit `return 0`.
        self.il.push_back(create::mov(eax(), Opnd::imm32(0)));
        self.epilogue();
        Ok(())
    }

    fn epilogue(&mut self) {
        self.il
            .push_back(create::mov(Opnd::reg(Reg::Esp), Opnd::reg(Reg::Ebp)));
        self.il.push_back(create::pop(Opnd::reg(Reg::Ebp)));
        self.il.push_back(create::ret());
    }

    /// Resolve a scalar variable to its memory operand.
    fn var_slot(&self, ctx: &FnCtx, name: &str) -> Result<Opnd, CompileError> {
        if let Some(disp) = ctx.slots.get(name) {
            return Ok(slot_opnd(*disp));
        }
        if let Some((addr, _)) = self.globals.get(name) {
            return Ok(global_opnd(*addr));
        }
        Err(CompileError::UnknownVar {
            name: name.to_string(),
            function: ctx.name.clone(),
        })
    }

    fn array_base(&self, ctx: &FnCtx, name: &str) -> Result<u32, CompileError> {
        self.globals
            .get(name)
            .map(|(a, _)| *a)
            .ok_or_else(|| CompileError::UnknownVar {
                name: name.to_string(),
                function: ctx.name.clone(),
            })
    }

    fn stmts(&mut self, ctx: &mut FnCtx, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.stmt(ctx, s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, ctx: &mut FnCtx, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let(name, e) => {
                self.eval(ctx, e)?;
                let disp = *ctx.slots.entry(name.clone()).or_insert_with(|| {
                    let d = ctx.next_local;
                    ctx.next_local -= 4;
                    d
                });
                self.il.push_back(create::mov(slot_opnd(disp), eax()));
            }
            Stmt::Assign(name, e) => {
                self.eval(ctx, e)?;
                let slot = self.var_slot(ctx, name)?;
                self.il.push_back(create::mov(slot, eax()));
            }
            Stmt::Store(name, idx, e) => {
                let base = self.array_base(ctx, name)?;
                self.eval(ctx, e)?;
                self.il.push_back(create::push(eax()));
                self.eval(ctx, idx)?;
                self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                self.il.push_back(create::pop(ecx()));
                self.il.push_back(create::mov(
                    Opnd::Mem(MemRef::index_disp(Reg::Ebx, 4, base as i32, OpSize::S32)),
                    ecx(),
                ));
            }
            Stmt::Inc(name) => {
                let slot = self.var_slot(ctx, name)?;
                self.il.push_back(create::inc(slot));
            }
            Stmt::Dec(name) => {
                let slot = self.var_slot(ctx, name)?;
                self.il.push_back(create::dec(slot));
            }
            Stmt::While(cond, body) => {
                // Rotated loop (as real compilers emit): guard test, body,
                // bottom test with a backward conditional branch. `continue`
                // jumps to the bottom test; `break` jumps past the loop.
                self.eval(ctx, cond)?;
                self.il.push_back(create::test(eax(), eax()));
                let skip = self.il.push_back(create::jcc(Cc::Z, Target::Pc(0)));
                let top = self.il.push_back(create::label());
                ctx.loop_stack.push(LoopJumps::default());
                self.stmts(ctx, body)?;
                let jumps = ctx.loop_stack.pop().expect("loop stack balanced");
                let cont = self.il.push_back(create::label());
                self.eval(ctx, cond)?;
                self.il.push_back(create::test(eax(), eax()));
                let mut back = create::jcc(Cc::Nz, Target::Pc(0));
                back.set_target(Target::Instr(top));
                self.il.push_back(back);
                let end = self.il.push_back(create::label());
                self.il.get_mut(skip).set_target(Target::Instr(end));
                for j in jumps.breaks {
                    self.il.get_mut(j).set_target(Target::Instr(end));
                }
                for j in jumps.continues {
                    self.il.get_mut(j).set_target(Target::Instr(cont));
                }
            }
            Stmt::Break => {
                let j = self.il.push_back(create::jmp(Target::Pc(0)));
                ctx.loop_stack
                    .last_mut()
                    .ok_or_else(|| CompileError::StrayLoopControl {
                        what: "break",
                        function: ctx.name.clone(),
                    })?
                    .breaks
                    .push(j);
            }
            Stmt::Continue => {
                let j = self.il.push_back(create::jmp(Target::Pc(0)));
                ctx.loop_stack
                    .last_mut()
                    .ok_or_else(|| CompileError::StrayLoopControl {
                        what: "continue",
                        function: ctx.name.clone(),
                    })?
                    .continues
                    .push(j);
            }
            Stmt::If(cond, then, els) => {
                self.eval(ctx, cond)?;
                self.il.push_back(create::test(eax(), eax()));
                let to_else = self.il.push_back(create::jcc(Cc::Z, Target::Pc(0)));
                self.stmts(ctx, then)?;
                if els.is_empty() {
                    let end = self.il.push_back(create::label());
                    self.il.get_mut(to_else).set_target(Target::Instr(end));
                } else {
                    let skip = self.il.push_back(create::jmp(Target::Pc(0)));
                    let else_l = self.il.push_back(create::label());
                    self.il.get_mut(to_else).set_target(Target::Instr(else_l));
                    self.stmts(ctx, els)?;
                    let end = self.il.push_back(create::label());
                    self.il.get_mut(skip).set_target(Target::Instr(end));
                }
            }
            Stmt::Return(e) => {
                self.eval(ctx, e)?;
                self.epilogue();
            }
            Stmt::Print(e) => {
                self.eval(ctx, e)?;
                self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                self.il.push_back(create::mov(eax(), Opnd::imm32(2)));
                self.il.push_back(create::int(0x80));
            }
            Stmt::PrintC(e) => {
                self.eval(ctx, e)?;
                self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                self.il.push_back(create::mov(eax(), Opnd::imm32(3)));
                self.il.push_back(create::int(0x80));
            }
            Stmt::Switch(e, cases, default) => self.switch(ctx, e, cases, default)?,
            Stmt::Expr(e) => {
                self.eval(ctx, e)?;
            }
        }
        Ok(())
    }

    fn switch(
        &mut self,
        ctx: &mut FnCtx,
        e: &Expr,
        cases: &[(i32, Vec<Stmt>)],
        default: &[Stmt],
    ) -> Result<(), CompileError> {
        self.eval(ctx, e)?;
        let min = cases.iter().map(|(k, _)| *k).min().unwrap_or(0);
        let max = cases.iter().map(|(k, _)| *k).max().unwrap_or(0);
        let span = (max as i64 - min as i64 + 1) as u32;
        let dense = !cases.is_empty() && span as usize <= cases.len() * 4 + 8 && span <= 1024;

        let mut case_labels: Vec<(i32, InstrId)> = Vec::new();
        let default_label;
        let end_jumps: Vec<InstrId>;

        if dense {
            // Jump table: translate into a real indirect jump — the
            // workloads' main source of `jmp *`.
            if min != 0 {
                self.il.push_back(create::sub(eax(), Opnd::imm32(min)));
            }
            self.il
                .push_back(create::cmp(eax(), Opnd::imm32(span as i32)));
            let to_default = self.il.push_back(create::jcc(Cc::Nb, Target::Pc(0)));
            let table_addr = self.table_next;
            self.table_next += span * 4;
            self.il
                .push_back(create::jmp_ind(Opnd::Mem(MemRef::index_disp(
                    Reg::Eax,
                    4,
                    table_addr as i32,
                    OpSize::S32,
                ))));

            let mut jumps = Vec::new();
            for (k, body) in cases {
                let l = self.il.push_back(create::label());
                case_labels.push((*k, l));
                self.stmts(ctx, body)?;
                jumps.push(self.il.push_back(create::jmp(Target::Pc(0))));
            }
            default_label = self.il.push_back(create::label());
            self.il
                .get_mut(to_default)
                .set_target(Target::Instr(default_label));
            self.stmts(ctx, default)?;
            end_jumps = jumps;

            // Table entries: case label or default.
            let mut entries = Vec::with_capacity(span as usize);
            for k in min..=max {
                let l = case_labels
                    .iter()
                    .find(|(ck, _)| *ck == k)
                    .map(|(_, l)| *l)
                    .unwrap_or(default_label);
                entries.push(l);
            }
            self.table_patches.push((table_addr, entries));
        } else {
            // Sparse: compare chain.
            let mut to_case = Vec::new();
            for (k, _) in cases {
                self.il.push_back(create::cmp(eax(), Opnd::imm32(*k)));
                to_case.push(self.il.push_back(create::jcc(Cc::Z, Target::Pc(0))));
            }
            let to_default = self.il.push_back(create::jmp(Target::Pc(0)));
            let mut jumps = Vec::new();
            for ((_, body), j) in cases.iter().zip(to_case) {
                let l = self.il.push_back(create::label());
                self.il.get_mut(j).set_target(Target::Instr(l));
                self.stmts(ctx, body)?;
                jumps.push(self.il.push_back(create::jmp(Target::Pc(0))));
            }
            default_label = self.il.push_back(create::label());
            self.il
                .get_mut(to_default)
                .set_target(Target::Instr(default_label));
            self.stmts(ctx, default)?;
            end_jumps = jumps;
        }

        let end = self.il.push_back(create::label());
        for j in end_jumps {
            self.il.get_mut(j).set_target(Target::Instr(end));
        }
        Ok(())
    }

    fn eval(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => {
                self.il.push_back(create::mov(eax(), Opnd::imm32(*n)));
            }
            Expr::Var(name) => {
                let slot = self.var_slot(ctx, name)?;
                self.il.push_back(create::mov(eax(), slot));
            }
            Expr::Index(name, idx) => {
                // Index value moves through %ebx so the address register
                // survives the load (and repeated identical loads become
                // visible to redundant-load removal).
                let base = self.array_base(ctx, name)?;
                self.eval(ctx, idx)?;
                self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                self.il.push_back(create::mov(
                    eax(),
                    Opnd::Mem(MemRef::index_disp(Reg::Ebx, 4, base as i32, OpSize::S32)),
                ));
            }
            Expr::Bin(op, l, r) => {
                // Simple right operands (literals, scalar variables) load
                // straight into %ecx — the common case, and the source of
                // the repeated same-slot loads redundant-load removal eats.
                match r.as_ref() {
                    Expr::Num(n) => {
                        self.eval(ctx, l)?;
                        self.il.push_back(create::mov(ecx(), Opnd::imm32(*n)));
                    }
                    Expr::Var(name) => {
                        let slot = self.var_slot(ctx, name)?;
                        self.eval(ctx, l)?;
                        self.il.push_back(create::mov(ecx(), slot));
                    }
                    _ => {
                        self.eval(ctx, r)?;
                        self.il.push_back(create::push(eax()));
                        self.eval(ctx, l)?;
                        // Pop into %edx where possible so %ecx keeps
                        // whatever scalar it last loaded (shift counts must
                        // be in %cl; division clobbers %edx).
                        match op {
                            BinOp::Shl | BinOp::Shr | BinOp::Div | BinOp::Rem => {
                                self.il.push_back(create::pop(ecx()));
                                self.binop(*op);
                            }
                            _ => {
                                self.il.push_back(create::pop(Opnd::reg(Reg::Edx)));
                                self.binop_rhs(*op, Reg::Edx);
                            }
                        }
                        return Ok(());
                    }
                }
                self.binop(*op);
            }
            Expr::Neg(e) => {
                self.eval(ctx, e)?;
                self.il.push_back(create::neg(eax()));
            }
            Expr::Not(e) => {
                self.eval(ctx, e)?;
                self.il.push_back(create::test(eax(), eax()));
                self.il.push_back(create::setcc(Cc::Z, Opnd::reg(Reg::Al)));
                self.il
                    .push_back(create::movzx(Reg::Eax, Opnd::reg(Reg::Al)));
            }
            Expr::Call(name, args) => {
                // Thread intrinsics (unless shadowed by a user definition):
                // spawn(&f) -> thread id, yield(), texit().
                if !self.fn_arity.contains_key(name) {
                    match (name.as_str(), args.len()) {
                        ("spawn", 1) => {
                            self.eval(ctx, &args[0])?;
                            self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                            self.il.push_back(create::mov(eax(), Opnd::imm32(10)));
                            self.il.push_back(create::int(0x80));
                            return Ok(());
                        }
                        ("yield", 0) => {
                            self.il.push_back(create::mov(eax(), Opnd::imm32(11)));
                            self.il.push_back(create::int(0x80));
                            return Ok(());
                        }
                        ("texit", 0) => {
                            self.il.push_back(create::mov(eax(), Opnd::imm32(12)));
                            self.il.push_back(create::int(0x80));
                            return Ok(());
                        }
                        // sethandler(&f) -> previous handler address (0 if
                        // none); sethandler(0) clears. The handler is called
                        // as f(kind, pc) on every fault.
                        ("sethandler", 1) => {
                            self.eval(ctx, &args[0])?;
                            self.il.push_back(create::mov(Opnd::reg(Reg::Ebx), eax()));
                            self.il.push_back(create::mov(eax(), Opnd::imm32(20)));
                            self.il.push_back(create::int(0x80));
                            return Ok(());
                        }
                        // poke(addr, value) -> value: store a 32-bit word
                        // to an arbitrary address (for self-modifying-code
                        // workloads that patch their own instructions).
                        ("poke", 2) => {
                            self.eval(ctx, &args[1])?;
                            self.il.push_back(create::push(eax()));
                            self.eval(ctx, &args[0])?;
                            self.il.push_back(create::pop(Opnd::reg(Reg::Edx)));
                            self.il.push_back(create::mov(
                                Opnd::Mem(MemRef::base_disp(Reg::Eax, 0, OpSize::S32)),
                                Opnd::reg(Reg::Edx),
                            ));
                            self.il.push_back(create::mov(eax(), Opnd::reg(Reg::Edx)));
                            return Ok(());
                        }
                        // peek(addr) -> the 32-bit word at an arbitrary
                        // address (for provoking memory faults on guarded
                        // regions).
                        ("peek", 1) => {
                            self.eval(ctx, &args[0])?;
                            self.il.push_back(create::mov(
                                eax(),
                                Opnd::Mem(MemRef::base_disp(Reg::Eax, 0, OpSize::S32)),
                            ));
                            return Ok(());
                        }
                        _ => {}
                    }
                }
                let arity = *self
                    .fn_arity
                    .get(name)
                    .ok_or_else(|| CompileError::UnknownFunction(name.clone()))?;
                if arity != args.len() {
                    return Err(CompileError::Arity {
                        function: name.clone(),
                        expected: arity,
                        got: args.len(),
                    });
                }
                for a in args.iter().rev() {
                    self.eval(ctx, a)?;
                    self.il.push_back(create::push(eax()));
                }
                // Forward reference: the label may not exist yet; use a
                // placeholder patched via the name table at the end.
                let call = self.il.push_back(create::call(Target::Pc(0)));
                self.pending_call(call, name.clone());
                if !args.is_empty() {
                    self.il.push_back(create::add(
                        Opnd::reg(Reg::Esp),
                        Opnd::imm32(4 * args.len() as i32),
                    ));
                }
            }
            Expr::ICall(target, args) => {
                for a in args.iter().rev() {
                    self.eval(ctx, a)?;
                    self.il.push_back(create::push(eax()));
                }
                self.eval(ctx, target)?;
                self.il.push_back(create::call_ind(eax()));
                if !args.is_empty() {
                    self.il.push_back(create::add(
                        Opnd::reg(Reg::Esp),
                        Opnd::imm32(4 * args.len() as i32),
                    ));
                }
            }
            Expr::FnAddr(name) => {
                if !self.fn_arity.contains_key(name) {
                    return Err(CompileError::UnknownFunction(name.clone()));
                }
                let id = self.il.push_back(create::mov(eax(), Opnd::imm32(0)));
                self.fnaddr_patches.push((id, name.clone()));
            }
            Expr::AndAnd(l, r) => {
                // Short circuit: if l == 0, result is 0 without evaluating r.
                self.eval(ctx, l)?;
                self.il.push_back(create::test(eax(), eax()));
                let short = self.il.push_back(create::jcc(Cc::Z, Target::Pc(0)));
                self.eval(ctx, r)?;
                self.il.push_back(create::test(eax(), eax()));
                let out = self.il.push_back(create::label());
                self.il.get_mut(short).set_target(Target::Instr(out));
                // Normalize whichever flags we arrived with into 0/1.
                self.il.push_back(create::setcc(Cc::Nz, Opnd::reg(Reg::Al)));
                self.il
                    .push_back(create::movzx(Reg::Eax, Opnd::reg(Reg::Al)));
            }
            Expr::OrOr(l, r) => {
                self.eval(ctx, l)?;
                self.il.push_back(create::test(eax(), eax()));
                let short = self.il.push_back(create::jcc(Cc::Nz, Target::Pc(0)));
                self.eval(ctx, r)?;
                self.il.push_back(create::test(eax(), eax()));
                let out = self.il.push_back(create::label());
                self.il.get_mut(short).set_target(Target::Instr(out));
                self.il.push_back(create::setcc(Cc::Nz, Opnd::reg(Reg::Al)));
                self.il
                    .push_back(create::movzx(Reg::Eax, Opnd::reg(Reg::Al)));
            }
        }
        Ok(())
    }

    /// Record a direct call to `name`; the target label is resolved once
    /// all functions have been generated (forward references).
    fn pending_call(&mut self, call: InstrId, name: String) {
        self.call_patches.push((call, name));
    }

    fn resolve_calls(&mut self) -> Result<(), CompileError> {
        let patches = std::mem::take(&mut self.call_patches);
        for (id, name) in patches {
            let label = self
                .fn_labels
                .get(&name)
                .copied()
                .ok_or_else(|| CompileError::UnknownFunction(name.clone()))?;
            self.il.get_mut(id).set_target(Target::Instr(label));
        }
        Ok(())
    }

    fn binop(&mut self, op: BinOp) {
        self.binop_rhs(op, Reg::Ecx);
    }

    /// Emit the operation `eax = eax <op> rhs`.
    ///
    /// # Panics
    ///
    /// Shifts require the count in `%ecx` and division requires `%edx` free;
    /// callers route those through `%ecx`.
    fn binop_rhs(&mut self, op: BinOp, rhs: Reg) {
        let ecx = || Opnd::reg(rhs);
        match op {
            BinOp::Shl | BinOp::Shr | BinOp::Div | BinOp::Rem => {
                assert_eq!(rhs, Reg::Ecx, "shift/div rhs must be %ecx");
            }
            _ => {}
        }
        match op {
            BinOp::Add => {
                self.il.push_back(create::add(eax(), ecx()));
            }
            BinOp::Sub => {
                self.il.push_back(create::sub(eax(), ecx()));
            }
            BinOp::Mul => {
                self.il.push_back(create::imul(Reg::Eax, ecx()));
            }
            BinOp::Div => {
                self.il.push_back(create::cdq());
                self.il.push_back(create::idiv(ecx()));
            }
            BinOp::Rem => {
                self.il.push_back(create::cdq());
                self.il.push_back(create::idiv(ecx()));
                self.il.push_back(create::mov(eax(), Opnd::reg(Reg::Edx)));
            }
            BinOp::And => {
                self.il.push_back(create::and(eax(), ecx()));
            }
            BinOp::Or => {
                self.il.push_back(create::or(eax(), ecx()));
            }
            BinOp::Xor => {
                self.il.push_back(create::xor(eax(), ecx()));
            }
            BinOp::Shl => {
                self.il.push_back(create::shl(eax(), Opnd::reg(Reg::Cl)));
            }
            BinOp::Shr => {
                self.il.push_back(create::sar(eax(), Opnd::reg(Reg::Cl)));
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let cc = match op {
                    BinOp::Eq => Cc::Z,
                    BinOp::Ne => Cc::Nz,
                    BinOp::Lt => Cc::L,
                    BinOp::Le => Cc::Le,
                    BinOp::Gt => Cc::Nle,
                    _ => Cc::Nl,
                };
                self.il.push_back(create::cmp(eax(), ecx()));
                self.il.push_back(create::setcc(cc, Opnd::reg(Reg::Al)));
                self.il
                    .push_back(create::movzx(Reg::Eax, Opnd::reg(Reg::Al)));
            }
        }
    }
}

/// Count `var` declarations (conservatively; duplicates share a slot but
/// over-allocating is harmless).
fn count_lets(body: &[Stmt]) -> usize {
    let mut n = 0;
    for s in body {
        match s {
            Stmt::Let(..) => n += 1,
            Stmt::While(_, b) => n += count_lets(b),
            Stmt::If(_, t, e) => n += count_lets(t) + count_lets(e),
            Stmt::Switch(_, cases, d) => {
                n += count_lets(d);
                for (_, b) in cases {
                    n += count_lets(b);
                }
            }
            _ => {}
        }
    }
    n
}
