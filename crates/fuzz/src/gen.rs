//! Deterministic structured program generator for differential fuzzing.
//!
//! This is the `S`/`E` statement-tree generator originally grown inside the
//! integration tests, promoted to a library and extended to reach every
//! transparency mechanism the engine has: besides loops, branches,
//! switches, stores, helper calls, and indirect calls, generated programs
//! now contain
//!
//! * **division** — guarded (divisor forced nonzero) and unguarded (the
//!   divisor is an arbitrary subexpression, so genuine divide errors are
//!   raised and delivered to the program's registered fault handler, whose
//!   count and pc checksum are printed — fault delivery must agree across
//!   every execution mode for runs to compare equal);
//! * **`poke` self-modifying stores** into a victim function that is then
//!   called (directly or through a pointer), exercising write monitoring,
//!   precise invalidation, and rebuilds;
//! * **deep call/return chains** through a bounded recursive function
//!   (return-address-stack pressure — depth exceeds the simulator's RAS);
//! * **indirect-call tables** — `icall` through a four-entry function
//!   pointer table indexed by a random expression, exercising the
//!   indirect-branch lookup and trace inline checks.
//!
//! Everything derives from the workspace's xorshift64* [`Rng`]:
//! a seed *is* a program, and rendering is pure, so a persisted seed
//! reproduces its source bit-identically forever. All loops are bounded
//! counters and recursion depth is masked, so every program terminates; the
//! only faults are divide errors, which the preamble's handler recovers in
//! native and engine runs alike.
//!
//! [`gen_instr`] draws single IA-32 instructions from the same kind of
//! stream, for the codec and liveness round-trip properties.

use rio_ia32::{create, Cc, Instr, MemRef, OpSize, Opnd, Reg};

use crate::rng::Rng;

/// A bounded random statement. Variables come from a fixed pool (`v0..v3`
/// locals, `g0..g1` globals, array `arr`); all loops are bounded counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum S {
    /// `vN = expr;`
    Assign(u8, E),
    /// `vN++;` / `vN--;`
    Bump(u8, bool),
    /// `arr[(i) & 31] = expr;`
    Store(E, E),
    /// Bounded counter loop.
    Loop(u8, Vec<S>),
    /// Two-way branch.
    If(E, Vec<S>, Vec<S>),
    /// Four-way switch with a default arm.
    Switch(E, Vec<Vec<S>>),
    /// `g1 = helper(expr);`
    CallHelper(E),
    /// `print(expr & 4095);`
    Print(E),
    /// Self-modifying store: re-patch the victim function's body to return
    /// the given value, then call it — directly (`false`) or through its
    /// pointer with `icall` (`true`).
    Patch(u8, bool),
}

/// A bounded random expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum E {
    /// Integer literal.
    K(i32),
    /// Local `v0..v3`.
    V(u8),
    /// Global `g0..g1`.
    G(u8),
    /// `arr[(i) & 31]`.
    Load(Box<E>),
    /// Addition.
    Add(Box<E>, Box<E>),
    /// Subtraction.
    Sub(Box<E>, Box<E>),
    /// Multiplication (left factor masked to bound products).
    Mul(Box<E>, Box<E>),
    /// `expr & 65535`.
    Mask(Box<E>),
    /// `a < b` (0 or 1).
    Cmp(Box<E>, Box<E>),
    /// Direct helper call.
    Helper(Box<E>),
    /// Indirect helper call through the `hptr` global.
    IHelper(Box<E>),
    /// Guarded division: the divisor is masked and offset so it is never
    /// zero — pure arithmetic, no faults.
    DivG(Box<E>, Box<E>),
    /// Guarded remainder.
    RemG(Box<E>, Box<E>),
    /// Unguarded division: the divisor is an arbitrary subexpression, so a
    /// zero raises a genuine divide error delivered to the fault handler.
    DivU(Box<E>, Box<E>),
    /// Unguarded remainder.
    RemU(Box<E>, Box<E>),
    /// Deep call/return chain: `rec((x) & 31)` recurses up to 31 frames,
    /// overflowing the 16-entry return address stack.
    Rec(Box<E>),
    /// Indirect call through the four-entry function-pointer table.
    TableCall(Box<E>, Box<E>),
}

impl E {
    /// Render to Dyna source.
    pub fn src(&self) -> String {
        match self {
            E::K(k) => format!("({k})"),
            E::V(i) => format!("v{}", i % 4),
            E::G(i) => format!("g{}", i % 2),
            E::Load(i) => format!("arr[({}) & 31]", i.src()),
            E::Add(a, b) => format!("({} + {})", a.src(), b.src()),
            E::Sub(a, b) => format!("({} - {})", a.src(), b.src()),
            E::Mul(a, b) => format!("({} * {})", a.src(), b.src()),
            E::Mask(a) => format!("({} & 65535)", a.src()),
            E::Cmp(a, b) => format!("({} < {})", a.src(), b.src()),
            E::Helper(a) => format!("helper({})", a.src()),
            E::IHelper(a) => format!("icall(hptr, {})", a.src()),
            E::DivG(a, b) => format!("({} / (({} & 15) + 1))", a.src(), b.src()),
            E::RemG(a, b) => format!("({} % (({} & 15) + 1))", a.src(), b.src()),
            E::DivU(a, b) => format!("({} / {})", a.src(), b.src()),
            E::RemU(a, b) => format!("({} % {})", a.src(), b.src()),
            E::Rec(a) => format!("rec(({}) & 31)", a.src()),
            E::TableCall(i, x) => format!("icall(tbl[({}) & 3], {})", i.src(), x.src()),
        }
    }

    /// Number of tree nodes (the shrinker's size metric).
    pub fn nodes(&self) -> usize {
        1 + match self {
            E::K(_) | E::V(_) | E::G(_) => 0,
            E::Load(a) | E::Mask(a) | E::Helper(a) | E::IHelper(a) | E::Rec(a) => a.nodes(),
            E::Add(a, b)
            | E::Sub(a, b)
            | E::Mul(a, b)
            | E::Cmp(a, b)
            | E::DivG(a, b)
            | E::RemG(a, b)
            | E::DivU(a, b)
            | E::RemU(a, b)
            | E::TableCall(a, b) => a.nodes() + b.nodes(),
        }
    }
}

impl S {
    /// Render to Dyna source at the given indentation depth.
    pub fn src(&self, out: &mut String, depth: usize) {
        let pad = "    ".repeat(depth + 1);
        match self {
            S::Assign(v, e) => out.push_str(&format!("{pad}v{} = {};\n", v % 4, e.src())),
            S::Bump(v, up) => out.push_str(&format!(
                "{pad}v{}{};\n",
                v % 4,
                if *up { "++" } else { "--" }
            )),
            S::Store(i, e) => {
                out.push_str(&format!("{pad}arr[({}) & 31] = {};\n", i.src(), e.src()))
            }
            S::Loop(n, body) => {
                let var = format!("l{depth}");
                out.push_str(&format!("{pad}var {var} = 0;\n"));
                out.push_str(&format!("{pad}while ({var} < {}) {{\n", n % 6 + 1));
                for s in body {
                    s.src(out, depth + 1);
                }
                out.push_str(&format!("{pad}    {var}++;\n{pad}}}\n"));
            }
            S::If(c, t, e) => {
                out.push_str(&format!("{pad}if ({}) {{\n", c.src()));
                for s in t {
                    s.src(out, depth + 1);
                }
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in e {
                    s.src(out, depth + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            S::Switch(e, cases) => {
                out.push_str(&format!("{pad}switch (({}) & 3) {{\n", e.src()));
                for (k, body) in cases.iter().enumerate() {
                    out.push_str(&format!("{pad}    case {k} {{\n"));
                    for s in body {
                        s.src(out, depth + 2);
                    }
                    out.push_str(&format!("{pad}    }}\n"));
                }
                out.push_str(&format!("{pad}    default {{ g0 = g0 + 1; }}\n{pad}}}\n"));
            }
            S::CallHelper(e) => out.push_str(&format!("{pad}g1 = helper({});\n", e.src())),
            S::Print(e) => out.push_str(&format!("{pad}print({} & 4095);\n", e.src())),
            S::Patch(val, indirect) => {
                // The six-byte `mov %eax, imm32; ret` patch encoding shared
                // with the SMC workloads: valid for values below 128.
                let word0 = 184 + 256 * u32::from(val % 128);
                out.push_str(&format!("{pad}poke(pp, {word0});\n"));
                out.push_str(&format!(
                    "{pad}poke(pp + 4, {});\n",
                    rio_workloads::smc::RET_WORD
                ));
                if *indirect {
                    out.push_str(&format!("{pad}g1 = (g1 + icall(pp)) & 1048575;\n"));
                } else {
                    out.push_str(&format!("{pad}g1 = (g1 + victim()) & 1048575;\n"));
                }
            }
        }
    }

    /// Number of tree nodes (the shrinker's size metric).
    pub fn nodes(&self) -> usize {
        1 + match self {
            S::Assign(_, e) | S::CallHelper(e) | S::Print(e) => e.nodes(),
            S::Bump(..) | S::Patch(..) => 0,
            S::Store(i, e) => i.nodes() + e.nodes(),
            S::Loop(_, body) => body.iter().map(S::nodes).sum(),
            S::If(c, t, e) => {
                c.nodes()
                    + t.iter().map(S::nodes).sum::<usize>()
                    + e.iter().map(S::nodes).sum::<usize>()
            }
            S::Switch(e, cases) => {
                e.nodes()
                    + cases
                        .iter()
                        .map(|b| b.iter().map(S::nodes).sum::<usize>())
                        .sum::<usize>()
            }
        }
    }
}

/// Generate a random expression of bounded depth.
pub fn gen_expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.chance(1, 3) {
        return match rng.below(3) {
            0 => E::K(rng.range_i32(-50, 50)),
            1 => E::V(rng.below(4) as u8),
            _ => E::G(rng.below(2) as u8),
        };
    }
    let sub = |rng: &mut Rng, d: u32| Box::new(gen_expr(rng, d));
    match rng.below(13) {
        0 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::Add(a, b)
        }
        1 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::Sub(a, b)
        }
        2 => {
            // Mask the left factor to keep products from overflowing too
            // wildly (matches the original generator's shape).
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::Mul(Box::new(E::Mask(a)), b)
        }
        3 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::Cmp(a, b)
        }
        4 => E::Load(sub(rng, depth - 1)),
        5 => E::Helper(sub(rng, depth - 1)),
        6 => E::IHelper(sub(rng, depth - 1)),
        7 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::DivG(a, b)
        }
        8 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            E::RemG(a, b)
        }
        9 => {
            let a = sub(rng, depth - 1);
            let b = sub(rng, depth - 1);
            if rng.flip() {
                E::DivU(a, b)
            } else {
                E::RemU(a, b)
            }
        }
        10 => E::Rec(sub(rng, depth - 1)),
        _ => {
            let i = sub(rng, depth - 1);
            let x = sub(rng, depth - 1);
            E::TableCall(i, x)
        }
    }
}

/// Generate a random statement of bounded nesting depth.
pub fn gen_stmt(rng: &mut Rng, depth: u32) -> S {
    let simple = |rng: &mut Rng| match rng.below(6) {
        0 => S::Assign(rng.below(4) as u8, gen_expr(rng, 3)),
        1 => S::Bump(rng.below(4) as u8, rng.flip()),
        2 => {
            let i = gen_expr(rng, 2);
            let e = gen_expr(rng, 3);
            S::Store(i, e)
        }
        3 => S::CallHelper(gen_expr(rng, 3)),
        4 => S::Print(gen_expr(rng, 3)),
        _ => S::Patch(rng.below(128) as u8, rng.flip()),
    };
    if depth == 0 {
        return simple(rng);
    }
    // 4:1:1:1 weighting of simple vs compound statements.
    match rng.below(7) {
        0..=3 => simple(rng),
        4 => {
            let n = rng.below(6) as u8;
            let body = gen_body(rng, depth - 1);
            S::Loop(n, body)
        }
        5 => {
            let c = gen_expr(rng, 2);
            let t = gen_body(rng, depth - 1);
            let e = gen_body(rng, depth - 1);
            S::If(c, t, e)
        }
        _ => {
            let e = gen_expr(rng, 2);
            let cases = (0..4).map(|_| gen_body(rng, depth - 1)).collect();
            S::Switch(e, cases)
        }
    }
}

/// Generate a short statement list.
pub fn gen_body(rng: &mut Rng, depth: u32) -> Vec<S> {
    (0..1 + rng.below(3))
        .map(|_| gen_stmt(rng, depth))
        .collect()
}

/// A generated program: the seed that produced it plus its statement tree.
#[derive(Clone, Debug)]
pub struct Program {
    /// The seed `generate` was called with.
    pub seed: u64,
    /// Top-level statements of `main`'s body.
    pub stmts: Vec<S>,
}

impl Program {
    /// Deterministically generate the program for a seed.
    pub fn generate(seed: u64) -> Program {
        let mut rng = Rng::new(seed);
        let stmts = (0..2 + rng.below(6))
            .map(|_| gen_stmt(&mut rng, 2))
            .collect();
        Program { seed, stmts }
    }

    /// Render to complete Dyna source.
    pub fn source(&self) -> String {
        render(&self.stmts)
    }

    /// Total statement/expression nodes (the shrinker's size metric).
    pub fn nodes(&self) -> usize {
        self.stmts.iter().map(S::nodes).sum()
    }
}

/// Render a statement list into a complete Dyna program.
///
/// The fixed preamble provides everything generated statements reference: a
/// fault handler (registered first, so unguarded division is always
/// recoverable — and its count/pc checksum is printed, making fault
/// *delivery* part of the differential contract), the direct/indirect
/// helper, the bounded recursion chain, the patchable victim function, and
/// the indirect-call table. The postamble folds locals, globals, and the
/// array into a printed checksum so silent state corruption surfaces in the
/// output even before the register/global digest comparison.
pub fn render(stmts: &[S]) -> String {
    let mut body = String::new();
    for s in stmts {
        s.src(&mut body, 0);
    }
    format!(
        "global g0 = 3; global g1 = 5; global arr[32]; global hptr = 0;
         global pp = 0; global tbl[4];
         global fcnt = 0; global facc = 0;
         fn fh(kind, pc) {{
             fcnt = fcnt + 1;
             facc = (facc + kind * 7 + pc % 251) & 1048575;
             return 0;
         }}
         fn helper(x) {{ return (x & 16383) * 3 - g0; }}
         fn rec(n) {{
             if (n < 1) {{ return g0 & 7; }}
             return (rec(n - 1) + (n & 1023)) & 262143;
         }}
         fn victim() {{
             var a = 1; var b = 2; var c = 3;
             return a + b + c;
         }}
         fn t0(x) {{ return (x & 8191) * 5 + g0; }}
         fn t1(x) {{ return (x ^ 1023) + 7; }}
         fn t2(x) {{ return (x & 4095) - g1; }}
         fn t3(x) {{ return helper(x) + 1; }}
         fn main() {{
             sethandler(&fh);
             hptr = &helper;
             pp = &victim;
             tbl[0] = &t0; tbl[1] = &t1; tbl[2] = &t2; tbl[3] = &t3;
             var v0 = 1; var v1 = 2; var v2 = 3; var v3 = 4;
             var i = 0;
             while (i < 32) {{ arr[i] = i * 7 - 20; i++; }}
{body}
             var chk = (v0 ^ v1) + (v2 ^ v3) + g0 + g1;
             i = 0;
             while (i < 32) {{ chk = chk + arr[i]; i++; }}
             print(chk & 1048575);
             print(fcnt);
             print(facc);
             return chk % 251;
         }}"
    )
}

// ----- single instructions ------------------------------------------------

/// A random 32-bit general register.
fn gen_reg32(rng: &mut Rng) -> Reg {
    *rng.pick(&Reg::GPR32)
}

/// A random 32-bit memory operand: optional base, optional index (never
/// `%esp`, which IA-32 cannot encode as one), any scale, any displacement.
fn gen_memref(rng: &mut Rng) -> MemRef {
    let base = rng.flip().then(|| gen_reg32(rng));
    let index = if rng.flip() {
        Some(gen_reg32(rng)).filter(|&r| r != Reg::Esp)
    } else {
        None
    };
    let scale = *rng.pick(&[1u8, 2, 4, 8]);
    MemRef {
        base,
        index,
        // Scale is meaningless without an index; IA-32 cannot encode it.
        scale: if index.is_some() { scale } else { 1 },
        disp: rng.next_u32() as i32,
        size: OpSize::S32,
    }
}

/// A register or memory operand.
fn gen_rm(rng: &mut Rng) -> Opnd {
    if rng.flip() {
        Opnd::Reg(gen_reg32(rng))
    } else {
        Opnd::Mem(gen_memref(rng))
    }
}

/// Two-operand forms, each drawn as `r/m, reg`, `reg, r/m` or `r/m, imm32`.
const BINARY: [fn(Opnd, Opnd) -> Instr; 7] = [
    create::mov,
    create::add,
    create::sub,
    create::adc,
    create::and,
    create::xor,
    create::cmp,
];

/// One-operand `r/m` forms.
const UNARY: [fn(Opnd) -> Instr; 5] = [
    create::inc,
    create::dec,
    create::neg,
    create::not,
    create::idiv,
];

/// Shifts and rotates by an immediate count.
const SHIFTS: [fn(Opnd, Opnd) -> Instr; 4] = [create::shl, create::sar, create::rol, create::ror];

/// One random instruction over 32-bit operands: moves and ALU operations
/// in every operand shape, unary operations, shifts and rotates,
/// multiplies, division, stack operations, `setcc`, `lea`, `cmov`, `bt`,
/// `bswap`, `nop`, `cdq` and `ret` — the only control transfer, so a
/// caller wanting straight-line code drops it.
pub fn gen_instr(rng: &mut Rng) -> Instr {
    let reg = |rng: &mut Rng| Opnd::Reg(gen_reg32(rng));
    let imm32 = |rng: &mut Rng| Opnd::imm32(rng.next_u32() as i32);
    let cc = |rng: &mut Rng| Cc::from_code(rng.below(16) as u8);
    match rng.below(20) {
        0..=8 => {
            let op = rng.pick(&BINARY);
            match rng.below(3) {
                0 => op(gen_rm(rng), reg(rng)),
                1 => op(reg(rng), gen_rm(rng)),
                _ => op(gen_rm(rng), imm32(rng)),
            }
        }
        9 => create::test(gen_rm(rng), reg(rng)),
        10 => rng.pick(&UNARY)(gen_rm(rng)),
        11 => rng.pick(&SHIFTS)(gen_rm(rng), Opnd::imm8(1 + rng.below(31) as i8)),
        12 => create::imul(gen_reg32(rng), gen_rm(rng)),
        13 => create::imul3(gen_reg32(rng), gen_rm(rng), imm32(rng)),
        14 => match rng.below(3) {
            0 => create::push(reg(rng)),
            1 => create::pop(reg(rng)),
            _ => create::push(imm32(rng)),
        },
        15 => create::setcc(cc(rng), Opnd::reg(Reg::Al)),
        16 => create::lea(gen_reg32(rng), gen_memref(rng)),
        17 => create::cmov(cc(rng), gen_reg32(rng), gen_rm(rng)),
        18 if rng.flip() => create::bt(gen_rm(rng), reg(rng)),
        18 => create::bswap(gen_reg32(rng)),
        _ => rng
            .pick(&[create::nop(), create::cdq(), create::ret()])
            .clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Program::generate(0xDEAD_BEEF);
        let b = Program::generate(0xDEAD_BEEF);
        assert_eq!(a.stmts, b.stmts);
        assert_eq!(a.source(), b.source());
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|s| Program::generate(s).source()).collect();
        assert!(
            distinct.len() > 28,
            "only {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn every_generated_program_compiles() {
        for seed in 0..64 {
            let p = Program::generate(seed);
            rio_workloads::compile(&p.source())
                .unwrap_or_else(|e| panic!("seed {seed} failed to compile: {e}\n{}", p.source()));
        }
    }

    #[test]
    fn new_constructs_appear_across_seeds() {
        // Over a modest seed range the generator must actually exercise the
        // new constructs (division, poke patches, recursion, call tables).
        let all: String = (0..64).map(|s| Program::generate(s).source()).collect();
        for needle in ["poke(pp", " / ", " % ", "rec((", "icall(tbl["] {
            assert!(all.contains(needle), "missing construct {needle:?}");
        }
    }

    #[test]
    fn node_count_matches_structure() {
        let p = Program {
            seed: 0,
            stmts: vec![
                S::Assign(0, E::Add(Box::new(E::K(1)), Box::new(E::V(0)))),
                S::Bump(1, true),
            ],
        };
        // Assign(1) + Add(1) + K(1) + V(1) = 4, Bump = 1.
        assert_eq!(p.nodes(), 5);
    }
}
