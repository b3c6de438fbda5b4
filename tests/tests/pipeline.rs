//! End-to-end pipeline properties: compiled Dyna programs must agree with
//! a Rust-side reference evaluator and run identically natively and in
//! every engine configuration of the fuzz oracle.

use rio_tests::{assert_transparent, Rng};
use rio_workloads::compile;

/// A binary operator of the reference expressions.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Sub,
    Mul,
    And,
    Xor,
    Lt,
}

impl Op {
    fn apply(self, x: i32, y: i32) -> i32 {
        match self {
            Op::Add => x.wrapping_add(y),
            Op::Sub => x.wrapping_sub(y),
            Op::Mul => x.wrapping_mul(y),
            Op::And => x & y,
            Op::Xor => x ^ y,
            Op::Lt => (x < y) as i32,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::And => "&",
            Op::Xor => "^",
            Op::Lt => "<",
        }
    }
}

/// A random arithmetic expression over variables `a`, `b`, `c` that avoids
/// division (no trap risk) and is cheap to evaluate in Rust.
#[derive(Clone, Debug)]
enum E {
    A,
    B,
    C,
    K(i32),
    Bin(Op, Box<E>, Box<E>),
    Shl(Box<E>),
}

impl E {
    fn eval(&self, a: i32, b: i32, c: i32) -> i32 {
        match self {
            E::A => a,
            E::B => b,
            E::C => c,
            E::K(k) => *k,
            E::Bin(op, x, y) => op.apply(x.eval(a, b, c), y.eval(a, b, c)),
            E::Shl(x) => x.eval(a, b, c).wrapping_shl(3),
        }
    }

    fn to_src(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::C => "c".into(),
            E::K(k) => {
                if *k < 0 {
                    format!("(0 - {})", (*k as i64).unsigned_abs().min(i32::MAX as u64))
                } else {
                    format!("{k}")
                }
            }
            E::Bin(op, x, y) => format!("({} {} {})", x.to_src(), op.symbol(), y.to_src()),
            E::Shl(x) => format!("({} << 3)", x.to_src()),
        }
    }
}

/// Generate a random expression with bounded depth.
fn gen_expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.chance(1, 4) {
        return match rng.below(4) {
            0 => E::A,
            1 => E::B,
            2 => E::C,
            _ => E::K(rng.range_i32(-1000, 1000)),
        };
    }
    let sub = |rng: &mut Rng| Box::new(gen_expr(rng, depth - 1));
    match rng.below(7) {
        5 => E::Shl(sub(rng)),
        k => {
            let op = [Op::Add, Op::Sub, Op::Mul, Op::And, Op::Xor, Op::Lt][k.min(5)];
            let x = sub(rng);
            E::Bin(op, x, sub(rng))
        }
    }
}

/// Reference evaluator == native simulation == every engine configuration,
/// for a loop accumulating a random expression.
#[test]
fn random_programs_agree_three_ways() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x9_1000 + case);
        let e = gen_expr(&mut rng, 4);
        let a0 = rng.range_i32(-100, 100);
        let b0 = rng.range_i32(-100, 100);
        let iters = rng.range_i32(5, 60);

        // Reference result in Rust (wrapping semantics).
        let mut acc = 0i32;
        let mut c = 0i32;
        while c < iters {
            acc = acc.wrapping_add(e.eval(a0, b0, c)) & 0x0FFF_FFFF;
            c += 1;
        }
        let expected = acc.rem_euclid(251);

        let src = format!(
            "fn main() {{
                 var a = {a0};
                 var b = {b0};
                 var acc = 0;
                 var c = 0;
                 while (c < {iters}) {{
                     acc = (acc + {expr}) & 268435455;
                     c++;
                 }}
                 var m = acc % 251;
                 if (m < 0) {{ m = m + 251; }}
                 print(m);
                 return m;
             }}",
            expr = e.to_src()
        );
        let image = compile(&src).expect("random program compiles");
        let summary = assert_transparent(&image);
        assert_eq!(
            summary.exit_code, expected,
            "case {case}: vs reference\n{src}"
        );
    }
}

/// Final architectural state — registers and globals, through the oracle's
/// state digest — matches between native and engine execution, not just
/// the exit code.
#[test]
fn final_machine_state_matches() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0xF1_2000 + case);
        let seed = rng.range_i32(0, 2000);
        let src = format!(
            "fn mix(x) {{ return (x * 1103515 + {seed}) & 2147483647; }}
             fn main() {{
                 var s = {seed};
                 var i = 0;
                 while (i < 40) {{ s = mix(s) % 65536 + i; i++; }}
                 return s % 251;
             }}"
        );
        assert_transparent(&compile(&src).expect("compiles"));
    }
}

/// Loops, recursion, output, global arrays and a dense switch compile to
/// code that runs identically natively and under the engine.
#[test]
fn compiled_programs_run_identically_under_rio() {
    let srcs = [
        "fn main() { var s = 0; var i = 1; while (i <= 200) { s = s + i * i; i++; } return s % 100000; }",
        "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
         fn main() { print(fib(12)); return 0; }",
        "global t[8];
         fn h(x) { return x * 17 + 3; }
         fn main() {
             var i = 0;
             while (i < 8) { t[i] = h(i); i++; }
             var s = 0;
             i = 0;
             while (i < 8) {
                 switch (t[i] % 4) {
                     case 0 { s = s + 1; }
                     case 1 { s = s + 10; }
                     case 2 { s = s + 100; }
                     case 3 { s = s + 1000; }
                 }
                 i++;
             }
             print(s);
             return s % 251;
         }",
    ];
    for src in srcs {
        assert_transparent(&compile(src).unwrap());
    }
}
