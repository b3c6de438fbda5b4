//! Compiler correctness: Dyna programs produce the right results when run
//! natively. That they run identically under the engine is checked in
//! `tests/tests/pipeline.rs`.

use rio_sim::{run_native, CpuKind};
use rio_workloads::{compile, CompileError};

fn run(src: &str) -> (i32, String) {
    let image = compile(src).expect("compiles");
    let r = run_native(&image, CpuKind::Pentium4);
    (r.exit_code, r.output)
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run("fn main() { return 1 + 2 * 3; }").0, 7);
    assert_eq!(run("fn main() { return (1 + 2) * 3; }").0, 9);
    assert_eq!(run("fn main() { return 10 - 3 - 2; }").0, 5);
    assert_eq!(run("fn main() { return 100 / 7; }").0, 14);
    assert_eq!(run("fn main() { return 100 % 7; }").0, 2);
    assert_eq!(run("fn main() { return -100 / 7; }").0, -14);
    assert_eq!(run("fn main() { return -100 % 7; }").0, -2);
    assert_eq!(run("fn main() { return 1 << 10; }").0, 1024);
    assert_eq!(run("fn main() { return -16 >> 2; }").0, -4);
    assert_eq!(run("fn main() { return 12 & 10; }").0, 8);
    assert_eq!(run("fn main() { return 12 | 10; }").0, 14);
    assert_eq!(run("fn main() { return 12 ^ 10; }").0, 6);
    assert_eq!(run("fn main() { return -(5); }").0, -5);
    assert_eq!(run("fn main() { return !0 + !7; }").0, 1);
}

#[test]
fn comparisons_yield_zero_or_one() {
    assert_eq!(run("fn main() { return (3 < 5) + (5 < 3); }").0, 1);
    assert_eq!(run("fn main() { return (3 <= 3) + (3 >= 4); }").0, 1);
    assert_eq!(run("fn main() { return (3 == 3) + (3 != 3); }").0, 1);
    assert_eq!(run("fn main() { return (-1 < 1); }").0, 1); // signed compare
    assert_eq!(run("fn main() { return (5 > 2) * 10; }").0, 10);
}

#[test]
fn variables_and_assignment() {
    assert_eq!(
        run("fn main() { var x = 3; var y = 4; x = x * y; return x + y; }").0,
        16
    );
    assert_eq!(
        run("fn main() { var x = 10; x++; x++; x--; return x; }").0,
        11
    );
}

#[test]
fn while_loops() {
    assert_eq!(
        run("fn main() { var s = 0; var i = 1; while (i <= 100) { s = s + i; i++; } return s; }").0,
        5050
    );
    // Nested loops.
    assert_eq!(
        run("fn main() {
            var s = 0; var i = 0;
            while (i < 10) {
                var j = 0;
                while (j < 10) { s++; j++; }
                i++;
            }
            return s;
        }")
        .0,
        100
    );
}

#[test]
fn if_else_chains() {
    let src = "fn classify(x) {
        if (x < 0) { return 0 - 1; }
        else if (x == 0) { return 0; }
        else { return 1; }
    }
    fn main() { return classify(0-5) * 100 + classify(0) * 10 + classify(9); }";
    assert_eq!(run(src).0, -99); // -1*100 + 0 + 1
}

#[test]
fn functions_and_recursion() {
    assert_eq!(
        run("fn add(a, b) { return a + b; } fn main() { return add(40, 2); }").0,
        42
    );
    assert_eq!(
        run(
            "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             fn main() { return fib(15); }"
        )
        .0,
        610
    );
    assert_eq!(
        run(
            "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             fn main() { return fact(10); }"
        )
        .0,
        3628800
    );
}

#[test]
fn globals_and_arrays() {
    assert_eq!(
        run("global g = 7; fn main() { g = g * 6; return g; }").0,
        42
    );
    assert_eq!(
        run("global a[10];
             fn main() {
                 var i = 0;
                 while (i < 10) { a[i] = i * i; i++; }
                 var s = 0;
                 i = 0;
                 while (i < 10) { s = s + a[i]; i++; }
                 return s;
             }")
        .0,
        285
    );
}

#[test]
fn print_output() {
    let (code, out) = run("fn main() { print(42); print(0-7); printc(33); return 0; }");
    assert_eq!(code, 0);
    assert_eq!(out, "42\n-7\n!");
}

#[test]
fn dense_switch_uses_jump_table() {
    let src = "fn pick(x) {
        switch (x) {
            case 0 { return 10; }
            case 1 { return 20; }
            case 2 { return 30; }
            case 3 { return 40; }
            default { return 99; }
        }
    }
    fn main() { return pick(0) + pick(1) + pick(2) + pick(3) + pick(7) + pick(0-1); }";
    let image = compile(src).unwrap();
    // A dense switch must contain an indirect jump (ff 24 85 = jmp *disp(,eax,4)).
    assert!(
        image.code.windows(3).any(|w| w == [0xFF, 0x24, 0x85]),
        "expected a jump table"
    );
    assert_eq!(run(src).0, 10 + 20 + 30 + 40 + 99 + 99);
}

#[test]
fn sparse_switch_uses_compare_chain() {
    let src = "fn pick(x) {
        switch (x) {
            case 0 { return 1; }
            case 1000 { return 2; }
            default { return 3; }
        }
    }
    fn main() { return pick(0) * 100 + pick(1000) * 10 + pick(5); }";
    let image = compile(src).unwrap();
    assert!(
        !image.code.windows(3).any(|w| w == [0xFF, 0x24, 0x85]),
        "sparse switch should not build a table"
    );
    assert_eq!(run(src).0, 123);
}

#[test]
fn function_pointers_and_icall() {
    let src = "fn double(x) { return x * 2; }
        fn triple(x) { return x * 3; }
        fn main() {
            var p = &double;
            var q = &triple;
            return icall(p, 10) + icall(q, 10);
        }";
    assert_eq!(run(src).0, 50);
}

#[test]
fn function_pointer_tables_dispatch() {
    let src = "global ops[4];
        fn op0(x) { return x + 1; }
        fn op1(x) { return x * 2; }
        fn op2(x) { return x - 3; }
        fn op3(x) { return x / 2; }
        fn main() {
            ops[0] = &op0; ops[1] = &op1; ops[2] = &op2; ops[3] = &op3;
            var acc = 100;
            var i = 0;
            while (i < 8) {
                acc = icall(ops[i % 4], acc);
                i++;
            }
            return acc;
        }";
    // 100 ->101 ->202 ->199 ->99 ->100 ->200 ->197 ->98
    assert_eq!(run(src).0, 98);
}

#[test]
fn signed_wrapping_arithmetic() {
    assert_eq!(
        run("fn main() { return 2147483647 + 1 == (0 - 2147483647) - 1; }").0,
        1
    );
    assert_eq!(
        run("fn main() { var x = 65535; return x * x; }").0,
        (65535i64 * 65535) as i32
    );
}

#[test]
fn compile_errors_are_reported() {
    assert!(matches!(
        compile("fn main() { return x; }"),
        Err(CompileError::UnknownVar { .. })
    ));
    assert!(matches!(
        compile("fn main() { return f(1); }"),
        Err(CompileError::UnknownFunction(_))
    ));
    assert!(matches!(
        compile("fn f(a, b) { return a; } fn main() { return f(1); }"),
        Err(CompileError::Arity {
            expected: 2,
            got: 1,
            ..
        })
    ));
    assert!(matches!(
        compile("fn f() { return 0; } fn f() { return 1; } fn main() { return 0; }"),
        Err(CompileError::Duplicate(_))
    ));
    assert!(matches!(
        compile("fn f() { return 0; }"),
        Err(CompileError::NoMain)
    ));
    assert!(matches!(
        compile("fn main() { return 1 + ; }"),
        Err(CompileError::Parse(_))
    ));
}

#[test]
fn short_circuit_logic() {
    // Values and truth table.
    assert_eq!(
        run("fn main() { return (1 && 2) + (0 && 1) * 10 + (1 || 0) * 100 + (0 || 0) * 1000; }").0,
        101
    );
    // Short-circuit: the right side must not run when skipped.
    let (code, out) = run("global hits = 0;
         fn effect() { hits++; return 1; }
         fn main() {
             var a = 0 && effect();   // effect not called
             var b = 1 || effect();   // effect not called
             var c = 1 && effect();   // called
             var d = 0 || effect();   // called
             print(hits);
             return a + b * 10 + c * 100 + d * 1000;
         }");
    assert_eq!(out, "2\n");
    assert_eq!(code, 1110);
}

#[test]
fn logic_precedence_is_lowest() {
    assert_eq!(run("fn main() { return 1 + 1 && 1; }").0, 1); // (1+1) && 1
    assert_eq!(run("fn main() { return 0 * 5 || 3 > 2; }").0, 1);
    assert_eq!(run("fn main() { return 1 && 0 || 1; }").0, 1); // (1&&0) || 1
}

#[test]
fn break_and_continue() {
    // break exits the innermost loop only.
    assert_eq!(
        run("fn main() {
            var s = 0; var i = 0;
            while (i < 100) {
                if (i == 10) { break; }
                s = s + i;
                i++;
            }
            return s;
        }")
        .0,
        45
    );
    // continue skips the rest of the body (and still advances via the
    // statement before it).
    assert_eq!(
        run("fn main() {
            var s = 0; var i = 0;
            while (i < 10) {
                i++;
                if (i & 1) { continue; }
                s = s + i;
            }
            return s;
        }")
        .0,
        2 + 4 + 6 + 8 + 10
    );
    // Nested: break/continue bind to the inner loop.
    assert_eq!(
        run("fn main() {
            var hits = 0; var i = 0;
            while (i < 5) {
                var j = 0;
                while (j < 10) {
                    j++;
                    if (j == 3) { continue; }
                    if (j == 6) { break; }
                    hits++;
                }
                i++;
            }
            return hits;
        }")
        .0,
        5 * 4 // j = 1,2,4,5 per outer iteration
    );
}

#[test]
fn stray_break_is_a_compile_error() {
    assert!(matches!(
        compile("fn main() { break; return 0; }"),
        Err(CompileError::StrayLoopControl { what: "break", .. })
    ));
    assert!(matches!(
        compile("fn main() { continue; return 0; }"),
        Err(CompileError::StrayLoopControl {
            what: "continue",
            ..
        })
    ));
}
