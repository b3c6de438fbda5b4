//! Quickstart: compile a Dyna program, run it natively and under the RIO
//! engine, and show that results match while the engine reports its cache
//! activity.

use rio_core::{check_transparent, NullClient, Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::compile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = compile(
        "fn collatz_len(n) {
             var steps = 0;
             while (n != 1) {
                 if (n & 1) { n = 3 * n + 1; }
                 else { n = n / 2; }
                 steps++;
             }
             return steps;
         }
         fn main() {
             var longest = 0;
             var i = 1;
             while (i <= 300) {
                 var l = collatz_len(i);
                 if (l > longest) { longest = l; }
                 i++;
             }
             print(longest);
             return longest;
         }",
    )?;

    let native = run_native(&image, CpuKind::Pentium4);
    println!("native:    {}", native.counters);

    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let r = rio.run();
    // Output, exit code and final application state must match native.
    check_transparent(&native, &r)?;
    println!(
        "under RIO: exit={} output={:?}, as natively",
        r.exit_code,
        r.app_output.trim()
    );
    println!("           {}", r.counters);
    println!("engine:    {}", r.stats);
    println!(
        "\nnormalized execution time: {:.3}",
        r.counters.cycles as f64 / native.counters.cycles as f64
    );
    Ok(())
}
