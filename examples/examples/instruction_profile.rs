//! Instrumentation, not optimization (the abstract's "the interface is not
//! restricted to optimization"): exact inline instruction counting, block
//! execution profiling, and a static opcode histogram.

use rio_clients::{BbProfile, InsCount, OpStats};
use rio_core::{check_transparent, Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{benchmark, compile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = benchmark("crafty").expect("crafty exists");
    let image = compile(&b.source)?;
    let native = run_native(&image, CpuKind::Pentium4);

    // Exact inline counting (block-level instrumentation).
    let mut rio = Rio::new(
        &image,
        Options::with_indirect_links(),
        CpuKind::Pentium4,
        InsCount::new(),
    );
    check_transparent(&native, &rio.run())?;
    println!(
        "inscount: {} (simulator says {})",
        rio.client.executed, native.counters.instructions
    );
    assert_eq!(rio.client.executed, native.counters.instructions);

    // Hottest blocks via clean calls.
    let mut rio = Rio::new(
        &image,
        Options::with_indirect_links(),
        CpuKind::Pentium4,
        BbProfile::new(5),
    );
    let r = rio.run();
    check_transparent(&native, &r)?;
    println!("\n{}", r.client_output.trim());

    // Static opcode histogram.
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, OpStats::new());
    let r = rio.run();
    check_transparent(&native, &r)?;
    println!("\n{}", r.client_output.trim());
    Ok(())
}
