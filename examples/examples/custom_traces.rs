//! §4.4: custom call-inlining traces. Call-site blocks become trace heads,
//! traces end one block after a return, and inlined return checks are
//! removed entirely under the calling-convention assumption.

use rio_clients::{CTrace, ClientKind};
use rio_core::{Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{benchmark, compile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = benchmark("vortex").expect("vortex exists");
    println!("workload: {} ({})\n", b.name, b.character);
    let image = compile(&b.source)?;
    let native = run_native(&image, CpuKind::Pentium4);

    let base = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        ClientKind::Null.build(),
    )
    .run();
    println!(
        "standard traces: {:.3}x native, {} ib lookups",
        base.counters.cycles as f64 / native.counters.cycles as f64,
        base.stats.ib_lookups
    );

    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, CTrace::new());
    let r = rio.run();
    assert_eq!(r.exit_code, native.exit_code);
    println!(
        "custom traces:   {:.3}x native, {} ib lookups",
        r.counters.cycles as f64 / native.counters.cycles as f64,
        r.stats.ib_lookups
    );
    println!("client: {}", r.client_output.trim());
    Ok(())
}
