//! §4.3: adaptive indirect branch dispatch. Traces containing indirect
//! branches profile their targets through a clean call and rewrite
//! themselves (decode_fragment / replace_fragment) to test the hottest
//! targets with flag-free compares before falling back to the hashtable
//! lookup.

use rio_clients::{ClientKind, IbDispatch};
use rio_core::{check_transparent, Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::{benchmark, compile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = benchmark("eon").expect("eon exists");
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
        "base RIO:       {:.3}x native, {} hashtable lookups",
        base.counters.cycles as f64 / native.counters.cycles as f64,
        base.stats.ib_lookups
    );

    let mut rio = Rio::new(
        &image,
        Options::full(),
        CpuKind::Pentium4,
        IbDispatch::new(),
    );
    let r = rio.run();
    check_transparent(&native, &r)?;
    println!(
        "with dispatch:  {:.3}x native, {} hashtable lookups",
        r.counters.cycles as f64 / native.counters.cycles as f64,
        r.stats.ib_lookups
    );
    println!("client: {}", r.client_output.trim());
    println!(
        "fragment replacements performed by the engine: {}",
        r.stats.replacements
    );
    Ok(())
}
