//! §4.2: architecture-specific strength reduction. The same client binary
//! converts `inc`/`dec` on the Pentium 4 model and leaves them alone on the
//! Pentium 3 — "tailoring the program to the actual processor it is running
//! on".

use rio_clients::Inc2Add;
use rio_core::{check_transparent, Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::compile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = compile(
        "global checksum = 0;
         fn main() {
             var i = 0;
             while (i < 20000) {
                 checksum = (checksum + i * 7) % 100003;
                 i++;
             }
             print(checksum);
             return checksum % 251;
         }",
    )?;

    for kind in [CpuKind::Pentium3, CpuKind::Pentium4] {
        let native = run_native(&image, kind);
        let mut rio = Rio::new(&image, Options::full(), kind, Inc2Add::new());
        let r = rio.run();
        check_transparent(&native, &r)?;
        println!("{kind:?}:");
        println!("  client says: {}", r.client_output.trim());
        println!(
            "  normalized time {:.3}  (examined {}, converted {})",
            r.counters.cycles as f64 / native.counters.cycles as f64,
            rio.client.num_examined,
            rio.client.num_converted
        );
    }
    Ok(())
}
