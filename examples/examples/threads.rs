//! Thread-private code caches (paper §2): "in most multi-threaded
//! applications, very little code was shared between threads, so the cost of
//! duplicating the small amount that was shared for each thread was far
//! outweighed by the savings of not having to synchronize changes in the
//! cache with all the running threads."
//!
//! Three cooperative threads run the same shared helper; each thread's
//! private cache builds its own copy, and no cross-thread synchronization
//! exists anywhere in the engine.

use rio_core::{NullClient, Options, Rio};
use rio_sim::{run_native, CpuKind};
use rio_workloads::compile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = compile(
        "global total = 0;
         fn work(seed) {
             var x = seed;
             var i = 0;
             while (i < 200) {
                 x = (x * 1103515 + 12345) & 2147483647;
                 total = total + x % 10;
                 if (i % 20 == 19) { yield(); }
                 i++;
             }
             return x;
         }
         fn worker() { work(777); texit(); return 0; }
         fn main() {
             var t1 = spawn(&worker);
             var t2 = spawn(&worker);
             work(42);
             var spin = 0;
             while (spin < 100) { yield(); spin++; }
             print(total);
             return (t1 + t2) % 251;
         }",
    )?;

    let native = run_native(&image, CpuKind::Pentium4);
    // Emulation schedules threads through the same simulated OS.
    let emulated = Rio::new(&image, Options::emulation(), CpuKind::Pentium4, NullClient).run();
    assert_eq!(emulated.exit_code, native.exit_code);
    assert_eq!(emulated.app_output, native.output);
    let mut rio = Rio::new(&image, Options::full(), CpuKind::Pentium4, NullClient);
    let r = rio.run();
    assert_eq!(r.exit_code, native.exit_code);
    assert_eq!(r.app_output, native.output);

    println!("program output: {}", r.app_output.trim());
    println!(
        "threads: {} (ids returned: exit code {})",
        rio.core.thread_count(),
        r.exit_code
    );
    for t in 0..rio.core.thread_count() {
        let cache = rio.core.thread_cache(t);
        let (start, end) = cache.region();
        println!(
            "  thread {t}: private cache {:#x}..{:#x}, {} fragments",
            start,
            end,
            cache.len()
        );
    }
    println!(
        "\nthe shared `work` function was translated once per thread — \
         duplication instead of synchronization, as §2 measures."
    );
    Ok(())
}
