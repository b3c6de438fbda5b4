//! A fixed host-speed probe that uses none of the repository's code.
//!
//! A shared 2-CPU host drifts in speed by up to 1.6x over minutes, which
//! no amount of repetition inside one run removes. Each run therefore times
//! this probe throughout its passes ([`tick`] after every timed run, at
//! most once per [`INTERVAL`]) and scales its host times to a reference
//! speed: a time `t` is reported as `t * REFERENCE_S / median(probe)`. The
//! probe is a tiny register-machine interpreter, branchy and cache-resident
//! like the simulator's inner loop, so it slows down with the host in much
//! the same way; it cannot get faster or slower with the code under test.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time, in seconds, at the reference host speed.
pub const REFERENCE_S: f64 = 0.001;

/// Least time between two probes (a probe takes about 1 ms).
const INTERVAL: Duration = Duration::from_millis(100);

thread_local! {
    static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
    static SAMPLES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Time the probe if [`INTERVAL`] has passed since the last one.
pub fn tick() {
    if LAST.get().is_some_and(|t| t.elapsed() < INTERVAL) {
        return;
    }
    let s = probe();
    SAMPLES.with(|v| v.borrow_mut().push(s));
    LAST.set(Some(Instant::now()));
}

/// Median probe time so far, and the number of probes.
pub fn median() -> (f64, usize) {
    SAMPLES.with(|v| {
        let v = v.borrow();
        (crate::median(&v), v.len())
    })
}

/// Seconds one run of the probe takes on this host right now.
fn probe() -> f64 {
    // (opcode, a, b) triples of a fixed loop body.
    let code: [(u8, usize, usize); 12] = black_box([
        (0, 0, 1),
        (1, 2, 0),
        (2, 3, 2),
        (3, 3, 1),
        (4, 4, 3),
        (0, 5, 4),
        (1, 6, 5),
        (2, 7, 6),
        (5, 0, 7),
        (3, 1, 0),
        (4, 2, 7),
        (5, 6, 3),
    ]);
    let mut regs = black_box([1u32, 2, 3, 4, 5, 6, 7, 8]);
    let mut mem = [0u32; 256];
    let t = Instant::now();
    for i in 0..20_000u32 {
        for &(op, a, b) in &code {
            regs[a] = match op {
                0 => regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^ regs[b].rotate_left(3),
                2 => mem[(regs[b] & 255) as usize],
                3 => {
                    mem[(regs[a] & 255) as usize] = regs[b];
                    regs[a].wrapping_sub(i)
                }
                4 if regs[b] & 1 == 0 => regs[a] >> 1,
                4 => regs[a].wrapping_mul(3),
                _ => regs[a].wrapping_add(regs[b] >> 2),
            };
        }
    }
    black_box(&regs);
    t.elapsed().as_secs_f64()
}
