//! Table 2 reproduction: average time and memory to decode and then encode
//! the basic blocks of the benchmark suite at each level of instruction
//! representation.
//!
//! Paper values (IA-32, 2003 hardware): Level 0 = 2.12 µs / 64 B rising to
//! Level 4 = 61.79 µs / 791 B. Absolute numbers differ on modern hardware
//! and a different implementation; the *shape* — monotonically increasing
//! cost, a big jump from Level 0 to 1 (per-instruction structures), a small
//! step from 1 to 2 (opcode only), a moderate step to 3 (operands), and the
//! largest jump to 4 (full re-encode) — is the reproduction target.

use std::time::Instant;

use rio_bench::{run_parallel, Args};
use rio_ia32::encode::encode_list;
use rio_ia32::{decode_sizeof, InstrList, Level};
use rio_sim::Image;
use rio_workloads::{compiled, suite_scaled};

/// Collect the byte ranges of every static basic block in an image.
fn block_ranges(code: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut off = 0usize;
    while off < code.len() {
        let Ok(len) = decode_sizeof(&code[off..]) else {
            break;
        };
        let (op, _) = match rio_ia32::decode::decode_opcode(&code[off..]) {
            Ok(x) => x,
            Err(_) => break,
        };
        off += len as usize;
        if op.is_cti() || op.is_halt() || matches!(op, rio_ia32::Opcode::Int) {
            out.push((start, off));
            start = off;
        }
    }
    if start < off {
        out.push((start, off));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = Args::parse(&args, &["--jobs"], &[], 0).and_then(|a| a.jobs());
    let jobs = jobs.unwrap_or_else(|e| {
        eprintln!("table2: {e}");
        std::process::exit(2)
    });
    // Harvest a basic-block corpus from every benchmark binary. Compiling
    // and slicing runs on the worker pool; the timing loop below stays
    // strictly serial so wall-clock numbers are not skewed by contention.
    let suite = suite_scaled(1);
    let blocks: Vec<Vec<u8>> = run_parallel(&suite, jobs, |_, b| {
        let image = compiled(b);
        block_ranges(&image.code)
            .into_iter()
            .map(|(s, e)| image.code[s..e].to_vec())
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let nblocks = blocks.len();
    assert!(nblocks > 100, "corpus too small");

    println!("Table 2: average time and memory to decode then encode one basic block");
    println!("({nblocks} static blocks from the benchmark suite)");
    println!(
        "{:<6} {:>12} {:>16}",
        "Level", "Time (ns)", "Memory (bytes)"
    );

    // Enough repetitions for stable wall-clock numbers.
    let reps = 2000 / (nblocks / 256).max(1);

    for level in [Level::L0, Level::L1, Level::L2, Level::L3, Level::L4] {
        let mut mem_total = 0usize;
        // Warm-up + memory measurement pass.
        for bytes in &blocks {
            let il = decode_at(bytes, level);
            mem_total += il.memory_bytes();
        }
        let start = Instant::now();
        for _ in 0..reps {
            for bytes in &blocks {
                let il = decode_at(bytes, level);
                let encoded = encode_list(&il, Image::CODE_BASE).expect("encodes");
                std::hint::black_box(encoded.bytes.len());
            }
        }
        let elapsed = start.elapsed();
        let ns = elapsed.as_nanos() as f64 / (reps * nblocks) as f64;
        let mem = mem_total as f64 / nblocks as f64;
        println!("{:<6} {:>12.1} {:>16.1}", level_name(level), ns, mem);
    }
}

fn level_name(level: Level) -> &'static str {
    match level {
        Level::L0 => "0",
        Level::L1 => "1",
        Level::L2 => "2",
        Level::L3 => "3",
        Level::L4 => "4",
    }
}

/// Decode a block at the given level; Level 4 is Level 3 with raw bits
/// invalidated (every instruction must be re-encoded from operands).
fn decode_at(bytes: &[u8], level: Level) -> InstrList {
    match level {
        Level::L4 => {
            let mut il =
                InstrList::decode_block(bytes, Image::CODE_BASE, Level::L3).expect("decodes");
            let ids: Vec<_> = il.ids().collect();
            for id in ids {
                il.get_mut(id).invalidate_raw();
            }
            il
        }
        lv => InstrList::decode_block(bytes, Image::CODE_BASE, lv).expect("decodes"),
    }
}
