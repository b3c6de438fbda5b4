//! Layer probes for the traced run. Each probe calls one crate's public API
//! in a loop, inside spans, over the code the workload actually ran: the
//! basic blocks the engine built for its inputs.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rio_core::build::decode_bb;
use rio_core::cache::CodeCache;
use rio_core::emit::emit_fragment;
use rio_core::mangle::mangle_bb;
use rio_core::{FragmentKind, NullClient, Options, Rio};
use rio_ia32::encode::encode_list;
use rio_ia32::{
    create, decode_instr, decode_opcode, decode_sizeof, encode_instr, Cc, InstrList, Level, MemRef,
    OpSize, Opnd, Reg, Target,
};
use rio_sim::{Image, Machine, Memory};

use crate::trace;
use crate::workload::{Input, CPU};

/// Time spent repeating each workload-wide probe.
const BUDGET: Duration = Duration::from_millis(200);
/// Fewest rounds of any probe.
const MIN_ROUNDS: u32 = 5;
/// Rounds of each per-input probe.
const INPUT_ROUNDS: u32 = 3;
/// Interpreter steps per round of a `sim.step` probe.
const STEPS: u64 = 100_000;

/// The Figure 2 block: seven instructions of mixed complexity (the block
/// the `micro` bench and Table 2 use).
const FIG2: &[u8] = &[
    0x8d, 0x34, 0x01, 0x8b, 0x46, 0x0c, 0x2b, 0x46, 0x1c, 0x0f, 0xb7, 0x4e, 0x08, 0xc1, 0xe1, 0x07,
    0x3b, 0xc1, 0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00,
];

/// Repeat `f`, one span of `work` units per round, for [`BUDGET`] and at
/// least [`MIN_ROUNDS`] rounds.
fn repeat(name: &str, work: u64, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < BUDGET {
        trace::span(name, work, &mut f);
        rounds += 1;
    }
}

/// A basic block the engine built: its tag and original application bytes.
struct Block {
    tag: u32,
    bytes: Vec<u8>,
    instrs: u64,
}

/// Run every probe over `inputs`. Returns the fragments evicted under the
/// oracle's bounded-cache configuration (2 KiB sub-caches), summed over the
/// fuzz inputs; 0 on the suites.
pub fn run(inputs: &[Input], fuzz: bool) -> u64 {
    let mut evictions = 0;
    let built: Vec<Vec<Block>> = inputs
        .iter()
        .map(|input| {
            if fuzz {
                evictions += bounded_evictions(&input.image);
            }
            engine_probes(&input.image)
        })
        .collect();
    ia32_probes(&built);
    sim_probes();
    block_build_probes(inputs, &built);
    evictions
}

fn bounded_evictions(image: &Image) -> u64 {
    let opts = Options {
        cache_limit: Some(2048),
        ..Options::full()
    };
    Rio::new(image, opts, CPU, NullClient).run().stats.evictions
}

/// `Rio::new`, then a full run whose cache feeds `decode_fragment`,
/// `verify_cache`, and the block list for the other probes.
fn engine_probes(image: &Image) -> Vec<Block> {
    for _ in 0..INPUT_ROUNDS {
        trace::span("core.rio_new", 1, || {
            drop(black_box(Rio::new(image, Options::full(), CPU, NullClient)))
        });
    }
    let mut rio = Rio::new(image, Options::full(), CPU, NullClient);
    rio.run();
    let tags: BTreeSet<u32> = rio
        .core
        .cache()
        .iter()
        .filter(|f| !f.deleted)
        .map(|f| f.tag)
        .collect();
    for _ in 0..INPUT_ROUNDS {
        trace::span("core.decode_fragment", tags.len() as u64, || {
            for &tag in &tags {
                black_box(rio.core.decode_fragment(tag));
            }
        });
        trace::span("core.verify_cache", 1, || {
            black_box(rio.core.verify_cache())
        });
    }
    let mut seen = BTreeSet::new();
    let mut blocks = Vec::new();
    for t in 0..rio.core.thread_count() {
        for f in rio.core.thread_cache(t).iter() {
            if f.kind != FragmentKind::BasicBlock || !seen.insert(f.tag) {
                continue;
            }
            let Some(&(start, end)) = f.src_ranges.first() else {
                continue;
            };
            let range = start.wrapping_sub(Image::CODE_BASE) as usize
                ..end.wrapping_sub(Image::CODE_BASE) as usize;
            let Some(bytes) = image.code.get(range) else {
                continue;
            };
            if let Some(instrs) = count_instrs(bytes) {
                blocks.push(Block {
                    tag: f.tag,
                    bytes: bytes.to_vec(),
                    instrs,
                });
            }
        }
    }
    blocks
}

/// Instructions in `bytes`, if they decode to exactly its end.
fn count_instrs(bytes: &[u8]) -> Option<u64> {
    let (mut off, mut n) = (0, 0);
    while off < bytes.len() {
        off += decode_sizeof(&bytes[off..]).ok()? as usize;
        n += 1;
    }
    (off == bytes.len()).then_some(n)
}

/// Walk every instruction of every block with `f(bytes, pc) -> length`.
fn walk(blocks: &[&Block], mut f: impl FnMut(&[u8], u32) -> u32) {
    for b in blocks {
        let mut off = 0usize;
        while off < b.bytes.len() {
            off += f(black_box(&b.bytes[off..]), b.tag + off as u32) as usize;
        }
    }
}

fn ia32_probes(built: &[Vec<Block>]) {
    let blocks: Vec<&Block> = built.iter().flatten().collect();
    let n: u64 = blocks.iter().map(|b| b.instrs).sum();
    repeat("ia32.decode_l1", n, || {
        walk(&blocks, |b, _| {
            decode_sizeof(b).expect("built block decodes")
        })
    });
    repeat("ia32.decode_l2", n, || {
        walk(&blocks, |b, _| {
            black_box(decode_opcode(b).expect("built block decodes")).1
        })
    });
    repeat("ia32.decode_l3", n, || {
        walk(&blocks, |b, pc| {
            black_box(decode_instr(b, pc).expect("built block decodes")).1
        })
    });
    // Template encoding: decoded instructions with their raw bytes dropped
    // (Level 4), so the encoder cannot copy them.
    let mut decoded = Vec::new();
    walk(&blocks, |b, pc| {
        let (mut instr, len) = decode_instr(b, pc).expect("built block decodes");
        instr.invalidate_raw();
        decoded.push((instr, pc));
        len
    });
    repeat("ia32.encode", decoded.len() as u64, || {
        for (instr, pc) in &decoded {
            black_box(encode_instr(instr, *pc, &|_| None).ok());
        }
    });
    // The Figure 2 block as the `micro` bench times it: `decode/full (L3)`
    // and `decode_encode_block/L3`.
    const FIG2_BLOCKS: u64 = 100;
    let fig2 = Block {
        tag: 0x1000,
        bytes: FIG2.to_vec(),
        instrs: 7,
    };
    repeat("ia32.fig2_decode_l3", FIG2_BLOCKS, || {
        for _ in 0..FIG2_BLOCKS {
            walk(&[&fig2], |b, pc| {
                black_box(decode_instr(b, pc).expect("Figure 2 block decodes")).1
            });
        }
    });
    repeat("ia32.fig2_decode_encode_l3", FIG2_BLOCKS, || {
        for _ in 0..FIG2_BLOCKS {
            let il = InstrList::decode_block(black_box(FIG2), 0x1000, Level::L3)
                .expect("Figure 2 block decodes");
            black_box(encode_list(&il, 0x1000).expect("Figure 2 block encodes"));
        }
    });
}

fn sim_probes() {
    const MACHINES: u64 = 16;
    repeat("sim.machine_new", MACHINES, || {
        for _ in 0..MACHINES {
            drop(black_box(Machine::new(CPU)));
        }
    });

    // 4096 word addresses spread over 16 resident data pages.
    let addrs: Vec<u32> = (0..4096u32)
        .map(|i| (Image::DATA_BASE + i.wrapping_mul(2_654_435_761) % (16 << 12)) & !3)
        .collect();
    let mut mem = Memory::new();
    for page in 0..16 {
        mem.write_u32(Image::DATA_BASE + (page << 12), page);
    }
    let n = addrs.len() as u64;
    repeat("sim.mem.read_u32", n, || {
        let sum = addrs
            .iter()
            .fold(0u32, |s, &a| s.wrapping_add(mem.read_u32(a)));
        black_box(sum);
    });
    repeat("sim.mem.fetch16", n, || {
        let mut buf = [0u8; 16];
        for &a in &addrs {
            mem.read_bytes(a, &mut buf);
            black_box(&buf);
        }
    });
    repeat("sim.mem.write_u32", n, || {
        for (v, &a) in addrs.iter().enumerate() {
            mem.write_u32(a, v as u32);
        }
    });

    for (class, image) in step_loops() {
        let mut m = Machine::new(CPU);
        m.load_image(&image);
        m.cpu.set_reg(Reg::Ebx, Image::DATA_BASE);
        m.cpu.set_reg(Reg::Esi, Image::CODE_BASE);
        m.run_steps(STEPS);
        repeat(&format!("sim.step.{class}"), STEPS, || {
            black_box(m.run_steps(STEPS));
        });
    }
}

/// A named builder of one loop body.
type LoopBody<'a> = (&'static str, &'a dyn Fn(&mut InstrList));

/// Endless loops of one instruction class each, built with `create`: eight
/// copies of a body closed by a `jmp` back. A lone `ret` at
/// `Image::CODE_BASE` (held in `%esi`) is the callee of the call loops;
/// `%ebx` points at data.
fn step_loops() -> Vec<(&'static str, Image)> {
    let reg = Opnd::reg;
    let mem = |disp| Opnd::mem(MemRef::base_disp(Reg::Ebx, disp, OpSize::S32));
    let callee = Target::Pc(Image::CODE_BASE);
    let bodies: [LoopBody; 5] = [
        ("alu", &|il| {
            il.push_back(create::add(reg(Reg::Eax), Opnd::imm32(3)));
            il.push_back(create::xor(reg(Reg::Ecx), reg(Reg::Eax)));
            il.push_back(create::sub(reg(Reg::Edx), reg(Reg::Ecx)));
            il.push_back(create::or(reg(Reg::Edi), reg(Reg::Edx)));
        }),
        ("mem", &|il| {
            il.push_back(create::mov(reg(Reg::Eax), mem(0)));
            il.push_back(create::mov(mem(4), reg(Reg::Eax)));
            il.push_back(create::mov(reg(Reg::Ecx), mem(8)));
            il.push_back(create::mov(mem(12), reg(Reg::Ecx)));
        }),
        ("branch", &|il| {
            // Alternately taken and not taken; both paths meet at `next`.
            let next = create::label();
            il.push_back(create::add(reg(Reg::Eax), Opnd::imm32(1)));
            il.push_back(create::test(reg(Reg::Eax), Opnd::imm32(1)));
            let jcc = il.push_back(create::jcc(Cc::Z, Target::Pc(0)));
            let next = il.push_back(next);
            il.get_mut(jcc).set_target(Target::Instr(next));
        }),
        ("call_ret", &|il| {
            il.push_back(create::call(callee));
        }),
        ("indirect", &|il| {
            il.push_back(create::call_ind(reg(Reg::Esi)));
        }),
    ];
    bodies
        .into_iter()
        .map(|(class, body)| {
            let mut il = InstrList::new();
            il.push_back(create::ret());
            let top = il.push_back(create::label());
            for _ in 0..8 {
                body(&mut il);
            }
            il.push_back(create::jmp(Target::Instr(top)));
            let code = encode_list(&il, Image::CODE_BASE)
                .expect("probe loop encodes")
                .bytes;
            let image = Image {
                code,
                data: Vec::new(),
                entry: Image::CODE_BASE + 1,
            };
            (class, image)
        })
        .collect()
}

/// `decode_bb` both ways, then mangling and emission into a fresh machine
/// and cache, over each input's built blocks.
fn block_build_probes(inputs: &[Input], built: &[Vec<Block>]) {
    let max = Options::full().max_bb_instrs;
    let mems: Vec<Memory> = inputs
        .iter()
        .map(|i| {
            let mut m = Memory::new();
            i.image.load(&mut m);
            m
        })
        .collect();
    let nblocks: u64 = built.iter().map(|b| b.len() as u64).sum();
    for (name, full) in [("core.decode_bb", false), ("core.decode_bb_full", true)] {
        repeat(name, nblocks, || {
            for (mem, blocks) in mems.iter().zip(built) {
                for b in blocks {
                    black_box(decode_bb(mem, b.tag, full, max).ok());
                }
            }
        });
    }
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < BUDGET {
        for (input, blocks) in inputs.iter().zip(built) {
            let mut machine = Machine::new(CPU);
            machine.load_image(&input.image);
            let mut cache = CodeCache::new();
            let decoded: Vec<_> = blocks
                .iter()
                .filter_map(|b| decode_bb(&machine.mem, b.tag, false, max).ok())
                .collect();
            trace::span("core.mangle_emit", decoded.len() as u64, || {
                for bb in decoded {
                    let mut il = bb.il;
                    mangle_bb(&mut il, bb.end_pc);
                    let frag = emit_fragment(
                        &mut machine,
                        &mut cache,
                        FragmentKind::BasicBlock,
                        bb.tag,
                        il,
                        Vec::new(),
                        vec![(bb.tag, bb.end_pc)],
                    );
                    black_box(frag.ok());
                }
            });
        }
        rounds += 1;
    }
}
