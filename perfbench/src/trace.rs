//! Spans around the benchmark's calls into each layer.
//!
//! Tracing is off unless [`set`] turned it on: a disabled [`span`] costs
//! one thread-local flag test on top of the call itself, so the untraced
//! passes that give the end-to-end metrics are not perturbed. Spans are
//! kept in memory and summarised when the benchmark ends ([`finish`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `ia32.decode_l3`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since tracing was enabled.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Units of work the call did (instructions, blocks, runs).
    pub work: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start or pause recording spans on this thread; recorded spans are kept.
pub fn set(on: bool) {
    ON.set(on);
    if on {
        TRACER.with(|t| {
            t.borrow_mut().get_or_insert_with(|| Tracer {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            });
        });
    }
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ON.get()
}

/// Run `f` inside a span named `name` that did `work` units of work.
pub fn span<R>(name: &str, work: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = t.spans.len();
        t.spans.push(Span {
            name: name.to_string(),
            parent: t.open.last().copied(),
            start_ns: t.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            work,
        });
        t.open.push(id);
        Some(id)
    });
    let Some(id) = id else { return f() };
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing stays enabled inside a span");
        let now = t.origin.elapsed().as_nanos() as u64;
        let s = &mut t.spans[id];
        s.dur_ns = now - s.start_ns;
        t.open.pop();
    });
    r
}

/// Stop recording and return the spans summarised by name.
pub fn finish() -> Summary {
    ON.set(false);
    let spans = TRACER.with(|t| t.borrow_mut().take().map_or_else(Vec::new, |t| t.spans));
    Summary::new(&spans)
}

/// Spans of one name, aggregated.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
    /// Summed work units.
    pub work: u64,
    /// Each span's duration per unit of work, ns.
    pub per_work: Vec<f64>,
}

/// Spans aggregated by name.
pub struct Summary {
    pub by_name: BTreeMap<String, Agg>,
}

impl Summary {
    fn new(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let a = by_name.entry(s.name.clone()).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns;
            a.self_ns += s.dur_ns.saturating_sub(child);
            a.work += s.work;
            if s.work > 0 {
                a.per_work.push(s.dur_ns as f64 / s.work as f64);
            }
        }
        Summary { by_name }
    }

    /// Mean ns per unit of work over every span of `name` (0 when the
    /// workload made no such call).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .filter(|a| a.work > 0)
            .map_or(0.0, |a| a.total_ns as f64 / a.work as f64)
    }

    /// Median ns per unit of work over the spans of `name` (0 when the
    /// workload made no such call).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |a| crate::median(&a.per_work))
    }
}
