//! Engine statistics.

use std::fmt;

/// Declares [`Stats`] from one field table: the struct itself, field-wise
/// [`Stats::merge`], and the `(name, value)` listing that reports and
/// scenario expectations name fields through. `Display` stays hand-written
/// because its layout is part of the `rio suite` output.
macro_rules! stats_fields {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[doc = $doc:literal])* $field:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        impl $name {
            /// Number of counters.
            pub const COUNT: usize = [$(stringify!($field)),*].len();

            /// Accumulate another run's statistics into this one, field-wise
            /// — the aggregation primitive behind suite-level reporting (sum
            /// the stats of every benchmark run, however the runs were
            /// distributed over worker threads).
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }

            /// Every counter as `(field name, value)`, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); Self::COUNT] {
                [$((stringify!($field), self.$field)),*]
            }

            #[cfg(test)]
            fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::COUNT] {
                [$((stringify!($field), &mut self.$field)),*]
            }
        }
    };
}

stats_fields! {
    /// Counts of engine events over a run.
    pub struct Stats {
        /// Basic blocks built.
        bbs_built,
        /// Application instructions decoded while building basic blocks.
        bb_instrs,
        /// Traces built.
        traces_built,
        /// Application instructions stitched into traces.
        trace_instrs,
        /// Dispatcher invocations.
        dispatches,
        /// Context switches from the code cache back to the engine.
        context_switches,
        /// Indirect-branch lookups performed (in-cache or in dispatch).
        ib_lookups,
        /// Indirect-branch lookups that hit and stayed in the cache.
        ib_lookup_hits,
        /// Exits linked.
        links,
        /// Exits unlinked.
        unlinks,
        /// Fragments replaced via the adaptive interface.
        replacements,
        /// Fragments deleted.
        deletions,
        /// Clean calls into client code.
        clean_calls,
        /// Instructions executed under pure emulation.
        emulated_instrs,
        /// Trace heads marked.
        trace_heads,
        /// Sub-cache flushes requested through `Core::request_cache_flush`.
        cache_flushes,
        /// Application threads spawned (beyond the initial thread).
        threads_spawned,
        /// Guest faults raised (handled or not).
        faults_raised,
        /// Guest faults delivered to a registered handler.
        faults_delivered,
        /// Fragments evicted for repeated faulting.
        fault_evictions,
        /// Guest stores that landed in monitored code regions (self-modifying
        /// code events).
        code_writes,
        /// Fragments precisely invalidated because a code write overlapped
        /// their source ranges.
        invalidations,
        /// Fragments evicted FIFO by capacity pressure (distinct from
        /// `cache_flushes`, which counts whole-sub-cache flushes).
        evictions,
        /// Static-verification passes run over individual fragments (the cache
        /// verifier plus the client-safety lints).
        checks_run,
        /// Verifier and lint violations detected.
        violations,
    }
}

impl Stats {
    /// The counter named `name` (a field name from [`Stats::fields`]).
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields()
            .into_iter()
            .find(|&(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Sum a collection of per-run statistics into one aggregate.
    pub fn aggregate<'a>(runs: impl IntoIterator<Item = &'a Stats>) -> Stats {
        let mut total = Stats::default();
        for s in runs {
            total.merge(s);
        }
        total
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "blocks: {} ({} instrs)  traces: {} ({} instrs)  trace heads: {}",
            self.bbs_built, self.bb_instrs, self.traces_built, self.trace_instrs, self.trace_heads
        )?;
        writeln!(
            f,
            "dispatches: {}  context switches: {}  links: {} (+{} unlinks)",
            self.dispatches, self.context_switches, self.links, self.unlinks
        )?;
        writeln!(
            f,
            "ib lookups: {} ({} in-cache hits)  clean calls: {}  replacements: {}  deletions: {}  flushes: {}  evictions: {}",
            self.ib_lookups, self.ib_lookup_hits, self.clean_calls, self.replacements,
            self.deletions, self.cache_flushes, self.evictions
        )?;
        writeln!(
            f,
            "emulated instrs: {}  threads spawned: {}",
            self.emulated_instrs, self.threads_spawned
        )?;
        writeln!(
            f,
            "faults: {} raised, {} delivered, {} fragment evictions",
            self.faults_raised, self.faults_delivered, self.fault_evictions
        )?;
        write!(
            f,
            "code writes: {}  precise invalidations: {}  checks: {} ({} violations)",
            self.code_writes, self.invalidations, self.checks_run, self.violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Stats` whose every field is a distinct value derived from `k`
    /// and the field's position in the table.
    fn varied(k: u64) -> Stats {
        let mut s = Stats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = (2 * i as u64 + 1) * k + i as u64;
        }
        s
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Stats::default().to_string().is_empty());
    }

    #[test]
    fn the_field_table_lists_every_counter_once() {
        let names: std::collections::BTreeSet<&str> =
            Stats::default().fields().iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), Stats::COUNT);
        assert_eq!(Stats::COUNT, 25);
        let s = varied(3);
        for (name, value) in s.fields() {
            assert_eq!(s.field(name), Some(value), "{name}");
        }
        assert_eq!(s.field("no_such_counter"), None);
        assert_eq!(s.field("code_writes"), Some(s.code_writes));
    }

    #[test]
    fn merge_sums_every_field() {
        let a = varied(5);
        let mut b = a;
        b.merge(&a);
        for ((name, x), (_, y)) in a.fields().into_iter().zip(b.fields()) {
            assert_eq!(y, 2 * x, "{name}");
        }
        let three = Stats::aggregate([&a, &a, &a]);
        for ((name, x), (_, y)) in a.fields().into_iter().zip(three.fields()) {
            assert_eq!(y, 3 * x, "{name}");
        }
        assert_eq!(Stats::aggregate([]), Stats::default());
    }

    #[test]
    fn merge_of_n_equals_aggregate() {
        let runs: Vec<Stats> = (0..7).map(varied).collect();
        let mut merged = Stats::default();
        for r in &runs {
            merged.merge(r);
        }
        assert_eq!(merged, Stats::aggregate(runs.iter()));
        // Aggregation is order-independent (field-wise sums).
        assert_eq!(merged, Stats::aggregate(runs.iter().rev()));
    }

    #[test]
    fn display_round_trips_every_nonzero_field() {
        // Distinct 4-digit values, so a substring match identifies exactly
        // one field.
        let mut s = Stats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = 1001 + i as u64;
        }
        let shown = s.to_string();
        for (name, value) in s.fields() {
            assert!(
                shown.contains(&value.to_string()),
                "Display drops `{name}` (value {value}):\n{shown}"
            );
        }
    }
}
