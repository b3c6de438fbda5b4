//! Delta-debugging shrinker for findings.
//!
//! When the oracle reports a divergence, the raw generated program is
//! rarely the story — most of its statements are noise. The shrinker
//! minimizes along both axes of a finding:
//!
//! * **Statement tree** — greedily apply the first node-count-reducing
//!   edit that still reproduces the failure, and repeat to a fixpoint.
//!   Edits are: drop a statement, hoist a compound statement's body (or a
//!   branch/switch arm) in its place, hoist a subexpression over its
//!   parent, and collapse a non-leaf expression to a constant. Every edit
//!   strictly reduces the node count, so termination is structural, and
//!   the candidate order is fixed, so the minimum is deterministic.
//! * **Configuration** — walk the failing configuration down the lattice
//!   ([`FuzzConfig::simpler`]) as long as the divergence survives, so a
//!   finding is reported against the simplest engine configuration that
//!   exhibits it.
//!
//! The oracle is a plain closure, so the same machinery minimizes real
//! differential findings (closure = "this config pair still disagrees")
//! and harness self-tests (closure = "an injected fault still causes
//! divergence").

use crate::gen::{E, S};
use crate::oracle::FuzzConfig;

/// Total node count of a statement list.
fn nodes(stmts: &[S]) -> usize {
    stmts.iter().map(S::nodes).sum()
}

/// Minimize a statement list while `still_fails` keeps returning `true`.
///
/// Greedy first-improvement search: candidates are enumerated in a fixed
/// order (whole-statement drops first, then body hoists, then in-place
/// statement/expression reductions), the first reproducing candidate is
/// taken, and the search restarts from it. Every candidate has strictly
/// fewer nodes than its origin, so the loop terminates; the result still
/// satisfies `still_fails` (and equals the input if nothing smaller does).
pub fn shrink_program<F>(stmts: &[S], mut still_fails: F) -> Vec<S>
where
    F: FnMut(&[S]) -> bool,
{
    let mut current = stmts.to_vec();
    'outer: loop {
        for candidate in list_variants(&current) {
            debug_assert!(nodes(&candidate) < nodes(&current));
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Minimize the failing configuration while `still_fails` keeps returning
/// `true`, preferring the nearest simpler lattice point each round.
pub fn shrink_config<F>(cfg: FuzzConfig, mut still_fails: F) -> FuzzConfig
where
    F: FnMut(FuzzConfig) -> bool,
{
    let mut current = cfg;
    'outer: loop {
        for candidate in current.simpler() {
            if still_fails(candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// All one-edit reductions of a statement list, in preference order.
fn list_variants(stmts: &[S]) -> Vec<Vec<S>> {
    let mut out = Vec::new();
    // Drop each statement outright.
    for i in 0..stmts.len() {
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
    }
    // Hoist a compound statement's body (or one arm) into its place.
    for i in 0..stmts.len() {
        for repl in hoists(&stmts[i]) {
            let mut v = stmts.to_vec();
            v.splice(i..=i, repl);
            out.push(v);
        }
    }
    // In-place reductions of a single statement.
    for i in 0..stmts.len() {
        for s in stmt_variants(&stmts[i]) {
            let mut v = stmts.to_vec();
            v[i] = s;
            out.push(v);
        }
    }
    out
}

/// Bodies that can stand in for a compound statement (each strictly
/// smaller: the replaced node and its condition/selector disappear).
fn hoists(s: &S) -> Vec<Vec<S>> {
    match s {
        S::Loop(_, body) => vec![body.clone()],
        S::If(_, t, e) => vec![t.clone(), e.clone()],
        S::Switch(_, cases) => cases.clone(),
        _ => Vec::new(),
    }
}

/// One-edit reductions of a single statement (same statement kind, smaller
/// contents).
fn stmt_variants(s: &S) -> Vec<S> {
    match s {
        S::Assign(v, e) => expr_variants(e)
            .into_iter()
            .map(|e| S::Assign(*v, e))
            .collect(),
        S::Store(i, e) => {
            let mut out: Vec<S> = expr_variants(i)
                .into_iter()
                .map(|i2| S::Store(i2, e.clone()))
                .collect();
            out.extend(
                expr_variants(e)
                    .into_iter()
                    .map(|e2| S::Store(i.clone(), e2)),
            );
            out
        }
        S::CallHelper(e) => expr_variants(e).into_iter().map(S::CallHelper).collect(),
        S::Print(e) => expr_variants(e).into_iter().map(S::Print).collect(),
        S::Loop(n, body) => list_variants(body)
            .into_iter()
            .map(|b| S::Loop(*n, b))
            .collect(),
        S::If(c, t, e) => {
            let mut out: Vec<S> = expr_variants(c)
                .into_iter()
                .map(|c2| S::If(c2, t.clone(), e.clone()))
                .collect();
            out.extend(
                list_variants(t)
                    .into_iter()
                    .map(|t2| S::If(c.clone(), t2, e.clone())),
            );
            out.extend(
                list_variants(e)
                    .into_iter()
                    .map(|e2| S::If(c.clone(), t.clone(), e2)),
            );
            out
        }
        S::Switch(e, cases) => {
            let mut out: Vec<S> = expr_variants(e)
                .into_iter()
                .map(|e2| S::Switch(e2, cases.clone()))
                .collect();
            for (k, case) in cases.iter().enumerate() {
                for c2 in list_variants(case) {
                    let mut cs = cases.clone();
                    cs[k] = c2;
                    out.push(S::Switch(e.clone(), cs));
                }
            }
            out
        }
        S::Bump(..) | S::Patch(..) => Vec::new(),
    }
}

/// Direct subexpressions of `e` (hoisting candidates).
fn subexprs(e: &E) -> Vec<&E> {
    match e {
        E::K(_) | E::V(_) | E::G(_) => Vec::new(),
        E::Load(a) | E::Mask(a) | E::Helper(a) | E::IHelper(a) | E::Rec(a) => vec![a],
        E::Add(a, b)
        | E::Sub(a, b)
        | E::Mul(a, b)
        | E::Cmp(a, b)
        | E::DivG(a, b)
        | E::RemG(a, b)
        | E::DivU(a, b)
        | E::RemU(a, b)
        | E::TableCall(a, b) => vec![a, b],
    }
}

/// One-edit reductions of an expression: hoist each subexpression over its
/// parent, then collapse the whole thing to `0`. Leaves are irreducible
/// (swapping one leaf for another would not shrink anything and could loop
/// forever).
fn expr_variants(e: &E) -> Vec<E> {
    let mut out: Vec<E> = subexprs(e).into_iter().cloned().collect();
    // Recursive reductions within subtrees.
    match e {
        E::Load(a) => out.extend(expr_variants(a).into_iter().map(|a| E::Load(Box::new(a)))),
        E::Mask(a) => out.extend(expr_variants(a).into_iter().map(|a| E::Mask(Box::new(a)))),
        E::Helper(a) => out.extend(expr_variants(a).into_iter().map(|a| E::Helper(Box::new(a)))),
        E::IHelper(a) => out.extend(
            expr_variants(a)
                .into_iter()
                .map(|a| E::IHelper(Box::new(a))),
        ),
        E::Rec(a) => out.extend(expr_variants(a).into_iter().map(|a| E::Rec(Box::new(a)))),
        E::Add(a, b)
        | E::Sub(a, b)
        | E::Mul(a, b)
        | E::Cmp(a, b)
        | E::DivG(a, b)
        | E::RemG(a, b)
        | E::DivU(a, b)
        | E::RemU(a, b)
        | E::TableCall(a, b) => {
            let rebuild = |x: E, y: E| match e {
                E::Add(..) => E::Add(Box::new(x), Box::new(y)),
                E::Sub(..) => E::Sub(Box::new(x), Box::new(y)),
                E::Mul(..) => E::Mul(Box::new(x), Box::new(y)),
                E::Cmp(..) => E::Cmp(Box::new(x), Box::new(y)),
                E::DivG(..) => E::DivG(Box::new(x), Box::new(y)),
                E::RemG(..) => E::RemG(Box::new(x), Box::new(y)),
                E::DivU(..) => E::DivU(Box::new(x), Box::new(y)),
                E::RemU(..) => E::RemU(Box::new(x), Box::new(y)),
                _ => E::TableCall(Box::new(x), Box::new(y)),
            };
            out.extend(
                expr_variants(a)
                    .into_iter()
                    .map(|a2| rebuild(a2, (**b).clone())),
            );
            out.extend(
                expr_variants(b)
                    .into_iter()
                    .map(|b2| rebuild((**a).clone(), b2)),
            );
        }
        E::K(_) | E::V(_) | E::G(_) => {}
    }
    // Constant collapse last — strictly smaller only for non-leaves.
    if e.nodes() > 1 {
        out.push(E::K(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::EngineConfig;
    use rio_clients::ClientKind;

    /// Whether any `Print` statement survives anywhere in the tree.
    fn has_print(stmts: &[S]) -> bool {
        stmts.iter().any(|s| match s {
            S::Print(_) => true,
            S::Loop(_, b) => has_print(b),
            S::If(_, t, e) => has_print(t) || has_print(e),
            S::Switch(_, cs) => cs.iter().any(|c| has_print(c)),
            _ => false,
        })
    }

    #[test]
    fn shrinks_to_the_single_relevant_statement() {
        let big = vec![
            S::Assign(0, E::Add(Box::new(E::K(3)), Box::new(E::V(1)))),
            S::Loop(
                4,
                vec![
                    S::Bump(2, true),
                    S::Print(E::Mul(
                        Box::new(E::Mask(Box::new(E::G(0)))),
                        Box::new(E::K(9)),
                    )),
                ],
            ),
            S::If(E::Cmp(Box::new(E::V(0)), Box::new(E::K(5))), vec![], vec![]),
        ];
        let small = shrink_program(&big, has_print);
        assert!(has_print(&small), "shrinker lost the failure");
        // Fully minimized: one Print of a single leaf expression.
        assert_eq!(small.len(), 1, "extra statements survived: {small:?}");
        assert!(
            matches!(small[0], S::Print(_)),
            "wrong statement kept: {small:?}"
        );
        assert_eq!(nodes(&small), 2, "not fully minimized: {small:?}");
    }

    #[test]
    fn returns_input_when_nothing_smaller_fails() {
        let minimal = vec![S::Print(E::K(0))];
        assert_eq!(shrink_program(&minimal, has_print), minimal);
    }

    #[test]
    fn config_shrinks_down_the_lattice() {
        let from = FuzzConfig {
            engine: EngineConfig::Verified,
            client: ClientKind::Combined,
        };
        // Divergence reproduces everywhere: ends at the global minimum.
        let all = shrink_config(from, |_| true);
        assert_eq!(
            all,
            FuzzConfig {
                engine: EngineConfig::Emulate,
                client: ClientKind::Null
            }
        );
        // Divergence needs the bounded cache: client drops, engine stays.
        let bounded = FuzzConfig {
            engine: EngineConfig::Bounded,
            client: ClientKind::Combined,
        };
        let kept = shrink_config(bounded, |c| c.engine == EngineConfig::Bounded);
        assert_eq!(
            kept,
            FuzzConfig {
                engine: EngineConfig::Bounded,
                client: ClientKind::Null
            }
        );
    }
}
