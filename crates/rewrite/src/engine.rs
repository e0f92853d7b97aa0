//! The rewrite engine: best-first search over rule applications.
//!
//! Rewriting in Section 6 of the paper is presented as derivations — chains
//! of equivalence applications (Examples 6.1/6.2). The engine reproduces
//! such derivations automatically: starting from the input plan it explores
//! the space of single-rule rewrites (at any subterm, in the directions the
//! rule set provides), keeps a visited set, and returns the cheapest plan
//! found under [`crate::cost::cost`]. Plateau moves (equal cost) are explored too,
//! which is what lets e.g. Eq (8) reshape a plan so that Eq (11) can fire.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use wsa::Query;

use crate::cost::cost_ctx;
use crate::rules::{rule_set, Rule};

pub use crate::rules::RewriteCtx;

/// A derivation: the rules applied, in order, with the resulting plans.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `(rule name, paper equation, plan after the step)`.
    pub steps: Vec<(&'static str, &'static str, Query)>,
}

impl Trace {
    /// Render the derivation like the paper's Example 6.1.
    pub fn render(&self, start: &Query) -> String {
        let mut out = format!("{start}\n");
        for (name, eq, q) in &self.steps {
            out.push_str(&format!("  ={eq}=  {q}    [{name}]\n"));
        }
        out
    }
}

/// Maximum number of distinct plans explored per optimization call.
const EXPLORATION_CAP: usize = 20_000;

/// Optimize a query: the minimum-cost equivalent plan reachable through the
/// rule set. The context decides the cost model: with base-table
/// cardinalities ([`RewriteCtx::with_cards`]) the cardinality estimator
/// ranks plans (and the cost-based rules fire); without them the original
/// operator-weight model is used unchanged.
pub fn optimize(q: &Query, ctx: &RewriteCtx) -> Query {
    optimize_capped(q, ctx, EXPLORATION_CAP).0
}

/// Optimize and return the derivation that leads to the optimum.
pub fn optimize_traced(q: &Query, ctx: &RewriteCtx) -> (Query, Trace) {
    optimize_capped(q, ctx, EXPLORATION_CAP)
}

/// [`optimize_traced`] with an explicit exploration budget. Hot callers
/// that optimize per evaluation (the I-SQL per-world route) pass a small
/// cap; `EXPLAIN` and the translation route use the default.
pub fn optimize_capped(q: &Query, ctx: &RewriteCtx, cap: usize) -> (Query, Trace) {
    let rules = rule_set();
    let mut visited: HashSet<Query> = HashSet::new();
    let mut parent: HashMap<Query, (Query, &'static str, &'static str)> = HashMap::new();
    // The heap stores indices into `states` (Query has no Ord).
    let mut states: Vec<Query> = Vec::new();
    let mut heap: BinaryHeap<(Reverse<u64>, Reverse<usize>)> = BinaryHeap::new();

    visited.insert(q.clone());
    states.push(q.clone());
    heap.push((Reverse(cost_ctx(q, ctx)), Reverse(0)));
    let mut best = q.clone();
    let mut best_cost = cost_ctx(q, ctx);

    while let Some((Reverse(c), Reverse(idx))) = heap.pop() {
        let cur = states[idx].clone();
        if c < best_cost {
            best_cost = c;
            best = cur.clone();
        }
        if visited.len() >= cap {
            break;
        }
        for rule in &rules {
            for next in apply_everywhere(&cur, rule, ctx) {
                if visited.insert(next.clone()) {
                    parent.insert(next.clone(), (cur.clone(), rule.name, rule.paper_eq));
                    states.push(next.clone());
                    heap.push((Reverse(cost_ctx(&next, ctx)), Reverse(states.len() - 1)));
                }
            }
        }
    }

    // Reconstruct the derivation.
    let mut steps = Vec::new();
    let mut cur = best.clone();
    while let Some((prev, name, eq)) = parent.get(&cur) {
        steps.push((*name, *eq, cur.clone()));
        cur = prev.clone();
    }
    steps.reverse();
    (best, Trace { steps })
}

/// All single applications of `rule` anywhere inside `q`.
fn apply_everywhere(q: &Query, rule: &Rule, ctx: &RewriteCtx) -> Vec<Query> {
    let mut out = Vec::new();
    if let Some(r) = (rule.apply)(q, ctx) {
        out.push(r);
    }
    // Rebuild with one child rewritten.
    let rebuild_unary = |mk: &dyn Fn(Box<Query>) -> Query, child: &Query| -> Vec<Query> {
        apply_everywhere(child, rule, ctx)
            .into_iter()
            .map(|c| mk(Box::new(c)))
            .collect()
    };
    match q {
        Query::Rel(_) => {}
        Query::Select(p, c) => {
            out.extend(rebuild_unary(&|b| Query::Select(p.clone(), b), c));
        }
        Query::Project(x, c) => {
            out.extend(rebuild_unary(&|b| Query::Project(x.clone(), b), c));
        }
        Query::Rename(m, c) => {
            out.extend(rebuild_unary(&|b| Query::Rename(m.clone(), b), c));
        }
        Query::Choice(x, c) => {
            out.extend(rebuild_unary(&|b| Query::Choice(x.clone(), b), c));
        }
        Query::Poss(c) => out.extend(rebuild_unary(&Query::Poss, c)),
        Query::Cert(c) => out.extend(rebuild_unary(&Query::Cert, c)),
        Query::RepairKey(x, c) => {
            out.extend(rebuild_unary(&|b| Query::RepairKey(x.clone(), b), c));
        }
        Query::PossGroup { group, proj, input } => {
            out.extend(rebuild_unary(
                &|b| Query::PossGroup {
                    group: group.clone(),
                    proj: proj.clone(),
                    input: b,
                },
                input,
            ));
        }
        Query::CertGroup { group, proj, input } => {
            out.extend(rebuild_unary(
                &|b| Query::CertGroup {
                    group: group.clone(),
                    proj: proj.clone(),
                    input: b,
                },
                input,
            ));
        }
        Query::Aggregate { group, aggs, input } => {
            out.extend(rebuild_unary(
                &|b| Query::Aggregate {
                    group: group.clone(),
                    aggs: aggs.clone(),
                    input: b,
                },
                input,
            ));
        }
        Query::Product(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b)
        | Query::SemiJoin {
            left: a, right: b, ..
        } => {
            let mk = |l: Box<Query>, r: Box<Query>| match q {
                Query::Product(_, _) => Query::Product(l, r),
                Query::Union(_, _) => Query::Union(l, r),
                Query::Intersect(_, _) => Query::Intersect(l, r),
                Query::SemiJoin { on, anti, .. } => Query::SemiJoin {
                    on: on.clone(),
                    anti: *anti,
                    left: l,
                    right: r,
                },
                _ => Query::Difference(l, r),
            };
            for l in apply_everywhere(a, rule, ctx) {
                out.push(mk(Box::new(l), b.clone()));
            }
            for r in apply_everywhere(b, rule, ctx) {
                out.push(mk(a.clone(), Box::new(r)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use relalg::{attrs, Pred, Schema};

    fn base(name: &str) -> Option<Schema> {
        match name {
            "HFlights" => Some(Schema::of(&["Dep", "Arr"])),
            "Hotels" => Some(Schema::of(&["Name", "City"])),
            "R" => Some(Schema::of(&["A", "B"])),
            _ => None,
        }
    }

    fn ctx() -> RewriteCtx<'static> {
        RewriteCtx::new(&base)
    }

    fn q1() -> Query {
        // Figure 8(a): cert(π_City(σ_{Arr=City}(pγ^*_Dep(χ_{Dep,City}(HF × Hotels)))))
        Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .choice(attrs(&["Dep", "City"]))
            .poss_group(attrs(&["Dep"]), attrs(&["Dep", "Arr", "Name", "City"]))
            .select(Pred::eq_attr("Arr", "City"))
            .project(attrs(&["City"]))
            .cert()
    }

    #[test]
    fn figure_8_q1_rewrites_to_q1_prime() {
        let (opt, trace) = optimize_traced(&q1(), &ctx());
        // q1′ = cert(π_City(χ_Dep(HFlights) ⋈_{Arr=City} Hotels))
        let q1_prime = Query::rel("HFlights")
            .choice(attrs(&["Dep"]))
            .product(Query::rel("Hotels"))
            .select(Pred::eq_attr("Arr", "City"))
            .project(attrs(&["City"]))
            .cert();
        assert_eq!(opt, q1_prime, "derivation:\n{}", trace.render(&q1()));
        assert!(cost(&opt) < cost(&q1()));
    }

    #[test]
    fn figure_9_q2_rewrites_to_q2_prime() {
        // Figure 9(a): same as q1 with poss outermost.
        let q2 = Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .choice(attrs(&["Dep", "City"]))
            .poss_group(attrs(&["Dep"]), attrs(&["Dep", "Arr", "Name", "City"]))
            .select(Pred::eq_attr("Arr", "City"))
            .project(attrs(&["City"]))
            .poss();
        let (opt, trace) = optimize_traced(&q2, &ctx());
        // q2′ = π_City(poss(HFlights ⋈_{Arr=City} Hotels))
        let q2_prime = Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .select(Pred::eq_attr("Arr", "City"))
            .poss()
            .project(attrs(&["City"]));
        assert_eq!(opt, q2_prime, "derivation:\n{}", trace.render(&q2));
        assert!(cost(&opt) < cost(&q2));
    }

    #[test]
    fn relational_queries_untouched_or_improved() {
        let q = Query::rel("R").select(Pred::eq_const("A", 1));
        let opt = optimize(&q, &ctx());
        assert_eq!(opt, q);
    }

    fn cards(name: &str) -> Option<u64> {
        match name {
            "HFlights" => Some(10_000),
            "Hotels" => Some(20),
            "R" => Some(5),
            _ => None,
        }
    }

    #[test]
    fn cost_based_rules_push_selections_into_products() {
        // σ_{Dep='FRA' ∧ Arr=City}(HFlights × Hotels): with cardinalities
        // the single-side filter moves below the pairing; the cross-side
        // conjunct stays on top (the hash-join form).
        let q = Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .select(Pred::eq_const("Dep", "FRA").and(Pred::eq_attr("Arr", "City")))
            .poss();
        let ctx = RewriteCtx::new(&base).with_cards(&cards);
        let (opt, trace) = optimize_traced(&q, &ctx);
        assert!(
            trace
                .steps
                .iter()
                .any(|(name, _, _)| *name == "selection-before-product"),
            "expected the pushdown to fire:\n{}",
            trace.render(&q)
        );
        assert!(cost_ctx(&opt, &ctx) < cost_ctx(&q, &ctx));
    }

    #[test]
    fn cost_based_rules_reassociate_products() {
        // ((HFlights × Hotels) × R): the big×small intermediate is beaten
        // by associating the two small relations first.
        let q = Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .product(Query::rel("R"))
            .poss();
        let ctx = RewriteCtx::new(&base).with_cards(&cards);
        let opt = optimize(&q, &ctx);
        let expect = Query::rel("HFlights")
            .product(Query::rel("Hotels").product(Query::rel("R")))
            .poss();
        assert_eq!(opt, expect);
    }

    #[test]
    fn cost_based_rules_stay_off_without_cards() {
        // Without cardinalities the new rules must not fire at all: the
        // search space (and therefore every PR-2-era derivation) is
        // unchanged.
        let q = Query::rel("HFlights")
            .product(Query::rel("Hotels"))
            .select(Pred::eq_const("Dep", "FRA").and(Pred::eq_attr("Arr", "City")))
            .poss();
        let (_, trace) = optimize_traced(&q, &ctx());
        assert!(trace
            .steps
            .iter()
            .all(|(name, _, _)| !name.contains("product") || name.contains("choice")));
    }

    #[test]
    fn trace_renders_derivation() {
        let (_, trace) = optimize_traced(&q1(), &ctx());
        assert!(!trace.steps.is_empty());
        let rendered = trace.render(&q1());
        assert!(rendered.contains("="));
    }
}
