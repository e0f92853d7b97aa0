//! `EXPLAIN` for I-SQL: compile a query through the full pipeline —
//! surface syntax → World-set Algebra → Section-6 logical optimization →
//! (for complete-to-complete queries) the Section-5.3 relational plan.
//!
//! This is the end-to-end story of the paper in one API call: the
//! conclusion's "implementation of I-SQL on top of a relational engine".

use relalg::Schema;
use wsa::typing::is_complete_to_complete;
use wsa::Query;

use crate::ast::{SelectStmt, Stmt};
use crate::compile::compile_select;
use crate::lexer::SqlError;
use crate::parser::parse_statement;
use crate::session::Session;

/// The stages of query compilation, for inspection and execution planning.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The algebra form of the query (clean fragment only).
    pub algebra: Query,
    /// The algebra after Figure-7 rewriting, as the statement path
    /// evaluates it.
    pub optimized: Query,
    /// Estimated cost of the unrewritten plan (cardinality model over the
    /// session's actual relation sizes).
    pub cost_before: u64,
    /// Estimated cost after rewriting.
    pub cost_after: u64,
    /// Whether the query maps complete databases to complete databases.
    pub complete_to_complete: bool,
    /// World-set representation the evaluator would use for the optimized
    /// query: `"factored"` when the per-operator planner routes every
    /// node through the factorized engine (lineage columns + choice
    /// variables, worlds expanded only at decode boundaries), `"mixed"`
    /// when factored regions and enumerated operators share the plan
    /// (conversions at the region boundaries), `"enum"` for explicit
    /// possible-worlds enumeration end-to-end.
    pub rep: &'static str,
    /// Estimated implicit world count of the optimized query over the
    /// session's world-set: the *peak* across the plan of input worlds ×
    /// per-`choice of` group counts from the relation statistics — the
    /// quantity the per-node representation rule thresholds on.
    pub implicit_worlds: u128,
    /// Per-node representation decisions of the plan that would execute,
    /// in pre-order: operator label, `F`/`E`/`convert`, and the node's
    /// output world estimate.
    pub rep_plan: Vec<RepNodeLine>,
    /// Whether the statement runs as `relational_plan` (a `1↦1` select
    /// over a one-world session, rewrite path on): then no world-set
    /// representation is involved and `rep`/`rep_plan` are not rendered.
    pub relational_route: bool,
    /// For a `1↦1` query over a one-world session: the equivalent
    /// relational algebra plan (Section 5.3, simplified and join-ordered),
    /// built by the statement path's `wsa_inlined::relational_plan`.
    pub relational_plan: Option<relalg::Expr>,
    /// Evaluation-cache behavior of a trial evaluation of the relational
    /// plan against the session's relations (`None` when there is no plan
    /// or the rewrite path is off): node hits and misses.
    pub cache: Option<relalg::EvalStats>,
    /// Per-plan-node cardinalities: the statistics model's estimate next
    /// to the actual row count of the trial evaluation, plus the chosen
    /// physical path (row vs. columnar) (empty when there is no
    /// relational plan or the rewrite path is off).
    pub node_cards: Vec<relalg::opt::PlanCard>,
}

impl Explanation {
    /// Multi-line rendering of all stages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("algebra:    {}\n", self.algebra));
        out.push_str(&format!("            est. cost {}\n", self.cost_before));
        if self.optimized != self.algebra {
            out.push_str(&format!("optimized:  {}\n", self.optimized));
            out.push_str(&format!("            est. cost {}\n", self.cost_after));
        }
        out.push_str(&format!(
            "type:       {}\n",
            if self.complete_to_complete {
                "1↦1 (complete-to-complete)"
            } else {
                "world-set valued"
            }
        ));
        if self.relational_route {
            out.push_str("route:      relational (Section 5.3)\n");
        } else {
            out.push_str(&format!(
                "rep:        {} (peak ≈{} implicit worlds)\n",
                self.rep, self.implicit_worlds
            ));
            for n in &self.rep_plan {
                out.push_str(&format!(
                    "            {}{}  rep={} ≈{}\n",
                    "  ".repeat(n.depth),
                    n.label,
                    n.card.label(),
                    n.out
                ));
            }
        }
        if let Some(plan) = &self.relational_plan {
            out.push_str(&format!("relational: {plan}\n"));
        }
        if !self.node_cards.is_empty() {
            out.push_str("cards:\n");
            for c in &self.node_cards {
                let indent = "  ".repeat(c.depth);
                if c.read_through {
                    out.push_str(&format!(
                        "            {indent}{}  est={} read through by ÷\n",
                        c.label, c.est_rows
                    ));
                } else {
                    out.push_str(&format!(
                        "            {indent}{}  est={} actual={} phys={}\n",
                        c.label,
                        c.est_rows,
                        c.actual_rows,
                        c.phys.label()
                    ));
                }
            }
        }
        if let Some(stats) = &self.cache {
            out.push_str(&format!(
                "cache:      {} node hit(s), {} miss(es)\n",
                stats.node_hits, stats.misses
            ));
        }
        out
    }
}

/// One line of the per-node representation report: the operator (table
/// name for a leaf, operator symbol otherwise), its decision, and its
/// output world estimate.
#[derive(Clone, Debug)]
pub struct RepNodeLine {
    /// Nesting depth in the query tree (0 = root).
    pub depth: usize,
    /// Short operator label.
    pub label: String,
    /// The representation decision ([`wsa::RepCard::label`] renders it).
    pub card: wsa::RepCard,
    /// Estimated worlds distinguished by this node's output.
    pub out: u128,
}

/// Short per-node label for the representation report.
fn node_label(q: &Query) -> String {
    match q {
        Query::Rel(n) => n.clone(),
        Query::Select(_, _) => "σ".into(),
        Query::Project(_, _) => "π".into(),
        Query::Rename(_, _) => "δ".into(),
        Query::Product(_, _) => "×".into(),
        Query::Union(_, _) => "∪".into(),
        Query::Intersect(_, _) => "∩".into(),
        Query::Difference(_, _) => "−".into(),
        Query::Choice(_, _) => "χ".into(),
        Query::Poss(_) => "poss".into(),
        Query::Cert(_) => "cert".into(),
        Query::PossGroup { .. } => "pγ".into(),
        Query::CertGroup { .. } => "cγ".into(),
        Query::RepairKey(_, _) => "repair-key".into(),
        Query::Aggregate { .. } => "γ".into(),
        Query::SemiJoin { anti: false, .. } => "⋉".into(),
        Query::SemiJoin { anti: true, .. } => "▷".into(),
    }
}

/// Flatten the representation plan into report lines (pre-order, children
/// in query order). With `force_enum` (factorization disabled for the
/// session) every node reports `E` — the plan that would actually run.
fn rep_lines(
    q: &Query,
    plan: &wsa::RepPlan,
    depth: usize,
    force_enum: bool,
    out: &mut Vec<RepNodeLine>,
) {
    out.push(RepNodeLine {
        depth,
        label: node_label(q),
        card: if force_enum {
            wsa::RepCard::E
        } else {
            plan.card
        },
        out: plan.out,
    });
    for (k, kid) in q.children().into_iter().enumerate() {
        rep_lines(kid, &plan.kids[k], depth + 1, force_enum, out);
    }
}

impl Session {
    /// Explain a clean-fragment select statement: its WSA form, the
    /// optimized plan, and — when the query is `1↦1` — the equivalent
    /// relational algebra plan.
    pub fn explain(&self, sql: &str) -> Result<Explanation, SqlError> {
        let Stmt::Select(sel) = parse_statement(sql)? else {
            return Err(SqlError("explain expects a select statement".into()));
        };
        self.explain_select(&sel)
    }

    /// [`Session::explain`] on a parsed statement.
    pub fn explain_select(&self, sel: &SelectStmt) -> Result<Explanation, SqlError> {
        // The session's `set local` overrides govern the explain too (the
        // plan shown is the plan the session would run).
        let _session_cfg = relalg::config::overlay(self.config());
        let ws = self.world_set();
        let base = |name: &str| -> Option<Schema> {
            let idx = ws.index_of(name)?;
            let w = ws.iter().next()?;
            Some(w.rel(idx).schema().clone())
        };
        let cards = |name: &str| -> Option<u64> {
            let idx = ws.index_of(name)?;
            Some(ws.iter().next()?.rel(idx).len() as u64)
        };
        // Measured statistics of the first world's relations (lazily
        // computed, memoized on each relation): the cost model ranks the
        // before/after plans on real cardinalities.
        let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
            let idx = ws.index_of(name)?;
            let w = ws.iter().next()?;
            let rel = w.rel(idx);
            let s = rel.stats();
            Some(wsa_rewrite::TableStats {
                rows: s.rows,
                distinct: rel
                    .schema()
                    .attrs()
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (a.clone(), s.cols[i].distinct))
                    .collect(),
            })
        };
        let multiplicity = if ws.len() <= 1 {
            wsa::typing::Multiplicity::One
        } else {
            wsa::typing::Multiplicity::Many
        };
        let algebra = compile_select(sel, &base)?;
        let ctx = wsa_rewrite::RewriteCtx::new(&base)
            .with_cards(&cards)
            .with_stats(&stats)
            .with_multiplicity(multiplicity);
        // The query the statement path evaluates (`eval_select_ws`): its
        // memoized Section-6 optimization, or the algebra itself when
        // rewriting found nothing.
        let optimized = crate::interp::optimize_memoized(&algebra, &base, ws)
            .unwrap_or_else(|| algebra.clone());
        let cost_before = wsa_rewrite::cost_ctx(&algebra, &ctx);
        let cost_after = wsa_rewrite::cost_ctx(&optimized, &ctx);
        let complete = is_complete_to_complete(&algebra);
        // Representation plan for the query that would execute: the
        // per-operator rule assigns each node factored or enumerated;
        // EXPLAIN reports the peak estimate and the per-node decisions.
        let plan = wsa::plan_query(&optimized, ws);
        let implicit_worlds = plan.peak;
        let routed = relalg::config::factorize_enabled() && !ws.is_empty() && plan.any_f();
        let mut rep_plan = Vec::new();
        rep_lines(&optimized, &plan, 0, !routed, &mut rep_plan);
        let rep = if !routed {
            "enum"
        } else if rep_plan.iter().any(|l| l.card == wsa::RepCard::E) {
            "mixed"
        } else {
            "factored"
        };
        // The relational plan comes from the statement path's own gate and
        // plan builder, applied to the compiled query as the statement path
        // does (it skips the Section-6 search for this route).
        let relational = wsa_inlined::route_applies(&algebra, ws)
            .and_then(|w| wsa_inlined::relational_plan(&algebra, ws.rel_names(), w).ok());
        // Trial-evaluate the relational plan to report how the evaluator's
        // node-identity memo would behave —
        // the "EXPLAIN ANALYZE" corner of the paper's conclusion — and to
        // annotate every plan node with its estimated vs. actual rows
        // (the statistics are free to read once computed).
        let mut node_cards = Vec::new();
        let mut cache = None;
        let mut relational_route = false;
        if let Some(plan) = &relational {
            if relalg::config::rewrite_enabled() {
                let mut ec = relalg::EvalCache::new();
                if plan.catalog.eval_cached(&plan.expr, &mut ec).is_ok() {
                    node_cards =
                        relalg::opt::annotate_cards(&plan.expr, &plan.catalog).unwrap_or_default();
                    cache = Some(ec.stats());
                    relational_route = crate::interp::tries_algebra_route(sel, ws);
                }
            }
        }
        Ok(Explanation {
            algebra,
            optimized,
            cost_before,
            cost_after,
            complete_to_complete: complete,
            rep,
            implicit_worlds,
            rep_plan,
            relational_route,
            relational_plan: relational.map(|p| p.expr),
            cache,
            node_cards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Relation;

    fn session() -> Session {
        let mut s = Session::new();
        s.register(
            "HFlights",
            Relation::table(
                &["Dep", "Arr"],
                &[
                    &["FRA", "BCN"],
                    &["FRA", "ATL"],
                    &["PAR", "ATL"],
                    &["PAR", "BCN"],
                    &["PHL", "ATL"],
                ],
            ),
        )
        .unwrap();
        s
    }

    #[test]
    fn explain_trip_query_full_pipeline() {
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        assert!(e.complete_to_complete);
        let rendered = e.render();
        assert!(rendered.contains("1↦1"));
        let plan = e.relational_plan.expect("1↦1 query has a plan");
        // The Example-5.8 division plan, over qualified columns.
        let printed = plan.to_string();
        assert!(printed.contains('÷'), "plan should divide: {printed}");
        // The plan evaluates to {ATL} on the database.
        let mut catalog = relalg::Catalog::new();
        catalog.put(
            "HFlights",
            s.world_set().iter().next().unwrap().rel(0).clone(),
        );
        let result = catalog.eval(&plan).unwrap();
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn explain_open_query_has_no_plan() {
        let s = session();
        let e = s.explain("select * from HFlights choice of Dep;").unwrap();
        assert!(!e.complete_to_complete);
        assert!(e.relational_plan.is_none());
        assert!(e.render().contains("world-set valued"));
    }

    #[test]
    fn explain_reports_costs_and_cache_behavior() {
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        // The cardinality model prices both plans; rewriting never makes
        // the plan more expensive.
        assert!(e.cost_before > 0);
        assert!(e.cost_after <= e.cost_before);
        // The trial evaluation of the relational plan reports its cache
        // behavior. The division plan has composite nodes, and each
        // evaluation starts from an empty memo, so they evaluate (misses).
        let stats = e.cache.expect("rewrite path on for the session");
        assert!(stats.misses > 0, "{stats:?}");
        let rendered = e.render();
        assert!(rendered.contains("est. cost"), "{rendered}");
        assert!(rendered.contains("cache:"), "{rendered}");
    }

    /// Golden rendering: the full before/after pipeline for the paper's
    /// trip-planning query, with estimated costs and cache annotations.
    #[test]
    fn explain_render_golden() {
        let s = session();
        let e = s
            .explain("select certain Arr from HFlights choice of Dep;")
            .unwrap();
        let rendered = e.render();
        let mut lines = rendered.lines();
        assert_eq!(
            lines.next().unwrap(),
            "algebra:    δ{HFlights.Arr→Arr}(cert(π{HFlights.Arr}(χ{HFlights.Dep}(δ{Dep→HFlights.Dep,Arr→HFlights.Arr}(HFlights)))))"
        );
        assert_eq!(lines.next().unwrap(), "            est. cost 26");
        assert_eq!(
            lines.next().unwrap(),
            "type:       1↦1 (complete-to-complete)"
        );
        // A `1↦1` statement over a one-world session runs as its relational
        // plan: no world-set representation is involved, so no `rep:`
        // report follows.
        assert_eq!(
            lines.next().unwrap(),
            "route:      relational (Section 5.3)"
        );
        assert_eq!(
            lines.next().unwrap(),
            "relational: (π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights))"
        );
        // Estimated vs. actual rows, per plan node: the statistics model
        // runs on the measured distinct counts (Dep: 3, Arr: 2 over the 5
        // flights), so the division's answer is estimated at 5/3 = 1 row
        // and every annotation below matches the trial evaluation exactly.
        // HFlights is two columns wide and five rows tall — every operator
        // stays on the row path.
        assert_eq!(lines.next().unwrap(), "cards:");
        assert_eq!(
            lines.next().unwrap(),
            "            ÷  est=1 actual=1 phys=row"
        );
        // `÷` divides HFlights itself (division matches columns by name),
        // so the column swap is never built: its card says so instead of
        // reporting a trial evaluation.
        assert_eq!(
            lines.next().unwrap(),
            "              π{Arr,Dep}  est=5 read through by ÷"
        );
        assert_eq!(
            lines.next().unwrap(),
            "                table HFlights  est=5 actual=5 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "              π{Dep}  est=3 actual=3 phys=row"
        );
        assert_eq!(
            lines.next().unwrap(),
            "                table HFlights  est=5 actual=5 phys=row"
        );
        // Each trial evaluation starts from an empty memo, so the counts
        // do not depend on what ran earlier in the process. Two misses:
        // `÷` and `π{Dep}`; the read-through `π{Arr,Dep}` never evaluates.
        // The memo is keyed by node identity only, so the line has no
        // count of structural (CSE) hits: the one hit is the second
        // reference to the shared `HFlights` node.
        assert_eq!(
            lines.next().unwrap(),
            "cache:      1 node hit(s), 2 miss(es)"
        );
        assert!(
            lines.next().is_none(),
            "unexpected extra lines:\n{rendered}"
        );

        // The paper's what-if query (Section 2) compiles too: `group by`
        // becomes `γ` and `not in` an antijoin `▷` with the subquery's
        // world table, and the sum is taken once per (Quantity, Year)
        // before the product with the world table. Two tuples of 2000
        // share a price; both count.
        let mut s = session();
        let item =
            |p: &str, q: i64, price: i64, y: i64| [p.into(), q.into(), price.into(), y.into()];
        let rows: [[relalg::Value; 4]; 5] = [
            item("P1", 1, 10, 2000),
            item("P2", 1, 10, 2000),
            item("P3", 2, 10, 2000),
            item("P1", 2, 5, 2001),
            item("P4", 3, 7, 2001),
        ];
        let rows: Vec<&[relalg::Value]> = rows.iter().map(|r| &r[..]).collect();
        s.register(
            "Lineitem",
            Relation::table(&["Product", "Quantity", "Price", "Year"], &rows),
        )
        .unwrap();
        let e = s
            .explain(
                "select possible A.Year, sum(A.Price) as Revenue \
                 from (select * from Lineitem choice of Year) as A \
                 where Quantity not in (select * from Lineitem choice of Quantity) \
                 group by A.Year;",
            )
            .unwrap();
        let rendered = e.render();
        let from_type: Vec<&str> = rendered
            .lines()
            .skip_while(|l| !l.starts_with("type:"))
            .collect();
        assert_eq!(
            from_type,
            [
                "type:       1↦1 (complete-to-complete)",
                "route:      relational (Section 5.3)",
                "relational: π{A.Year as Year,Revenue}(γ{A.Year,#1.Lineitem.Year,#2.Lineitem.Quantity;sum(Revenue) as Revenue}(((π{Quantity as A.Quantity,Year as A.Year,Year as #1.Lineitem.Year,Revenue}(γ{Quantity,Year;sum(Price) as Revenue}(Lineitem)) × ({⟨⟩} =⊲⊳ π{Quantity as #2.Lineitem.Quantity}(Lineitem))) ▷[A.Quantity=Quantity,#2.Lineitem.Quantity] π{Quantity,Quantity as #2.Lineitem.Quantity}(Lineitem))))",
                "cards:",
                "            π{A.Year as Year,Revenue}  est=12 actual=6 phys=row",
                "              γ{A.Year,#1.Lineitem.Year,#2.Lineitem.Quantity;sum(Revenue) as Revenue}  est=12 actual=6 phys=row",
                "                ▷[A.Quantity=Quantity,#2.Lineitem.Quantity=#2.Lineitem.Quantity]  est=15 actual=8 phys=row",
                "                  ×  est=15 actual=12 phys=row",
                "                    π{Quantity as A.Quantity,Year as A.Year,Year as #1.Lineitem.Year,Revenue}  est=5 actual=4 phys=row",
                "                      γ{Quantity,Year;sum(Price) as Revenue}  est=5 actual=4 phys=row",
                "                        table Lineitem  est=5 actual=5 phys=row",
                "                    =⊲⊳  est=3 actual=3 phys=row",
                "                      lit[1 rows]  est=1 actual=1 phys=row",
                "                      π{Quantity as #2.Lineitem.Quantity}  est=3 actual=3 phys=row",
                "                        table Lineitem  est=5 actual=5 phys=row",
                "                  π{Quantity,Quantity as #2.Lineitem.Quantity}  est=5 actual=3 phys=row",
                "                    table Lineitem  est=5 actual=5 phys=row",
                // Node-identity hits only (no CSE count): `simplify`
                // shares the three references to `Lineitem` as one node,
                // so the second and third are the two hits.
                "cache:      2 node hit(s), 9 miss(es)",
            ]
        );
    }

    /// A `certain` query over a `choice of` with enough distinct values
    /// trips the per-node factorization rule: the implicit worlds peak at
    /// the choice but collapse at the `cert`, so the whole plan runs
    /// factored and EXPLAIN reports the per-node decisions. Over one world
    /// the same statement runs as its relational plan, so the session here
    /// holds two worlds.
    #[test]
    fn explain_reports_factorized_rep_for_many_worlds() {
        let table = |n: i64| {
            Relation::from_rows(
                relalg::Schema::of(&["K", "V"]),
                (0..n).map(|i| vec![relalg::Value::Int(i), relalg::Value::Int(i % 3)]),
            )
            .unwrap()
        };
        let one = Session::with_world_set(worldset::WorldSet::single(vec![("T", table(20))]));
        let e1 = one.explain("select certain V from T choice of K;").unwrap();
        assert!(e1.relational_route);
        let ws = worldset::WorldSet::from_worlds(
            vec!["T".to_string()],
            [table(20), table(19)].map(|t| worldset::World::new(vec![t])),
        )
        .unwrap();
        let s = Session::with_world_set(ws);
        let e = s.explain("select certain V from T choice of K;").unwrap();
        assert!(!e.relational_route);
        assert_eq!(e.rep, "factored");
        assert!(e.implicit_worlds >= 20, "{}", e.implicit_worlds);
        let rendered = e.render();
        assert!(
            rendered.contains("rep:        factored (peak ≈"),
            "{rendered}"
        );
        assert!(!rendered.contains("route:"), "{rendered}");
        // The region root converts at the output; everything below is F.
        assert!(rendered.contains("rep=convert"), "{rendered}");
        assert!(rendered.contains("χ  rep=F ≈38"), "{rendered}");
        // A χ-ended query decodes its peak at the output: enumerated.
        let e2 = s.explain("select * from T choice of K;").unwrap();
        assert_eq!(e2.rep, "enum");
    }

    /// A select without world constructs is `1↦1`: over one world it runs
    /// as its relational plan, and `EXPLAIN` says so.
    #[test]
    fn explain_plain_select_takes_the_relational_route() {
        let s = session();
        let e = s
            .explain("select Arr from HFlights where Dep = 'FRA';")
            .unwrap();
        assert!(e.relational_route);
        assert!(e.render().contains("route:      relational (Section 5.3)"));
    }

    #[test]
    fn explain_rejects_non_select() {
        let s = session();
        assert!(s.explain("delete from HFlights;").is_err());
    }

    #[test]
    fn explain_execution_agrees_with_interpreter() {
        let mut s = session();
        let sql = "select certain Arr from HFlights choice of Dep;";
        let e = s.explain(sql).unwrap();
        let plan = e.relational_plan.unwrap();
        let mut catalog = relalg::Catalog::new();
        catalog.put(
            "HFlights",
            s.world_set().iter().next().unwrap().rel(0).clone(),
        );
        let via_plan = catalog.eval(&plan).unwrap();

        let out = s.execute(sql).unwrap();
        let crate::ExecOutcome::Rows { answers, .. } = &out[0] else {
            panic!()
        };
        // Same tuples; the plan's columns carry alias qualification.
        assert_eq!(via_plan.len(), answers[0].len());
        let plan_vals: Vec<_> = via_plan.iter().cloned().collect();
        let interp_vals: Vec<_> = answers[0].iter().cloned().collect();
        assert_eq!(plan_vals, interp_vals);
    }
}
