//! The repair-by-key extension and the Proposition-4.2 reduction.
//!
//! `repair-by-key_U(q)` generates one possible world per *maximal repair* of
//! the answer relation under the key constraint `U → rest`: within every
//! group of tuples agreeing on `U`, exactly one tuple is kept. The number of
//! repairs is the product of group sizes — exponential — and Proposition 4.2
//! notes that evaluation of WSA + repair-by-key is NP-hard, via a reduction
//! from graph 3-colorability. This module implements that reduction as an
//! executable witness: [`is_three_colorable`] decides 3-colorability by
//! running a two-statement WSA program.
//!
//! The hardness needs the repaired relation to meet itself: the check joins
//! `Coloring` with itself. When the repair of a complete relation is only
//! selected, projected, renamed or joined with complete relations before
//! `poss`/`cert` — the key-local fragment — the answers are first-order: a
//! value is possible iff some tuple yields it, and certain iff some key
//! group yields it from every one of its tuples. `wsa_inlined` translates
//! that fragment into one relational plan; every other shape enumerates
//! the repairs.

use relalg::{attrs, Pred, Relation, Result, Value};
use worldset::WorldSet;

use crate::{eval_named, eval_program, Query, Statement};

/// An undirected graph on nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// Number of nodes.
    pub n: usize,
    /// Edges as node pairs.
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// A graph with `n` nodes and the given edges.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Graph {
        Graph { n, edges }
    }

    /// The complete graph `K_n` (3-colorable iff `n ≤ 3`).
    pub fn complete(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph { n, edges }
    }

    /// The cycle `C_n` (3-colorable for every `n ≠ 0`; 2-colorable iff even).
    pub fn cycle(n: usize) -> Graph {
        let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph { n, edges }
    }
}

const COLORS: [&str; 3] = ["red", "green", "blue"];

/// The input world-set of the reduction: a single world containing
/// `NodeColor(N, Color)` — every node paired with every color — and
/// `Edge(Src, Dst)`.
pub fn coloring_input(g: &Graph) -> WorldSet {
    let mut nc_rows: Vec<Vec<Value>> = Vec::with_capacity(g.n * 3);
    for v in 0..g.n {
        for c in COLORS {
            nc_rows.push(vec![Value::int(v as i64), Value::str(c)]);
        }
    }
    let node_color =
        Relation::from_rows(relalg::Schema::of(&["N", "Color"]), nc_rows).expect("arity");
    let edge_rows: Vec<Vec<Value>> = g
        .edges
        .iter()
        .map(|&(u, v)| vec![Value::int(u as i64), Value::int(v as i64)])
        .collect();
    let edge = Relation::from_rows(relalg::Schema::of(&["Src", "Dst"]), edge_rows).expect("arity");
    WorldSet::single(vec![("NodeColor", node_color), ("Edge", edge)])
}

/// The two-step reduction program.
///
/// 1. `Coloring ← repair-key_N(NodeColor)` — one world per assignment of a
///    single color to every node (`3ⁿ` worlds).
/// 2. The verification query: a world is *good* iff no edge is
///    monochromatic. Using nullary (0-attribute) relations as world-local
///    booleans, the answer of
///    `poss(π∅(NodeColor) − π∅(Bad))` is `{⟨⟩}` iff **some** world is good —
///    i.e. iff the graph is 3-colorable.
pub fn coloring_program() -> (Vec<Statement>, Query) {
    let repair = Statement::new(
        "Coloring",
        Query::rel("NodeColor").repair_by_key(attrs(&["N"])),
    );

    let c1 = Query::rel("Coloring").rename(vec![
        ("N".into(), "N1".into()),
        ("Color".into(), "C1".into()),
    ]);
    let c2 = Query::rel("Coloring").rename(vec![
        ("N".into(), "N2".into()),
        ("Color".into(), "C2".into()),
    ]);
    let bad = c1.product(c2).product(Query::rel("Edge")).select(
        Pred::eq_attr("N1", "Src")
            .and(Pred::eq_attr("N2", "Dst"))
            .and(Pred::eq_attr("C1", "C2")),
    );
    let check = Query::rel("NodeColor")
        .project(vec![])
        .difference(bad.project(vec![]))
        .poss();
    (vec![repair], check)
}

/// Decide 3-colorability by evaluating the reduction. The work is
/// exponential in `g.n` (that is the point of Proposition 4.2) — keep `n`
/// small.
pub fn is_three_colorable(g: &Graph) -> Result<bool> {
    if g.n == 0 {
        return Ok(true);
    }
    let ws = coloring_input(g);
    let (program, check) = coloring_program();
    let after_repair = eval_program(&program, &ws)?;
    let out = eval_named(&check, &after_repair, "Colorable")?;
    // The check query is 1↦1: its answer is the same in every world.
    let colorable = out
        .iter()
        .next()
        .map(|w| !w.last().is_empty())
        .unwrap_or(false);
    Ok(colorable)
}

/// Reference implementation: brute-force search over all colorings, used to
/// cross-validate the WSA reduction in tests.
pub fn brute_force_three_colorable(g: &Graph) -> bool {
    if g.n == 0 {
        return true;
    }
    let mut assign = vec![0u8; g.n];
    loop {
        if g.edges.iter().all(|&(u, v)| assign[u] != assign[v]) {
            return true;
        }
        // Increment base-3 counter.
        let mut i = 0;
        loop {
            if i == g.n {
                return false;
            }
            assign[i] += 1;
            if assign[i] < 3 {
                break;
            }
            assign[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k3_is_colorable_k4_is_not() {
        assert!(is_three_colorable(&Graph::complete(3)).unwrap());
        assert!(!is_three_colorable(&Graph::complete(4)).unwrap());
    }

    #[test]
    fn cycles() {
        assert!(is_three_colorable(&Graph::cycle(3)).unwrap());
        assert!(is_three_colorable(&Graph::cycle(4)).unwrap());
        assert!(is_three_colorable(&Graph::cycle(5)).unwrap());
    }

    #[test]
    fn empty_and_edgeless() {
        assert!(is_three_colorable(&Graph::new(0, vec![])).unwrap());
        assert!(is_three_colorable(&Graph::new(3, vec![])).unwrap());
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let cases = [
            Graph::complete(2),
            Graph::complete(3),
            Graph::complete(4),
            Graph::cycle(4),
            Graph::cycle(5),
            Graph::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ];
        for g in cases {
            assert_eq!(
                is_three_colorable(&g).unwrap(),
                brute_force_three_colorable(&g),
                "graph {g:?}"
            );
        }
    }

    #[test]
    fn repair_world_count_is_product_of_group_sizes() {
        let g = Graph::new(3, vec![(0, 1)]);
        let ws = coloring_input(&g);
        let (program, _) = coloring_program();
        let out = eval_program(&program, &ws).unwrap();
        assert_eq!(out.len(), 27); // 3^3 colorings
    }
}
