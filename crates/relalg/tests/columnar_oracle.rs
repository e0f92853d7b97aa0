//! Oracle suite for the versioned, statistics-carrying storage layer and
//! the physical-operator layer built on it:
//!
//! * the **vectorized selection** path is pinned against the row path
//!   (the `columnar` session toggle off and on) and an independent
//!   semantic oracle;
//! * projection, the hash joins (natural, theta) and the semijoin, whose
//!   one kernel runs at every width, and grouping (`partition_by`,
//!   `partition_by_project`, `divide`) are pinned on wide inputs, inline
//!   ones and ones wider than `INLINE_TUPLE_CAP` whose tuples spill to the
//!   heap, against `BTreeSet<Vec<Value>>` and nested-loop oracles;
//! * **per-column statistics** are pinned against per-column set oracles;
//! * the **epoch tag** semantics (clones share, constructors stamp fresh,
//!   in-place mutation bumps) are pinned.

use std::collections::BTreeSet;

use proptest::prelude::*;
use relalg::config::{overlay, SessionConfig};
use relalg::{attr, attrs, CmpOp, Operand, Pred, Relation, Schema, Tuple, Value, INLINE_TUPLE_CAP};

/// A width whose tuples spill to the heap.
const SPILLED: usize = INLINE_TUPLE_CAP + 2;

/// A deterministic wide relation: `width` columns, per-column domains of
/// different sizes so distinct counts differ per column.
fn wide_rel(seed: i64, rows: usize, width: usize) -> Relation {
    let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Relation::from_rows(
        Schema::of(&name_refs),
        (0..rows as i64).map(|i| {
            (0..width as i64)
                .map(|c| Value::Int((i * (seed + c * 7) + c) % (3 + c * 5)))
                .collect::<Tuple>()
        }),
    )
    .unwrap()
}

/// The projection oracle: a raw row walk into a sorted set.
fn o_project(rel: &Relation, cols: &[&str]) -> BTreeSet<Vec<Value>> {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| rel.schema().index_of(&attr(c)).unwrap())
        .collect();
    rel.iter()
        .map(|t| idx.iter().map(|&i| t[i]).collect())
        .collect()
}

fn assert_is(rel: &Relation, oracle: &BTreeSet<Vec<Value>>, what: &str) {
    let got: Vec<Vec<Value>> = rel.iter().map(|t| t.to_vec()).collect();
    let want: Vec<Vec<Value>> = oracle.iter().cloned().collect();
    assert_eq!(got, want, "{what}: content or order diverged from oracle");
    assert!(
        rel.tuples().windows(2).all(|w| w[0] < w[1]),
        "{what}: not strictly sorted"
    );
}

#[test]
fn wide_projection_matches_oracle() {
    let inputs = [
        datagen::lineitem_q6(7, 600, 3), // 5 columns, string + int
        datagen::lineitem_q6(23, 64, 2), // exactly at the row threshold
        wide_rel(11, 900, SPILLED),      // heap tuples, skewed domains
        wide_rel(3, 120, 6),             // small, heavy duplication
    ];
    let col_sets: [&[&str]; 3] = [&["C1"], &["C4", "C1"], &["C2", "C0", "C5"]];
    for rel in &inputs {
        let names: Vec<&str> = if rel.schema().contains(&attr("Product")) {
            vec!["Year", "Product"]
        } else {
            vec![]
        };
        let projections: Vec<Vec<&str>> = if names.is_empty() {
            col_sets.iter().map(|s| s.to_vec()).collect()
        } else {
            vec![vec!["Quantity"], names]
        };
        for cols in projections {
            let a: Vec<relalg::Attr> = attrs(&cols);
            let oracle = o_project(rel, &cols);
            assert_is(&rel.project(&a).unwrap(), &oracle, &format!("{cols:?}"));
        }
    }
}

#[test]
fn wide_distinct_values_match_oracle() {
    let rel = wide_rel(5, 500, SPILLED);
    let oracle = o_project(&rel, &["C3"]);
    let vals = rel.distinct_values(&attrs(&["C3"])).unwrap();
    let got: Vec<Vec<Value>> = vals.iter().map(|t| t.to_vec()).collect();
    let want: Vec<Vec<Value>> = oracle.iter().cloned().collect();
    assert_eq!(got, want, "distinct_values");
}

#[test]
fn stats_match_per_column_oracles() {
    for rel in [
        datagen::lineitem_q6(13, 400, 4),
        wide_rel(9, 333, 6),
        wide_rel(9, 333, SPILLED),
        Relation::empty(Schema::of(&["A", "B"])),
    ] {
        let stats = rel.stats();
        assert_eq!(stats.rows, rel.len() as u64);
        assert_eq!(stats.cols.len(), rel.schema().arity());
        for (i, col) in stats.cols.iter().enumerate() {
            let oracle: BTreeSet<Value> = rel.iter().map(|t| t[i]).collect();
            assert_eq!(col.distinct, oracle.len() as u64, "col {i} distinct");
        }
    }
}

#[test]
fn epoch_tags_identify_content() {
    let r = wide_rel(2, 100, 5);
    // A clone is the same content: same tag.
    let c = r.clone();
    assert_eq!(r.epoch(), c.epoch());
    // An independently built, content-equal relation: different tag.
    let rebuilt = wide_rel(2, 100, 5);
    assert_ne!(r.epoch(), rebuilt.epoch());
    assert_eq!(r, rebuilt);
    // Every constructing operation stamps a fresh tag.
    let proj = r.project(&attrs(&["C1"])).unwrap();
    assert_ne!(proj.epoch(), r.epoch());
    let merged = r.merge_rows(vec![vec![Value::Int(-1); 5]]).unwrap();
    assert_ne!(merged.epoch(), r.epoch());
    // In-place mutation bumps the tag (the old content is gone)…
    let mut m = r.clone();
    m.insert(vec![Value::Int(-7); 5]).unwrap();
    assert_ne!(m.epoch(), r.epoch());
    // …but a no-op insert (duplicate) or remove (absent) keeps it.
    let mut n = r.clone();
    let first = n.iter().next().unwrap().to_vec();
    n.insert(first.clone()).unwrap();
    assert_eq!(n.epoch(), r.epoch());
    assert!(!n.remove(&[Value::Int(12345); 5]));
    assert_eq!(n.epoch(), r.epoch());
}

/// Run `f` twice: under a `columnar = off` overlay, then with the default
/// (columnar on).
fn row_vs_columnar<R>(f: impl Fn() -> R) -> (R, R) {
    let mut off = SessionConfig::new();
    off.set("columnar", "off").unwrap();
    let row = {
        let _g = overlay(&off);
        f()
    };
    (row, f())
}

/// A selection oracle evaluated directly in Rust (no `Pred` machinery).
fn o_select(rel: &Relation, keep: impl Fn(&Tuple) -> bool) -> BTreeSet<Vec<Value>> {
    rel.iter().filter(|t| keep(t)).map(|t| t.to_vec()).collect()
}

#[test]
fn vectorized_filter_matches_row_path_and_oracle() {
    let ge = |c: &str, k: i64| {
        Pred::cmp(
            Operand::Attr(attr(c)),
            CmpOp::Ge,
            Operand::Const(Value::Int(k)),
        )
    };
    // (pred, semantic oracle) pairs: pure conjunctions, mixed
    // vectorizable + residual disjunction, attribute-to-attribute
    // comparison, and an all-residual predicate (columnar falls back).
    type Keep = Box<dyn Fn(&Tuple) -> bool>;
    let cases: Vec<(Pred, Keep)> = vec![
        (
            Pred::eq_const("C1", 2).and(ge("C3", 5)),
            Box::new(|t: &Tuple| t[1] == Value::Int(2) && t[3] >= Value::Int(5)),
        ),
        (
            ge("C2", 3)
                .and(Pred::eq_const("C0", 1).or(Pred::eq_const("C4", 0)))
                .and(Pred::eq_const("C5", 4)),
            Box::new(|t: &Tuple| {
                t[2] >= Value::Int(3)
                    && (t[0] == Value::Int(1) || t[4] == Value::Int(0))
                    && t[5] == Value::Int(4)
            }),
        ),
        (
            Pred::cmp(
                Operand::Attr(attr("C0")),
                CmpOp::Lt,
                Operand::Attr(attr("C3")),
            ),
            Box::new(|t: &Tuple| t[0] < t[3]),
        ),
        (
            Pred::eq_const("C1", 1).or(Pred::eq_const("C2", 2)),
            Box::new(|t: &Tuple| t[1] == Value::Int(1) || t[2] == Value::Int(2)),
        ),
    ];
    for rel in [wide_rel(7, 700, 6), wide_rel(13, 64, SPILLED)] {
        // Force stats on one input so the selectivity-ordered route runs.
        let _ = rel.stats();
        for (pred, keep) in &cases {
            let oracle = o_select(&rel, keep);
            let (row, col) = row_vs_columnar(|| rel.select(pred));
            let (row, col) = (row.unwrap(), col.unwrap());
            assert_eq!(row, col, "row vs columnar diverged ({pred})");
            assert_is(&col, &oracle, &format!("σ[{pred}]"));
        }
    }
    // Error parity: an unknown attribute fails identically on both paths.
    let rel = wide_rel(7, 100, 6);
    let bad = Pred::eq_const("Nope", 1).and(Pred::eq_const("C0", 0));
    let (row, col) = row_vs_columnar(|| rel.select(&bad));
    assert!(row.is_err() && col.is_err());
}

/// The natural-join oracle: a nested-loop walk matching common attributes.
fn o_natural_join(l: &Relation, r: &Relation) -> BTreeSet<Vec<Value>> {
    let common = l.schema().common(r.schema());
    let l_idx: Vec<usize> = common
        .iter()
        .map(|a| l.schema().index_of(a).unwrap())
        .collect();
    let r_idx: Vec<usize> = common
        .iter()
        .map(|a| r.schema().index_of(a).unwrap())
        .collect();
    let r_private: Vec<usize> = (0..r.schema().arity())
        .filter(|i| !r_idx.contains(i))
        .collect();
    let mut out = BTreeSet::new();
    for lt in l.iter() {
        for rt in r.iter() {
            if l_idx.iter().zip(&r_idx).all(|(&li, &ri)| lt[li] == rt[ri]) {
                let mut row: Vec<Value> = lt.to_vec();
                row.extend(r_private.iter().map(|&i| rt[i]));
                out.insert(row);
            }
        }
    }
    out
}

/// Two wide relations sharing the columns `C2`,`C3` (domains kept small so
/// joins actually match).
fn join_inputs(rows: usize) -> (Relation, Relation) {
    let l = wide_rel(7, rows, SPILLED);
    let names = ["C2", "C3", "D0", "D1", "D2"];
    let r = Relation::from_rows(
        Schema::of(&names),
        (0..rows as i64).map(|i| {
            [
                Value::Int((i * 21 + 2) % 13), // C2's domain
                Value::Int((i * 28 + 3) % 18), // C3's domain
                Value::Int(i % 7),
                Value::Int((i * 3) % 5),
                Value::Int((i * 5 + 1) % 9),
            ]
            .into_iter()
            .collect::<Tuple>()
        }),
    )
    .unwrap();
    (l, r)
}

#[test]
fn wide_joins_and_semijoins_match_oracle() {
    for rows in [80usize, 600] {
        let (l, r) = join_inputs(rows);
        let nj_oracle = o_natural_join(&l, &r);
        // Natural join: common-attribute hash keys.
        assert_is(&l.natural_join(&r), &nj_oracle, &format!("⋈ {rows} rows"));

        // Semijoin: key membership in the index over `r`.
        let sj_oracle: BTreeSet<Vec<Value>> = nj_oracle
            .iter()
            .map(|t| t[..l.schema().arity()].to_vec())
            .collect();
        assert_is(&l.semijoin(&r), &sj_oracle, &format!("⋉ {rows} rows"));

        // Theta join: extracted equi-keys plus a residual conjunct.
        let rr = r
            .rename(&[
                ("C2".into(), "E2".into()),
                ("C3".into(), "E3".into()),
                ("D0".into(), "E0".into()),
                ("D1".into(), "E1".into()),
                ("D2".into(), "E4".into()),
            ])
            .unwrap();
        let pred = Pred::eq_attr("C2", "E2").and(Pred::cmp(
            Operand::Attr(attr("C4")),
            CmpOp::Ge,
            Operand::Attr(attr("E0")),
        ));
        let tj_oracle: BTreeSet<Vec<Value>> = l
            .iter()
            .flat_map(|lt| {
                rr.iter()
                    .filter(move |rt| lt[2] == rt[0] && lt[4] >= rt[2])
                    .map(move |rt| {
                        let mut row = lt.to_vec();
                        row.extend(rt.iter().copied());
                        row
                    })
            })
            .collect();
        assert_is(
            &l.theta_join(&rr, &pred).unwrap(),
            &tj_oracle,
            &format!("⋈[θ] {rows} rows"),
        );
    }
}

#[test]
fn columnar_grouping_matches_row_path_and_oracle() {
    for rel in [wide_rel(5, 500, SPILLED), wide_rel(11, 64, 6)] {
        let key = attrs(&["C1", "C2"]);
        // partition_by: group membership oracle.
        let mut oracle: std::collections::BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> =
            Default::default();
        for t in rel.iter() {
            oracle
                .entry(vec![t[1], t[2]])
                .or_default()
                .insert(t.to_vec());
        }
        let parts = rel.partition_by(&key).unwrap();
        assert_eq!(parts.len(), oracle.len());
        for ((k, part), (ok, op)) in parts.iter().zip(&oracle) {
            assert_eq!(&k.to_vec(), ok, "partition key order");
            assert_is(part, op, "partition content");
        }

        // partition_by_project, fast layout (keep = leading columns,
        // key = the rest) and a fallback layout, against the projected
        // group oracle.
        let arity = rel.schema().arity();
        let keep: Vec<relalg::Attr> = rel.schema().attrs()[..2].to_vec();
        let pkey: Vec<relalg::Attr> = rel.schema().attrs()[2..arity].to_vec();
        for (k_idx, k_attrs) in [((2..arity).collect::<Vec<_>>(), &pkey), (vec![1, 2], &key)] {
            let mut oracle: std::collections::BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> =
                Default::default();
            for t in rel.iter() {
                oracle
                    .entry(k_idx.iter().map(|&i| t[i]).collect())
                    .or_default()
                    .insert(t[..2].to_vec());
            }
            let parts = rel.partition_by_project(k_attrs, &keep).unwrap();
            assert_eq!(parts.len(), oracle.len());
            for ((k, part), (ok, op)) in parts.iter().zip(&oracle) {
                assert_eq!(&k.to_vec(), ok, "χπ key order");
                assert_is(part, op, "χπ content");
            }
        }

        // divide: against the classical RA definition built from
        // independently checked operators.
        let divisor = rel
            .project(&attrs(&["C5"]))
            .unwrap()
            .select(&Pred::cmp(
                Operand::Attr(attr("C5")),
                CmpOp::Ge,
                Operand::Const(Value::Int(1)),
            ))
            .unwrap();
        let got = rel.divide(&divisor).unwrap();
        let a: Vec<relalg::Attr> = rel.schema().minus(divisor.schema().attrs());
        let pa = rel.project(&a).unwrap();
        let all_pairs = pa.product(&divisor).unwrap();
        let missing = all_pairs
            .difference(&all_pairs.semijoin(&rel))
            .unwrap()
            .project(&a)
            .unwrap();
        let want = pa.difference(&missing).unwrap();
        assert_eq!(got, want, "÷ classical-definition oracle");
    }
}

// ---- proptest: random wide inputs through projection, σ, ⋈, ⋉, χ, ÷ ----

type Pair = (i64, i64);
type WideRow = ((Pair, Pair), (Pair, Pair));

fn wide_rows() -> impl Strategy<Value = Vec<WideRow>> {
    // Above the columnar row threshold, tiny domains for heavy dedup.
    proptest::collection::vec(
        (
            ((0i64..4, 0i64..3), (0i64..4, 0i64..2)),
            ((0i64..5, 0i64..3), (0i64..2, 0i64..3)),
        ),
        64..200,
    )
}

/// The proptest relation: `SPILLED` columns `A`..`F`, `P`, `Q`.
fn prop_rel(rows: &[WideRow]) -> Relation {
    let rel = Relation::from_rows(
        Schema::of(&["A", "B", "C", "D", "E", "F", "P", "Q"]),
        rows.iter().map(|&(((a, b), (c, d)), ((e, f), (p, q)))| {
            [a, b, c, d, e, f, p, q]
                .into_iter()
                .map(Value::Int)
                .collect::<Tuple>()
        }),
    )
    .unwrap();
    assert_eq!(rel.schema().arity(), SPILLED);
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn projection_paths_agree_on_random_wide_inputs(rows in wide_rows(), pick in 0usize..4) {
        let rel = prop_rel(&rows);
        let cols: Vec<&str> = match pick {
            0 => vec!["D"],
            1 => vec!["F", "B"],
            2 => vec!["E", "A", "C"],
            _ => vec!["B", "Q", "A", "F", "D", "P", "C"],
        };
        let a = attrs(&cols);
        let oracle = o_project(&rel, &cols);
        let got: Vec<Vec<Value>> = rel.project(&a).unwrap().iter().map(|t| t.to_vec()).collect();
        let want: Vec<Vec<Value>> = oracle.iter().cloned().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filter_join_group_paths_agree_on_random_wide_inputs(
        rows in wide_rows(),
        k in 0i64..4,
    ) {
        let rel = prop_rel(&rows);
        let pred = Pred::eq_const("B", k).and(Pred::cmp(
            Operand::Attr(attr("D")),
            CmpOp::Ge,
            Operand::Const(Value::Int(1)),
        ));
        let other = rel
            .rename(&[
                ("A".into(), "G".into()),
                ("B".into(), "H".into()),
                ("E".into(), "I".into()),
                ("F".into(), "J".into()),
            ])
            .unwrap();
        let (rowp, colp) = row_vs_columnar(|| {
            (
                rel.select(&pred).unwrap(),
                rel.partition_by(&attrs(&["C", "D"])).unwrap(),
                rel.divide(&rel.project(&attrs(&["F"])).unwrap()).unwrap(),
            )
        });
        prop_assert_eq!(rowp, colp);
        let nj_oracle = o_natural_join(&rel, &other);
        let got: Vec<Vec<Value>> = rel.natural_join(&other).iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, nj_oracle.iter().cloned().collect::<Vec<_>>());
        let sj_oracle: BTreeSet<Vec<Value>> = nj_oracle.iter().map(|t| t[..SPILLED].to_vec()).collect();
        let got: Vec<Vec<Value>> = rel.semijoin(&other).iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, sj_oracle.into_iter().collect::<Vec<_>>());
    }
}
