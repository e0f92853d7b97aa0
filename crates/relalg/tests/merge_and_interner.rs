//! Batch insertion and the string interner under concurrency.
//!
//! `Relation::merge_rows` (the DML insert path) must equal per-row
//! `insert`, and concurrent sessions interning overlapping strings must
//! agree on every `Sym` and on `Sym` order. Attribute names are interned
//! too: an `Attr` must read back its name, equal another exactly when
//! their names are equal, and order as its name does.

use relalg::{Attr, Relation, Tuple, Value};

const SEEDS: [u64; 3] = [5, 17, 31];

#[test]
fn merge_rows_equals_per_row_insert() {
    for seed in SEEDS {
        let base = datagen::flights(seed, 50, 20, 10);
        let extra = datagen::flights(seed ^ 0xabcd, 30, 20, 10);
        let rows: Vec<Tuple> = extra.iter().map(Tuple::from).collect();

        let mut by_insert = base.clone();
        for r in &rows {
            by_insert.insert(r.clone()).unwrap();
        }
        let by_merge = base.merge_rows(rows.iter().cloned()).unwrap();
        assert_eq!(by_insert, by_merge);
    }
    // Arity violations are rejected and empty batches are no-ops.
    let base = Relation::table(&["A"], &[&[1i64]]);
    assert!(base.merge_rows(vec![Tuple::new()]).is_err());
    assert_eq!(base.merge_rows(Vec::<Tuple>::new()).unwrap(), base.clone());
}

/// Names whose order the 8-byte prefix alone cannot decide (equal first 8
/// bytes, a name that is a prefix of another, the empty name) and names
/// with multi-byte UTF-8.
const NAMES: [&str; 10] = [
    "#1.Lineitem.Quantity",
    "#1.Lineitem.Year",
    "Census.SSN",
    "Census.SSN2",
    "Census.S",
    "",
    "Straße",
    "Straßenbahn",
    "Größe",
    "Ärger",
];

#[test]
fn attr_order_and_equality_follow_the_names() {
    for a in NAMES {
        assert_eq!(Attr::new(a).name(), a);
        for b in NAMES {
            let (x, y) = (Attr::new(a), Attr::new(b));
            assert_eq!(x == y, a == b, "`{a}` == `{b}`");
            assert_eq!(x.cmp(&y), a.cmp(b), "`{a}` vs `{b}`");
            assert_eq!(x.partial_cmp(&y), Some(a.cmp(b)), "`{a}` vs `{b}`");
        }
    }
    let mut attrs: Vec<Attr> = NAMES.iter().map(|n| Attr::new(n)).collect();
    attrs.sort();
    let mut names = NAMES.to_vec();
    names.sort();
    assert_eq!(attrs.iter().map(Attr::name).collect::<Vec<_>>(), names);
    // Qualification builds the name a fresh `Attr` of that text has.
    assert_eq!(
        Attr::new("Lineitem.Year").qualified("#1"),
        Attr::new(NAMES[1])
    );
}

#[test]
fn interner_concurrent_overlapping_sets_are_consistent() {
    // 8 threads intern overlapping string sets concurrently, as values and
    // as attribute names; every thread must observe the same Sym and the
    // same Attr for the same string, and both orders must stay exactly
    // lexicographic regardless of interleaving.
    let words: Vec<String> = (0..800)
        .map(|i| format!("stress-{:03}-{}", i % 200, i % 7))
        .collect();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let words = words.clone();
            std::thread::spawn(move || {
                let mut syms = Vec::with_capacity(words.len());
                // Each thread walks the set from a different offset so the
                // first-interning thread differs per string. Odd threads
                // meet a name first as an attribute, even ones as a value.
                for i in 0..words.len() {
                    let w = &words[(i + t * 97) % words.len()];
                    let (a, v) = if t % 2 == 1 {
                        let a = Attr::new(w);
                        (a, Value::str(w))
                    } else {
                        let v = Value::str(w);
                        (Attr::new(w), v)
                    };
                    let q = Attr::new(&format!("#{t}.{w}"));
                    syms.push((w.clone(), v, a, q));
                }
                syms
            })
        })
        .collect();
    let per_thread: Vec<Vec<(String, Value, Attr, Attr)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Same string -> same interned value and name in every thread.
    let reference: std::collections::HashMap<&String, (Value, Attr)> = per_thread[0]
        .iter()
        .map(|(w, v, a, _)| (w, (*v, a.clone())))
        .collect();
    for (t, thread_syms) in per_thread.iter().enumerate() {
        for (w, v, a, q) in thread_syms {
            assert_eq!(reference[w].0, *v, "inconsistent Sym for {w}");
            assert_eq!(reference[w].1, *a, "inconsistent Attr for {w}");
            assert_eq!(a.name(), w);
            assert_eq!(*q, a.qualified(&format!("#{t}")));
        }
    }

    // Sym and Attr ordering match string ordering exactly.
    let mut by_str: Vec<&String> = words.iter().collect();
    by_str.sort();
    by_str.dedup();
    let mut by_sym: Vec<&String> = words.iter().collect();
    by_sym.sort_by_key(|w| Value::str(w));
    by_sym.dedup();
    assert_eq!(by_sym, by_str);
    let mut by_attr: Vec<&String> = words.iter().collect();
    by_attr.sort_by_key(|w| Attr::new(w));
    by_attr.dedup();
    assert_eq!(by_attr, by_str);
    let mut qualified: Vec<Attr> = per_thread
        .iter()
        .flatten()
        .map(|(_, _, _, q)| q.clone())
        .collect();
    qualified.sort();
    qualified.dedup();
    let mut qualified_names: Vec<String> = (0..8)
        .flat_map(|t| words.iter().map(move |w| format!("#{t}.{w}")))
        .collect();
    qualified_names.sort();
    qualified_names.dedup();
    assert_eq!(
        qualified.iter().map(Attr::name).collect::<Vec<_>>(),
        qualified_names
    );
}
