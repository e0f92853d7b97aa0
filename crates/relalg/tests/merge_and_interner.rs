//! Batch insertion and the string interner under concurrency.
//!
//! `Relation::merge_rows` (the DML insert path) must equal per-row
//! `insert`, and concurrent sessions interning overlapping strings must
//! agree on every `Sym` and on `Sym` order.

use relalg::{Relation, Tuple, Value};

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

#[test]
fn interner_concurrent_overlapping_sets_are_consistent() {
    // 8 threads intern overlapping string sets concurrently; every thread
    // must observe the same Sym for the same string, and Sym order must
    // stay exactly lexicographic regardless of interleaving.
    let words: Vec<String> = (0..800)
        .map(|i| format!("stress-{:03}-{}", i % 200, i % 7))
        .collect();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let words = words.clone();
            std::thread::spawn(move || {
                let mut syms = Vec::with_capacity(words.len());
                // Each thread walks the set from a different offset so the
                // first-interning thread differs per string.
                for i in 0..words.len() {
                    let w = &words[(i + t * 97) % words.len()];
                    syms.push((w.clone(), Value::str(w)));
                }
                syms
            })
        })
        .collect();
    let per_thread: Vec<Vec<(String, Value)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Same string -> same interned value in every thread.
    let reference: std::collections::HashMap<&String, Value> =
        per_thread[0].iter().map(|(w, v)| (w, *v)).collect();
    for thread_syms in &per_thread {
        for (w, v) in thread_syms {
            assert_eq!(reference[w], *v, "inconsistent Sym for {w}");
        }
    }

    // Sym ordering matches string ordering exactly.
    let mut by_sym: Vec<&String> = words.iter().collect();
    let mut by_str: Vec<&String> = words.iter().collect();
    by_sym.sort_by_key(|w| Value::str(w));
    by_sym.dedup();
    by_str.sort();
    by_str.dedup();
    assert_eq!(by_sym, by_str);
}
