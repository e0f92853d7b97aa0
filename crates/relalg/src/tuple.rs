use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::Value;

/// Number of values a [`Tuple`] stores inline before spilling to the heap.
/// Most relations in the paper's workloads are 1–4 columns wide (world
/// tables, flights, key/value pairs), and the id-column copies of the
/// Section-5.3 `repair by key` plan are 5–6 wide, so the common case never
/// allocates. With 16-byte values six fit in the 104 bytes a `Tuple` takes
/// anyway (asserted below).
pub const INLINE_TUPLE_CAP: usize = 6;

/// A tuple: one value per schema attribute, in column order.
///
/// Values are stored inline for arities up to [`INLINE_TUPLE_CAP`] and on
/// the heap above that. Since [`Value`] is `Copy` (strings are interned
/// [`crate::Sym`] handles), cloning, comparing and hashing an inline tuple
/// is pure word work — no allocation, no pointer chasing.
///
/// `Tuple` dereferences to `&[Value]`, so indexing, iteration, `len` and
/// every other slice read works as it did when `Tuple` was a `Vec<Value>`.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        vals: [Value; INLINE_TUPLE_CAP],
    },
    Heap(Vec<Value>),
}

const _: () = assert!(std::mem::size_of::<Tuple>() == 104);

impl Tuple {
    /// The empty tuple `⟨⟩`.
    pub fn new() -> Tuple {
        Tuple(Repr::Inline {
            len: 0,
            vals: [Value::Pad; INLINE_TUPLE_CAP],
        })
    }

    /// An empty tuple with room for `n` values (heap-allocated only when
    /// `n` exceeds the inline capacity).
    pub fn with_capacity(n: usize) -> Tuple {
        if n <= INLINE_TUPLE_CAP {
            Tuple::new()
        } else {
            Tuple(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The values as a mutable slice (in-place updates; length is fixed).
    pub fn as_mut_slice(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Append one value, spilling to the heap past the inline capacity.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            Repr::Inline { len, vals } => {
                let n = *len as usize;
                if n < INLINE_TUPLE_CAP {
                    vals[n] = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(INLINE_TUPLE_CAP * 2);
                    heap.extend_from_slice(&vals[..]);
                    heap.push(v);
                    self.0 = Repr::Heap(heap);
                }
            }
            Repr::Heap(heap) => heap.push(v),
        }
    }

    /// Append all values of a slice.
    pub fn extend_from_slice(&mut self, vs: &[Value]) {
        match &mut self.0 {
            Repr::Inline { len, vals } if *len as usize + vs.len() <= INLINE_TUPLE_CAP => {
                let n = *len as usize;
                vals[n..n + vs.len()].copy_from_slice(vs);
                *len += vs.len() as u8;
            }
            Repr::Inline { len, vals } => {
                let n = *len as usize;
                let mut heap = Vec::with_capacity(n + vs.len());
                heap.extend_from_slice(&vals[..n]);
                heap.extend_from_slice(vs);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.extend_from_slice(vs),
        }
    }

    /// Remove all values, keeping any heap capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(heap) => heap.clear(),
        }
    }

    /// The concatenation `self ++ other` as a new tuple.
    pub fn concat(&self, other: &[Value]) -> Tuple {
        let mut out = Tuple::with_capacity(self.len() + other.len());
        out.extend_from_slice(self);
        out.extend_from_slice(other);
        out
    }

    /// A tuple holding `n` copies of `v`.
    pub fn filled(v: Value, n: usize) -> Tuple {
        if n <= INLINE_TUPLE_CAP {
            Tuple(Repr::Inline {
                len: n as u8,
                vals: [v; INLINE_TUPLE_CAP],
            })
        } else {
            Tuple(Repr::Heap(vec![v; n]))
        }
    }
}

impl Default for Tuple {
    fn default() -> Tuple {
        Tuple::new()
    }
}

impl Deref for Tuple {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl DerefMut for Tuple {
    fn deref_mut(&mut self) -> &mut [Value] {
        self.as_mut_slice()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash as a slice so inline and heap representations of the same
        // tuple hash identically.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        if v.len() <= INLINE_TUPLE_CAP {
            let mut t = Tuple::new();
            t.extend_from_slice(&v);
            t
        } else {
            Tuple(Repr::Heap(v))
        }
    }
}

impl From<&[Value]> for Tuple {
    fn from(v: &[Value]) -> Tuple {
        let mut t = Tuple::with_capacity(v.len());
        t.extend_from_slice(v);
        t
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut t = Tuple::new();
        for v in iter {
            t.push(v);
        }
        t
    }
}

impl Extend<Value> for Tuple {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            // The owned-iterator contract wants a Vec either way; the
            // inline copy is `INLINE_TUPLE_CAP` values.
            #[allow(clippy::unnecessary_to_owned)]
            Repr::Inline { len, vals } => vals[..len as usize].to_vec().into_iter(),
            Repr::Heap(v) => v.into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(ns: &[i64]) -> Tuple {
        ns.iter().map(|&n| Value::Int(n)).collect()
    }

    #[test]
    fn arity_six_is_inline_and_seven_spills() {
        for n in 0..=6 {
            assert!(
                matches!(ints(&vec![1; n]).0, Repr::Inline { .. }),
                "arity {n}"
            );
            assert!(matches!(
                Tuple::filled(Value::Pad, n).0,
                Repr::Inline { .. }
            ));
        }
        assert!(matches!(ints(&[1; 7]).0, Repr::Heap(_)));
        assert!(matches!(Tuple::filled(Value::Pad, 7).0, Repr::Heap(_)));
        assert!(matches!(
            ints(&[1; 3]).concat(&ints(&[2; 4])).0,
            Repr::Heap(_)
        ));
    }

    #[test]
    fn inline_until_cap_then_spills() {
        let mut t = Tuple::new();
        for i in 0..INLINE_TUPLE_CAP as i64 {
            t.push(Value::Int(i));
            assert!(matches!(t.0, Repr::Inline { .. }));
        }
        t.push(Value::Int(99));
        assert!(matches!(t.0, Repr::Heap(_)));
        assert_eq!(t.len(), INLINE_TUPLE_CAP + 1);
        assert_eq!(t[INLINE_TUPLE_CAP], Value::Int(99));
    }

    #[test]
    fn inline_and_heap_compare_equal() {
        let inline = ints(&[1, 2, 3]);
        let heap = Tuple(Repr::Heap(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
        ]));
        assert_eq!(inline, heap);
        assert_eq!(inline.cmp(&heap), Ordering::Equal);
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        inline.hash(&mut h1);
        heap.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn slice_reads_work() {
        let t = ints(&[5, 6]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], Value::Int(6));
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.to_vec(), vec![Value::Int(5), Value::Int(6)]);
    }

    #[test]
    fn extend_from_slice_spills_correctly() {
        let mut t = ints(&[1, 2, 3]);
        t.extend_from_slice(&[Value::Int(4), Value::Int(5)]);
        assert_eq!(t, ints(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn concat_and_filled() {
        let t = ints(&[1]).concat(&ints(&[2, 3]));
        assert_eq!(t, ints(&[1, 2, 3]));
        assert_eq!(Tuple::filled(Value::Pad, 6).len(), 6);
        assert!(Tuple::filled(Value::Pad, 6).iter().all(|v| v.is_pad()));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(ints(&[1, 2]) < ints(&[1, 3]));
        assert!(ints(&[1]) < ints(&[1, 0]));
        assert!(ints(&[2]) > ints(&[1, 9, 9]));
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut t = ints(&[1, 2]);
        t[0] = Value::Int(7);
        assert_eq!(t, ints(&[7, 2]));
    }
}
