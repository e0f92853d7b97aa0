use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher as _;
use std::sync::{OnceLock, RwLock};

use crate::relation::FxHasher;

/// An interned string handle.
///
/// Every distinct string is stored once in a process-wide interner and
/// identified by an `id`. Equality and hashing are single word compares on
/// the id; ordering is *lexicographic* on the underlying string — required
/// so that relations containing string values iterate in the same order as
/// before interning (golden tests, printed tables) — and is decided without
/// touching the interner in almost all cases via an inlined 8-byte
/// big-endian prefix of the string. Only symbols that agree on their first
/// 8 bytes but differ as strings fall back to a full comparison of the
/// interned data.
///
/// A `Sym` is 12 bytes with 4-byte alignment (`repr(Rust, packed(4))`), so a
/// [`Value`] holding one is 16 bytes: the tag at offset 0, a `Sym` at
/// offset 4 or an `i64` at offset 8. The prefix stays one `u64`, read by
/// value (one unaligned load): compared as two `u32` halves or as bytes,
/// sorting strings took about a third longer.
///
/// The interner is **sharded**: `INTERNER_SHARDS` independent shards,
/// selected by string hash, so concurrent `Sym` creation from concurrent
/// sessions (one thread per connection) does not serialize on a single
/// lock. The id encodes the shard in its low bits
/// (`id = local_index * SHARDS + shard`), so resolution needs no global
/// table. Shard assignment depends only on the string's hash, never on
/// interning order, and `Sym` ordering compares strings, not ids — so the
/// interleaving of threads cannot change any observable order.
///
/// Reading a symbol's string ([`Sym::as_str`]) takes no lock: each shard
/// keeps its strings in an append-only table of lazily allocated segments
/// (see `slot_of`), and a shard's `RwLock` guards only the `str → id` map
/// that [`Sym::new`] consults.
///
/// Interned strings are leaked (the interner lives for the process); the
/// set of distinct strings in a workload is bounded by its active domain,
/// which this engine materializes anyway. Attribute names
/// ([`crate::Attr`]) are interned here too. They are bounded by the
/// schemas and the statement text a workload uses: the translations'
/// generated `#n.` names count from 1 again in every statement. A client
/// that keeps inventing aliases or column names leaks them the way new
/// string values leak.
#[derive(Clone, Copy, Debug)]
#[repr(Rust, packed(4))]
pub struct Sym {
    /// Big-endian first 8 bytes of the string, zero-padded. Prefix order
    /// refines lexicographic order: `prefix(a) < prefix(b) ⇒ a < b`.
    prefix: u64,
    /// Shard-encoded interner id; equal strings always intern to the same
    /// id. Low `log2(SHARDS)` bits select the shard, the rest index into
    /// the shard's string table.
    id: u32,
}

/// Number of interner shards (a power of two; the shard index lives in the
/// low bits of [`Sym`]'s id).
const INTERNER_SHARDS: usize = 16;

/// Segment 0 of a shard's string table holds `1 << SEG0_BITS` slots, and
/// each later segment twice as many as the one before.
const SEG0_BITS: u32 = 5;

/// Segments per shard: enough for every local index a `u32` id can encode
/// (below `2^(32 − log2(SHARDS))`).
const SEGMENTS: usize = (u32::BITS - INTERNER_SHARDS.trailing_zeros() - SEG0_BITS + 1) as usize;

/// One segment of a shard's string table: its slots are set once, under
/// the shard's write lock, and read without one.
type Segment = Box<[OnceLock<&'static str>]>;

struct Shard {
    /// `str → id`, consulted by [`Sym::new`] only.
    ids: RwLock<HashMap<&'static str, u32>>,
    /// Local index → string, append-only (see `slot_of`).
    strings: [OnceLock<Segment>; SEGMENTS],
}

fn shards() -> &'static [Shard; INTERNER_SHARDS] {
    static SHARDS: OnceLock<[Shard; INTERNER_SHARDS]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        std::array::from_fn(|_| Shard {
            ids: RwLock::new(HashMap::new()),
            strings: std::array::from_fn(|_| OnceLock::new()),
        })
    })
}

/// The segment and the offset in it of local index `i`: segment `k` holds
/// the `(1 << SEG0_BITS) << k` indices from `((1 << SEG0_BITS) << k) −
/// (1 << SEG0_BITS)` on.
fn slot_of(i: usize) -> (usize, usize) {
    let j = i + (1 << SEG0_BITS);
    let seg = (usize::BITS - 1 - j.leading_zeros() - SEG0_BITS) as usize;
    (seg, j - ((1 << SEG0_BITS) << seg))
}

/// Shard index for a string: by hash, so it is independent of interning
/// order and uniform across the active domain. The crate's FxHash picks
/// the shard from its top bits, which its multiplies mix from every input
/// bit (the low bits see only the last word's low bits). The shard's map
/// hashes the string again with its own `RandomState`, so statement text
/// cannot crowd one map's buckets.
fn shard_of(s: &str) -> usize {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    (h.finish() >> (u64::BITS - INTERNER_SHARDS.trailing_zeros())) as usize
}

fn prefix_of(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut p = [0u8; 8];
    let n = bytes.len().min(8);
    p[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(p)
}

impl Sym {
    /// Intern `s`, returning its handle. Repeated interning of the same
    /// string is a hash lookup under the read half of one shard lock;
    /// distinct shards never contend.
    pub fn new(s: &str) -> Sym {
        let prefix = prefix_of(s);
        let shard_idx = shard_of(s);
        let shard = &shards()[shard_idx];
        if let Some(&id) = shard.ids.read().expect("interner poisoned").get(s) {
            return Sym { prefix, id };
        }
        let mut ids = shard.ids.write().expect("interner poisoned");
        if let Some(&id) = ids.get(s) {
            return Sym { prefix, id };
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let local = ids.len();
        let id = u32::try_from(local * INTERNER_SHARDS + shard_idx).expect("interner overflow");
        let (seg, off) = slot_of(local);
        let segment = shard.strings[seg].get_or_init(|| {
            (0..(1 << SEG0_BITS) << seg)
                .map(|_| OnceLock::new())
                .collect()
        });
        segment[off].set(leaked).expect("interner slot set twice");
        ids.insert(leaked, id);
        Sym { prefix, id }
    }

    /// The interned string, read without a lock. The returned reference is
    /// `'static` — interned data is never freed.
    pub fn as_str(self) -> &'static str {
        let shard = &shards()[self.id as usize % INTERNER_SHARDS];
        let (seg, off) = slot_of(self.id as usize / INTERNER_SHARDS);
        shard.strings[seg]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("a Sym's slot is set before the Sym exists")
    }
}

/// Whether `s` is interned, without interning it.
#[cfg(test)]
pub(crate) fn is_interned(s: &str) -> bool {
    shards()[shard_of(s)]
        .ids
        .read()
        .expect("interner poisoned")
        .contains_key(s)
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> Ordering {
        if self.id == other.id {
            return Ordering::Equal;
        }
        // Copies: a reference to the packed `u64` would be unaligned.
        let (a, b) = (self.prefix, other.prefix);
        match a.cmp(&b) {
            // Same first 8 bytes but different strings: full comparison.
            Ordering::Equal => cmp_strings(*self, *other),
            ord => ord,
        }
    }
}

/// The rare fallback of [`Sym`]'s order, kept out of line so that the
/// prefix comparison inlines into sorts.
#[cold]
#[inline(never)]
fn cmp_strings(a: Sym, b: Sym) -> Ordering {
    a.as_str().cmp(b.as_str())
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

/// A domain value stored in a relation.
///
/// The paper's data model is untyped first-order constants; we provide
/// integers, strings and booleans. [`Value::Pad`] is the distinguished
/// constant `c` used by the modified left outer join `=⊲⊳` of Remark 5.5 to
/// pad tuples without a join partner ("here we use a constant for practical
/// reasons" — i.e. it is an ordinary value, not a NULL with three-valued
/// logic).
///
/// `Value` is `Copy`: strings are interned [`Sym`] handles, so copying,
/// comparing and hashing a value never touches the heap. The derived
/// ordering is Pad < Bool < Int < Str (variant order), with strings
/// ordered lexicographically via [`Sym`]'s `Ord` (the pre-interning order,
/// preserved for deterministic iteration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The padding constant `c` of the `=⊲⊳` operator.
    Pad,
    /// Boolean constant.
    Bool(bool),
    /// 64-bit integer constant.
    Int(i64),
    /// Interned string constant.
    Str(Sym),
}

// The tag, a 4-aligned `Sym` and an 8-aligned `i64` share 16 bytes: a row
// of arity `k` takes `16·k` bytes of its relation's flat storage.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Build a string value (interning the string).
    pub fn str(s: &str) -> Value {
        Value::Str(Sym::new(s))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// True iff this is the padding constant.
    pub fn is_pad(&self) -> bool {
        matches!(self, Value::Pad)
    }

    /// The integer inside, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Pad => write!(f, "#c"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_sorts_first() {
        let mut vs = [
            Value::int(3),
            Value::str("a"),
            Value::Pad,
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Pad);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(-7).to_string(), "-7");
        assert_eq!(Value::str("BCN").to_string(), "BCN");
        assert_eq!(Value::Pad.to_string(), "#c");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Pad.is_pad());
        assert!(!Value::int(0).is_pad());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn interning_dedups() {
        let a = Sym::new("same-string");
        let b = Sym::new("same-string");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "same-string");
    }

    #[test]
    fn sym_order_is_lexicographic() {
        // Short strings decided by the prefix; long strings sharing the
        // 8-byte prefix fall back to the interner comparison.
        let cases = [
            ("", "a"),
            ("a", "b"),
            ("ab", "abc"),
            ("ATL", "BCN"),
            ("longprefix-aaa", "longprefix-aab"),
            ("samefirst8", "samefirst8x"),
        ];
        for (lo, hi) in cases {
            assert!(Sym::new(lo) < Sym::new(hi), "{lo} < {hi}");
            assert!(Sym::new(hi) > Sym::new(lo), "{hi} > {lo}");
        }
        assert_eq!(Sym::new("x").cmp(&Sym::new("x")), Ordering::Equal);
    }

    #[test]
    fn string_order_matches_str_order() {
        // The Value order over strings must agree with &str order exactly.
        let mut words: Vec<&str> = vec![
            "FRA",
            "PAR",
            "PHL",
            "BCN",
            "ATL",
            "HUB",
            "w1",
            "w2",
            "w10",
            "",
            "a",
            "abcdefgh",
            "abcdefgha",
            "abcdefghb",
        ];
        let mut vals: Vec<Value> = words.iter().map(|w| Value::str(w)).collect();
        words.sort();
        vals.sort();
        let back: Vec<&str> = vals.iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(back, words);
    }

    #[test]
    fn slots_fill_each_segment_then_the_next() {
        let seg0 = 1usize << SEG0_BITS;
        assert_eq!(slot_of(0), (0, 0));
        let mut start = 0;
        for seg in 0..SEGMENTS {
            let len = seg0 << seg;
            assert_eq!(slot_of(start), (seg, 0), "first slot of segment {seg}");
            assert_eq!(
                slot_of(start + len - 1),
                (seg, len - 1),
                "last slot of segment {seg}"
            );
            start += len;
        }
        // The largest local index an id can encode has a segment.
        let max_local = u32::MAX as usize / INTERNER_SHARDS;
        assert!(slot_of(max_local).0 < SEGMENTS);
        assert!(start > max_local);
    }

    #[test]
    fn concurrent_interning_round_trips() {
        // Four threads intern overlapping ranges of one word set, enough
        // words that every shard fills several segments (segment 0 holds 32
        // slots, segment 2 ends at local index 223).
        const WORDS: usize = 8000;
        let word = |i: usize| format!("concurrent-intern-{i}");
        let start = std::sync::Barrier::new(4);
        let interned: Vec<Vec<(usize, Sym)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let lo = t * WORDS / 8;
                        (lo..lo + WORDS / 2)
                            .map(|i| {
                                let sym = Sym::new(&word(i));
                                // Read back while the others still append.
                                assert_eq!(sym.as_str(), word(i));
                                (i, sym)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread panicked"))
                .collect()
        });
        let mut seen: HashMap<usize, Sym> = HashMap::new();
        for (i, sym) in interned.into_iter().flatten() {
            assert_eq!(*seen.entry(i).or_insert(sym), sym, "one id per string");
        }
        for (i, sym) in seen {
            assert_eq!(Sym::new(&word(i)), sym);
            assert_eq!(sym.as_str(), word(i));
        }
        // Every shard's table reaches segment 3 (local index 224 on).
        assert!(shards()
            .iter()
            .all(|shard| shard.strings[3].get().is_some()));
    }
}
