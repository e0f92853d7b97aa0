use std::fmt;

use crate::value::Sym;

/// An attribute name in the named perspective of the relational model.
///
/// Attribute names are interned like string values: an `Attr` wraps the
/// [`Sym`] of its name, so it is 12 bytes, cloning it copies those bytes,
/// equality and hashing compare the interner id, and order is the names'
/// string order ([`Sym`]'s). Qualified names like `1.CID` (Example 4.1 of
/// the paper) or generated world-id attributes like `#1.Dep` are plain
/// strings; the algebra does not interpret dots.
///
/// `Attr` is deliberately not `Copy`: its callers clone names explicitly
/// (the `statement_path` benchmark among them), and under `Copy` each such
/// `.clone()` would be a `clippy::clone_on_copy` warning.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attr(Sym);

impl Attr {
    /// Create an attribute with the given name.
    pub fn new(name: &str) -> Attr {
        Attr(Sym::new(name))
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        self.0.as_str()
    }

    /// Prefix this attribute with a qualifier, producing `qual.name`.
    pub fn qualified(&self, qual: &str) -> Attr {
        Attr::new(&format!("{qual}.{}", self.name()))
    }
}

impl fmt::Debug for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Attr {
    fn from(s: &str) -> Self {
        Attr::new(s)
    }
}

impl From<&Attr> for Attr {
    fn from(a: &Attr) -> Self {
        a.clone()
    }
}

/// An ordered list of distinct attribute names: the column layout of a
/// relation. Order determines the physical position of values inside tuples;
/// set-level operations (`∪`, `∩`, `−`, `÷`) compare attribute *sets* and
/// reorder columns as needed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schema {
    attrs: Vec<Attr>,
}

impl Schema {
    /// Create a schema from a list of distinct attributes.
    ///
    /// # Panics
    /// Panics if an attribute occurs twice (programming error at call sites;
    /// fallible construction goes through [`Schema::try_new`]).
    pub fn new(attrs: Vec<Attr>) -> Schema {
        Schema::try_new(attrs).expect("duplicate attribute in schema")
    }

    /// Fallible constructor: rejects duplicate attribute names.
    pub fn try_new(attrs: Vec<Attr>) -> Option<Schema> {
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].contains(a) {
                return None;
            }
        }
        Some(Schema { attrs })
    }

    /// The empty (nullary) schema.
    pub fn nullary() -> Schema {
        Schema { attrs: vec![] }
    }

    /// Schema from string names.
    pub fn of(names: &[&str]) -> Schema {
        Schema::new(names.iter().map(|n| Attr::new(n)).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attributes in column order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Position of `a` in the column layout.
    pub fn index_of(&self, a: &Attr) -> Option<usize> {
        self.attrs.iter().position(|x| x == a)
    }

    /// Whether `a` is part of this schema.
    pub fn contains(&self, a: &Attr) -> bool {
        self.attrs.contains(a)
    }

    /// Whether every attribute of `other` occurs in `self`.
    pub fn contains_all(&self, other: &[Attr]) -> bool {
        other.iter().all(|a| self.contains(a))
    }

    /// Whether the two schemas share no attribute.
    pub fn disjoint(&self, other: &Schema) -> bool {
        !self.attrs.iter().any(|a| other.contains(a))
    }

    /// Attributes occurring in both schemas, in `self`'s order.
    pub fn common(&self, other: &Schema) -> Vec<Attr> {
        self.attrs
            .iter()
            .filter(|a| other.contains(a))
            .cloned()
            .collect()
    }

    /// Attributes of `self` not occurring in `other`, in `self`'s order.
    pub fn minus(&self, other: &[Attr]) -> Vec<Attr> {
        self.attrs
            .iter()
            .filter(|a| !other.contains(a))
            .cloned()
            .collect()
    }

    /// Whether both schemas contain exactly the same attribute set
    /// (column order may differ).
    pub fn same_attr_set(&self, other: &Schema) -> bool {
        self.arity() == other.arity() && self.attrs.iter().all(|a| other.contains(a))
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicates() {
        assert!(Schema::try_new(vec![Attr::new("A"), Attr::new("A")]).is_none());
        assert!(Schema::try_new(vec![Attr::new("A"), Attr::new("B")]).is_some());
    }

    #[test]
    fn index_and_contains() {
        let s = Schema::of(&["A", "B", "C"]);
        assert_eq!(s.index_of(&Attr::new("B")), Some(1));
        assert_eq!(s.index_of(&Attr::new("Z")), None);
        assert!(s.contains(&Attr::new("C")));
        assert!(s.contains_all(&[Attr::new("A"), Attr::new("C")]));
        assert!(!s.contains_all(&[Attr::new("A"), Attr::new("Z")]));
    }

    #[test]
    fn set_helpers() {
        let s = Schema::of(&["A", "B", "C"]);
        let t = Schema::of(&["C", "D"]);
        assert!(!s.disjoint(&t));
        assert_eq!(s.common(&t), vec![Attr::new("C")]);
        assert_eq!(
            s.minus(&[Attr::new("B")]),
            vec![Attr::new("A"), Attr::new("C")]
        );
        assert!(s.same_attr_set(&Schema::of(&["C", "A", "B"])));
        assert!(!s.same_attr_set(&Schema::of(&["A", "B"])));
    }

    #[test]
    fn qualification() {
        assert_eq!(Attr::new("CID").qualified("1").name(), "1.CID");
    }

    #[test]
    fn display() {
        assert_eq!(Schema::of(&["A", "B"]).to_string(), "[A, B]");
        assert_eq!(Schema::nullary().to_string(), "[]");
    }
}
