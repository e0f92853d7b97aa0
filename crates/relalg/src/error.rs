use std::fmt;

use crate::{Attr, Schema};

/// Errors raised by relational algebra operations and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelalgError {
    /// An attribute referenced by an operation is not in the input schema.
    UnknownAttr { attr: Attr, schema: Schema },
    /// A renaming or projection would produce duplicate attribute names.
    DuplicateAttr { attr: Attr },
    /// A binary set operation was applied to relations over different
    /// attribute sets.
    SchemaMismatch { left: Schema, right: Schema },
    /// A product was applied to relations with overlapping attributes.
    NotDisjoint { left: Schema, right: Schema },
    /// Division `R ÷ S` requires `attrs(S) ⊊ attrs(R)`.
    BadDivision { left: Schema, right: Schema },
    /// A tuple's arity does not match the relation schema.
    ArityMismatch { expected: usize, got: usize },
    /// An expression referenced a base table missing from the catalog.
    UnknownTable { name: String },
    /// A comparison was applied to incomparable operands.
    TypeError { detail: String },
    /// Integer arithmetic left the range of `i64`.
    Overflow,
}

impl fmt::Display for RelalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelalgError::UnknownAttr { attr, schema } => {
                write!(f, "unknown attribute {attr} in schema {schema}")
            }
            RelalgError::DuplicateAttr { attr } => {
                write!(f, "operation would duplicate attribute {attr}")
            }
            RelalgError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: {left} vs {right}")
            }
            RelalgError::NotDisjoint { left, right } => {
                write!(f, "product operands share attributes: {left} vs {right}")
            }
            RelalgError::BadDivision { left, right } => {
                write!(f, "division requires divisor attributes strictly inside dividend: {left} ÷ {right}")
            }
            RelalgError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            RelalgError::UnknownTable { name } => write!(f, "unknown table {name}"),
            RelalgError::TypeError { detail } => write!(f, "type error: {detail}"),
            RelalgError::Overflow => f.write_str("integer overflow"),
        }
    }
}

impl std::error::Error for RelalgError {}

/// Result alias for relational algebra operations.
pub type Result<T> = std::result::Result<T, RelalgError>;
