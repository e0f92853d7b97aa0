//! Set-semantics relational algebra: the substrate of World-set Algebra.
//!
//! This crate implements the named perspective of the relational model used
//! throughout "From Complete to Incomplete Information and Back" (SIGMOD
//! 2007): relations are *sets* of tuples over named attributes, and the
//! algebra provides selection `σ`, projection `π`, renaming `δ`, product `×`,
//! union `∪`, intersection `∩`, difference `−`, natural/theta joins `⋈`,
//! division `÷`, and the paper's modified left outer join `=⊲⊳` (Remark 5.5)
//! that pads dangling tuples with a special constant instead of NULL.
//!
//! Two layers are provided:
//!
//! * direct operations on [`Relation`] values, and
//! * an expression AST ([`Expr`]) with an evaluator, a plan printer and a
//!   simplifier, used as the *target* language of the WSA-to-relational
//!   translation (Figure 6 / Section 5.3 of the paper).
//!
//! Relations iterate in a deterministic (sorted) order so that translated
//! plans, examples and golden tests are reproducible.

mod agg;
pub mod codec;
pub mod config;
mod csv;
mod error;
mod eval;
mod expr;
pub mod opt;
pub mod physical;
pub mod plan_cache;
pub mod pool;
mod pred;
mod relation;
mod schema;
mod simplify;
mod stats;
mod tuple;
mod value;

pub use agg::{Acc, AggCall, AggFn};
pub use config::columnar_enabled;
pub use csv::{relation_from_csv, relation_to_csv};
pub use error::{RelalgError, Result};
pub use eval::{Catalog, EvalCache, EvalStats};
pub use expr::{Expr, ExprKind};
pub use physical::PhysPath;
pub use pred::{CmpOp, Operand, Pred};
pub use relation::{Relation, RelationBuilder};
pub use schema::{Attr, Schema};
pub use simplify::{simplify, simplify_all};
pub use stats::{ColStats, RelStats};
pub use tuple::{Tuple, INLINE_TUPLE_CAP};
pub use value::{Sym, Value};

/// Convenience constructor for an [`Attr`].
pub fn attr(name: &str) -> Attr {
    Attr::new(name)
}

/// Convenience constructor for a list of [`Attr`]s.
pub fn attrs(names: &[&str]) -> Vec<Attr> {
    names.iter().map(|n| Attr::new(n)).collect()
}
