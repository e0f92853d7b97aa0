//! ULDBs and the factorized world-set engine.
//!
//! This crate has two halves:
//!
//! * `xtuple`-style ULDBs (databases with uncertainty and lineage, in
//!   the style of Trio): x-tuples with alternatives, maybe-(`?`)
//!   annotations and lineage to alternatives of external x-tuples, plus
//!   the `rep()` enumeration of possible worlds and the
//!   horizontal-selection query of **Remark 4.6** — the paper's
//!   counterexample showing TriQL is *not generic* (it can distinguish
//!   two representations of the same world-set).
//!
//! * the [`factored`] execution engine, which promotes the x-tuple idea
//!   from a counterexample sketch to a runtime representation: a
//!   [`FactoredSet`] stores each relation *once* with a lineage column
//!   over finite choice variables and runs the world-set algebra
//!   directly on that succinct form — `n` chained `choice-of` operators
//!   multiply the implicit world count without ever materializing a
//!   world. Explicit worlds appear only at decode boundaries
//!   ([`FactoredSet::expand_with`]), and every representation-size
//!   budget overflow is a typed [`FactorError::Budget`] telling the
//!   caller to fall back to enumerated evaluation.
//!
//! [`Uldb::to_factored`] connects the halves: it compiles an x-tuple
//! table into a `FactoredSet` whose expansion equals `rep()`.

pub mod factored;
mod xtuple;

pub use factored::{AltSet, Constraint, Dnf, FResult, FactorError, FactoredSet, Var, LIN_ATTR};
pub use xtuple::{horizontal_select_distinct_alts, Alternative, Uldb, XTuple};
