//! **I-SQL** — the paper's SQL analog for incomplete information
//! (Sections 2–3, Figure 1).
//!
//! I-SQL extends SQL with four constructs over the possible-worlds data
//! model:
//!
//! * `choice of A, …` — split each world into one world per value
//!   combination of the listed columns;
//! * `repair by key A, …` — split each world into one world per maximal
//!   repair of the result under the key;
//! * `select possible …` / `select certain …` — close the possible-worlds
//!   semantics by union / intersection across worlds;
//! * `group worlds by (subquery | columns)` — group worlds that agree on
//!   the given query's answer and apply possible/certain per group.
//!
//! The crate provides a lexer and recursive-descent parser for the Figure-1
//! grammar, a direct world-set interpreter ([`Session`]) that also covers
//! the SQL features WSA deliberately omits (aggregation with `group by`,
//! arithmetic, `in`/`not in`/`exists` subqueries, scalar subqueries, views,
//! and DML with the paper's all-worlds-or-nothing constraint semantics),
//! and a compiler from the clean fragment to World-set Algebra
//! ([`compile_select`]), which connects the surface syntax to the
//! translation and optimization machinery of the other crates.

mod ast;
mod compile;
mod durable;
mod engine;
mod explain;
mod interp;
mod lexer;
mod parser;
pub mod server;
mod session;

pub use ast::{
    AggFn, ArithOp, ColRef, Cond, FromItem, Literal, Quant, Scalar, SelectItem, SelectStmt, Stmt,
};
pub use compile::compile_select;
pub use durable::DurabilityOptions;
pub use engine::{Engine, Snapshot};

pub use explain::Explanation;
pub use interp::{route_fallbacks, RouteFallbacks};
pub use parser::{parse_script, parse_statement, MAX_DEPTH};
pub use relalg::config::SessionConfig;
pub use session::{ExecOutcome, Session};
/// Re-export of the storage environment abstraction, so durability tests
/// and embedders reach [`wsdb_env::SimEnv`]/[`wsdb_env::StdEnv`] without a
/// separate dependency.
pub use wsdb_env as env;
