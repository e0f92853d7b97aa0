//! **World-set Algebra** — the primary contribution of *"From Complete to
//! Incomplete Information and Back"* (Antova, Koch, Olteanu; SIGMOD 2007).
//!
//! World-set Algebra (WSA) extends relational algebra with operators that
//! *split* worlds (`choice-of` `χ_U`, and the `repair-by-key` extension) and
//! operators that *merge* information across worlds (`poss`, `cert`, and the
//! grouping variants `pγ^V_U` / `cγ^V_U`). Its semantics (Figure 3 of the
//! paper) is compositional: a query maps a world-set over schema
//! `⟨R₁,…,R_k⟩` to a world-set over `⟨R₁,…,R_{k+1}⟩`, where `R_{k+1}` is the
//! answer to the query in each world. SQL's grouping with aggregation and
//! `[not] in`/`[not] exists` (semijoin, antijoin) join the relational core,
//! lifted pointwise over worlds like `σ`, `π` and `×`.
//!
//! This crate provides:
//!
//! * the query AST ([`Query`]) and sequential [`Program`]s (queries that
//!   materialize views consumed by later queries, as in the Section-2
//!   walk-throughs);
//! * the reference possible-worlds semantics ([`eval`], [`eval_named`]);
//! * static **typing** of queries by world-set cardinality (Section 4.1's
//!   `1↦1`, `1↦m`, `m↦1`, `m↦m`) and schema inference ([`typing`]);
//! * **genericity** checking infrastructure (Definition 4.4,
//!   Proposition 4.5);
//! * the **repair-by-key** extension with the Proposition-4.2
//!   3-colorability reduction ([`repair`]).

mod ast;
mod display;
pub mod factorized;
mod genericity;
mod program;
pub mod repair;
mod semantics;
pub mod typing;

pub use ast::Query;
pub use display::render_tree;
pub use factorized::{
    eval_factorized, eval_named_routed, eval_planned, plan_query, should_factorize, RepCard,
    RepPlan,
};
pub use genericity::{check_generic, query_constants};
pub use program::{eval_program, Program, Statement};
pub use semantics::{eval, eval_named, repairs_by_key};
