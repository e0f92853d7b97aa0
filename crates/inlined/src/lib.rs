//! Inlined representations of world-sets and the WSA-to-relational-algebra
//! translations (Section 5 of the paper).
//!
//! * [`InlinedRep`] — Definition 5.1: all instances of a relation across all
//!   worlds inlined into one table with world-id attributes `V`, plus a
//!   world table `W[V]` (Figure 4).
//! * [`translate_general`] / [`run_general`] — the Figure-6 translation
//!   `⟦·⟧τ`: any WSA query becomes a composition of relational algebra
//!   queries over the inlined representation. Combined with
//!   [`InlinedRep::rep`] this gives the constructive proof of Theorem 5.7
//!   (conservativity): the translated plan, evaluated by a plain relational
//!   engine, denotes the same world-set as the direct Figure-3 semantics.
//! * [`translate_complete`] — the `1↦1` specialization: a complete-to-complete
//!   WSA query becomes a single relational algebra expression over the
//!   *ordinary* input database (no encoding needed), of polynomial size.
//! * [`translate_opt_complete`] — the Section-5.3 optimized translation with
//!   a lazy world table: world-id columns are only materialized where
//!   `cert`/grouping/binary operators need them, reproducing e.g.
//!   Example 5.8's `π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights)`. A key-local
//!   `repair-by-key` translates too: `cert` over it divides key group by
//!   key group instead of listing the repairs.
//! * [`route_applies`], [`relational_plan`], [`RelationalPlan::run`] — the
//!   statement path's route for a `1↦1` query over a one-world database:
//!   the gate, the plan, and its evaluation by `relalg` with the answer
//!   appended; no world is built. [`run_complete`] chains the three.
//!
//! Paper errata handled here (see DESIGN.md §2): the group-pairing relation
//! `S′` is symmetrized into a true equivalence, `pγ` projects onto the
//! *projection* attributes `B` (as in Figure 5(e)), and `W′` in the
//! choice-of rule is projected onto id attributes.

mod rep;
mod translate;
mod translate_opt;

pub use rep::InlinedRep;
pub use translate::{run_general, translate_complete, translate_general, Translated};
pub use translate_opt::{
    relational_plan, route_applies, run_complete, translate_opt_complete, RelationalPlan,
};
