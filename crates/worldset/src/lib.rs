//! The possible-worlds data model of "From Complete to Incomplete
//! Information and Back" (SIGMOD 2007).
//!
//! An *incomplete database* is a finite **world-set**: a set of complete
//! database instances ("worlds") over a common schema `Σ = ⟨R₁, …, R_k⟩`.
//! Query evaluation in World-set Algebra maps world-sets to world-sets,
//! appending an answer relation `R_{k+1}` to every world (Figure 3 of the
//! paper); this crate provides the [`World`] / [`WorldSet`] types those
//! semantics operate on, plus world-set isomorphism (Definition 4.3) used to
//! state and test genericity.

mod iso;
mod world;

pub use iso::{active_domain, Bijection};
pub use world::{pair_worlds, Prefix, World, WorldSet};
