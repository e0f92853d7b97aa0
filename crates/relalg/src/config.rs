//! The engine's execution-path toggles.
//!
//! Four on/off switches choose between evaluation routes. Each is on
//! unless the current thread's session overlay ([`SessionConfig`],
//! installed with [`overlay`]) turns it off; there is no process-wide or
//! environment layer, so `set local <name> = off;` is the one way to take
//! an "off" path.
//!
//! | `set local` name | accessor | meaning |
//! |---|---|---|
//! | `rewrite` | [`rewrite_enabled`] | Section-6 optimizer in front of the interpreter route and `run_general` |
//! | `columnar` | [`columnar_enabled`] | columnar physical paths |
//! | `factorize` | [`factorize_enabled`] | factorized world-set execution |
//! | `compact` | [`compact_enabled`] | lineage/validity formula compaction |
//!
//! The engine's numeric thresholds are constants beside their one reader
//! (`COLUMNAR_MIN_ROWS` in `relalg::physical`, `FACTORIZE_MIN_WORLDS` in
//! `wsa::factorized`, `WORLDS_BUDGET` in `uldb::factored`).
//!
//! # Session overlays
//!
//! An `isql` session installs its [`SessionConfig`] for the duration of one
//! statement ([`overlay`]). Every operator runs on the thread that
//! evaluates the statement, so the overlay governs all of it. The overlay
//! is thread-local, so two concurrent sessions with different settings
//! never see each other's choices. When no thread has an overlay installed
//! the accessors pay one relaxed load and nothing else — the default path
//! the benchmarks measure is unchanged.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of overlay slots (one per toggle).
const NUM_SLOTS: usize = 4;

const SLOT_REWRITE: usize = 0;
const SLOT_COLUMNAR: usize = 1;
const SLOT_FACTORIZE: usize = 2;
const SLOT_COMPACT: usize = 3;

/// The session-settable names, in slot order.
const NAMES: [&str; NUM_SLOTS] = ["rewrite", "columnar", "factorize", "compact"];

/// Encoding shared by all slots: `0` = default (on), 1 = explicitly on,
/// [`OFF`] = off.
type Slots = [usize; NUM_SLOTS];

const OFF: usize = 2;

const DEFAULT: Slots = [0; NUM_SLOTS];

/// Threads that currently have a non-default overlay installed. The hot
/// accessors consult the thread-local table only when this is non-zero,
/// so the default path costs one relaxed load.
static OVERLAYS_ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERLAY: Cell<Slots> = const { Cell::new(DEFAULT) };
}

/// Whether toggle `slot` is on for the current thread: on unless the
/// installed overlay turns it off.
#[inline]
fn enabled(slot: usize) -> bool {
    OVERLAYS_ACTIVE.load(Ordering::Relaxed) == 0 || OVERLAY.with(|c| c.get())[slot] != OFF
}

/// Per-session toggle settings. Carried by each `isql` session, populated
/// by `set local <knob> = <value>;` statements, and installed around
/// statement evaluation with [`overlay`].
///
/// Names accepted by [`SessionConfig::set`] (case-insensitive): `rewrite`,
/// `columnar`, `factorize`, `compact` (`on`/`off`/`true`/`false`/`1`/`0`
/// or `default`, which means on).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionConfig {
    slots: Slots,
}

impl SessionConfig {
    /// A config with every toggle at its default (on).
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Whether every slot is at its default (installing such a config is
    /// a no-op).
    pub fn is_default(&self) -> bool {
        self.slots == DEFAULT
    }

    /// Set one toggle by name. `value` is `default` to clear the override,
    /// or `on`/`off`/`true`/`false`/`1`/`0`. Returns a human-readable error
    /// for unknown names or unparsable values.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let name_lc = name.to_ascii_lowercase();
        let Some(slot) = NAMES.iter().position(|n| *n == name_lc) else {
            return Err(format!("unknown knob {name}; known: {}", NAMES.join(", ")));
        };
        self.slots[slot] = match value.trim().to_ascii_lowercase().as_str() {
            "default" => 0,
            "on" | "true" | "1" => 1,
            "off" | "false" | "0" => OFF,
            _ => return Err(format!("{name} expects on/off or default, got {value}")),
        };
        Ok(())
    }

    /// Human-readable listing of the overridden slots (empty when default).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for (name, &v) in NAMES.iter().zip(&self.slots) {
            if v != 0 {
                parts.push(format!("{name} = {}", if v == OFF { "off" } else { "on" }));
            }
        }
        parts.join(", ")
    }

    /// Effective rewrite-path state under this config.
    pub fn rewrite_enabled(&self) -> bool {
        self.slots[SLOT_REWRITE] != OFF
    }

    /// Effective columnar-path state under this config.
    pub fn columnar_enabled(&self) -> bool {
        self.slots[SLOT_COLUMNAR] != OFF
    }

    /// Effective factorized-path state under this config.
    pub fn factorize_enabled(&self) -> bool {
        self.slots[SLOT_FACTORIZE] != OFF
    }
}

/// RAII guard returned by [`overlay`]; restores the previous overlay (and
/// the active-thread count) on drop.
pub struct OverlayGuard {
    prev: Slots,
    installed: bool,
}

impl Drop for OverlayGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        OVERLAY.with(|c| c.set(self.prev));
        if self.prev == DEFAULT {
            OVERLAYS_ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Install `cfg` as this thread's session overlay until the returned guard
/// drops. Installing an all-default config is free (no thread-local write,
/// no counter bump). Nested installs restore the outer overlay on drop.
pub fn overlay(cfg: &SessionConfig) -> OverlayGuard {
    if cfg.is_default() {
        return OverlayGuard {
            prev: DEFAULT,
            installed: false,
        };
    }
    let prev = OVERLAY.with(|c| c.replace(cfg.slots));
    if prev == DEFAULT {
        OVERLAYS_ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    OverlayGuard {
        prev,
        installed: true,
    }
}

/// Whether the rewrite execution path is on: the Section-6 optimizer runs
/// in front of the I-SQL interpreter's algebra route and inside
/// `run_general`, which also simplifies and join-orders the translated
/// plans.
pub fn rewrite_enabled() -> bool {
    enabled(SLOT_REWRITE)
}

/// Whether wide operators take the columnar paths (projection, vectorized
/// selection, join-key hashing — see [`crate::physical`]).
#[inline]
pub fn columnar_enabled() -> bool {
    enabled(SLOT_COLUMNAR)
}

/// Whether evaluators may run the algebra directly over succinct
/// `FactoredSet` representations instead of enumerated worlds.
pub fn factorize_enabled() -> bool {
    enabled(SLOT_FACTORIZE)
}

/// Whether lineage/validity formula compaction is on: DNF subsumption,
/// single-variable disjunct merging and decode-boundary variable
/// elimination in the factorized engine.
pub fn compact_enabled() -> bool {
    enabled(SLOT_COMPACT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(settings: &[(&str, &str)]) -> SessionConfig {
        let mut cfg = SessionConfig::new();
        for (name, value) in settings {
            cfg.set(name, value).unwrap();
        }
        cfg
    }

    fn all_enabled() -> [bool; NUM_SLOTS] {
        [
            rewrite_enabled(),
            columnar_enabled(),
            factorize_enabled(),
            compact_enabled(),
        ]
    }

    #[test]
    fn accessors_are_on_without_overlay() {
        assert_eq!(all_enabled(), [true; NUM_SLOTS]);
        // No environment layer: nothing in the process environment can
        // turn a path off.
        let src = include_str!("config.rs");
        assert!(!src.contains(concat!("std::", "env")));
    }

    #[test]
    fn set_local_default_means_on() {
        let off = cfg(&[("factorize", "off"), ("compact", "off")]);
        {
            let _g = overlay(&off);
            assert_eq!(all_enabled(), [true, true, false, false]);
        }
        let mut cleared = off;
        cleared.set("factorize", "default").unwrap();
        cleared.set("compact", "DEFAULT").unwrap();
        assert!(cleared.is_default());
        let _g = overlay(&cleared);
        assert_eq!(all_enabled(), [true; NUM_SLOTS]);
    }

    #[test]
    fn session_overlay_wins_and_restores() {
        let outer = cfg(&[("rewrite", "off")]);
        {
            let _g = overlay(&outer);
            assert_eq!(all_enabled(), [false, true, true, true]);
            // Nested overlays shadow and restore.
            let inner = cfg(&[("rewrite", "on"), ("compact", "off")]);
            {
                let _g2 = overlay(&inner);
                assert_eq!(all_enabled(), [true, true, true, false]);
            }
            assert_eq!(all_enabled(), [false, true, true, true]);
        }
        assert_eq!(all_enabled(), [true; NUM_SLOTS], "overlay restores on");
    }

    #[test]
    fn session_overlay_is_thread_local() {
        let _g = overlay(&cfg(&[("compact", "off"), ("columnar", "off")]));
        assert!(!compact_enabled() && !columnar_enabled());
        let other = std::thread::spawn(all_enabled).join().unwrap();
        assert_eq!(other, [true; NUM_SLOTS], "other threads see no overlay");
    }

    #[test]
    fn session_config_set_validates() {
        let mut cfg = SessionConfig::new();
        assert!(cfg.set("no_such_knob", "1").is_err());
        // The numeric knobs are gone: worker count and thresholds are not
        // session settings.
        for gone in [
            "threads",
            "par_min_tuples",
            "columnar_min_rows",
            "factorize_min_worlds",
            "worlds_budget",
        ] {
            let err = cfg.set(gone, "4").unwrap_err();
            assert!(err.starts_with("unknown knob"), "{gone}: {err}");
        }
        assert!(cfg.set("rewrite", "7").is_err());
        assert!(cfg.is_default());
        cfg.set("factorize", "off").unwrap();
        assert!(!cfg.factorize_enabled());
        assert_eq!(cfg.describe(), "factorize = off");
        cfg.set("factorize", "default").unwrap();
        assert!(cfg.is_default());
        assert_eq!(cfg.describe(), "");
    }

    #[test]
    fn worlds_budget_and_compact_knobs() {
        // The worlds budget is a constant of the factorized engine, not a
        // knob; compaction is.
        let mut cfg = SessionConfig::new();
        assert!(cfg.set("worlds_budget", "4096").is_err());
        cfg.set("compact", "off").unwrap();
        cfg.set("REWRITE", "on").unwrap();
        assert_eq!(cfg.describe(), "rewrite = on, compact = off");
        cfg.set("rewrite", "default").unwrap();
        cfg.set("compact", "default").unwrap();
        assert!(cfg.is_default());
    }
}
