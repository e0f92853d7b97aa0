//! The engine's one execution-path toggle.
//!
//! `rewrite` chooses between evaluation routes: on, the Section-6
//! optimizer runs in front of the interpreter route and `run_general`
//! ([`rewrite_enabled`]). It is on unless the current thread's session
//! overlay ([`SessionConfig`], installed with [`overlay`]) turns it off;
//! there is no process-wide or environment layer, so `set local rewrite =
//! off;` is the one way to take the "off" path.
//!
//! The engine's numeric thresholds are constants beside their one reader
//! (`FACTORIZE_MIN_WORLDS` in `wsa::factorized`, `WORLDS_BUDGET` in
//! `uldb::factored`). The factorized engine, its formula compaction and
//! selection have no switch: the `wsa::RepPlan` planner alone decides
//! where the factorized engine runs, compaction always runs, and selection
//! always runs the vectorized kernel ([`crate::physical`]).
//!
//! # Session overlays
//!
//! An `isql` session installs its [`SessionConfig`] for the duration of one
//! statement ([`overlay`]). Every operator runs on the thread that
//! evaluates the statement, so the overlay governs all of it. The overlay
//! is thread-local, so two concurrent sessions with different settings
//! never see each other's choices. When no thread has an overlay installed
//! the accessor pays one relaxed load and nothing else — the default path
//! the benchmarks measure is unchanged.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The one session-settable name.
const NAME: &str = "rewrite";

/// Encoding of the toggle: `0` = default (on), 1 = explicitly on, [`OFF`]
/// = off.
type Setting = u8;

const DEFAULT: Setting = 0;

const OFF: Setting = 2;

/// Threads that currently have a non-default overlay installed. The hot
/// accessor consults the thread-local setting only when this is non-zero,
/// so the default path costs one relaxed load.
static OVERLAYS_ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERLAY: Cell<Setting> = const { Cell::new(DEFAULT) };
}

/// Per-session toggle settings. Carried by each `isql` session, populated
/// by `set local rewrite = <value>;` statements, and installed around
/// statement evaluation with [`overlay`].
///
/// [`SessionConfig::set`] accepts one name, `rewrite` (case-insensitive),
/// with `on`/`off`/`true`/`false`/`1`/`0` or `default`, which means on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionConfig {
    rewrite: Setting,
}

impl SessionConfig {
    /// A config with the toggle at its default (on).
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Whether the toggle is at its default (installing such a config is
    /// a no-op).
    pub fn is_default(&self) -> bool {
        self.rewrite == DEFAULT
    }

    /// Set the toggle by name. `value` is `default` to clear the override,
    /// or `on`/`off`/`true`/`false`/`1`/`0`. Returns a human-readable error
    /// for unknown names or unparsable values.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        if !name.eq_ignore_ascii_case(NAME) {
            return Err(format!("unknown knob {name}; known: {NAME}"));
        }
        self.rewrite = match value.trim().to_ascii_lowercase().as_str() {
            "default" => DEFAULT,
            "on" | "true" | "1" => 1,
            "off" | "false" | "0" => OFF,
            _ => return Err(format!("{name} expects on/off or default, got {value}")),
        };
        Ok(())
    }

    /// Human-readable listing of the override (empty when default).
    pub fn describe(&self) -> String {
        match self.rewrite {
            DEFAULT => String::new(),
            OFF => format!("{NAME} = off"),
            _ => format!("{NAME} = on"),
        }
    }

    /// Effective rewrite-path state under this config.
    pub fn rewrite_enabled(&self) -> bool {
        self.rewrite != OFF
    }
}

/// RAII guard returned by [`overlay`]; restores the previous overlay (and
/// the active-thread count) on drop.
pub struct OverlayGuard {
    prev: Setting,
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
    let prev = OVERLAY.with(|c| c.replace(cfg.rewrite));
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
#[inline]
pub fn rewrite_enabled() -> bool {
    OVERLAYS_ACTIVE.load(Ordering::Relaxed) == 0 || OVERLAY.with(|c| c.get()) != OFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(value: &str) -> SessionConfig {
        let mut cfg = SessionConfig::new();
        cfg.set("rewrite", value).unwrap();
        cfg
    }

    #[test]
    fn accessors_are_on_without_overlay() {
        assert!(rewrite_enabled());
        // No environment layer: nothing in the process environment can
        // turn a path off.
        let src = include_str!("config.rs");
        assert!(!src.contains(concat!("std::", "env")));
    }

    #[test]
    fn set_local_default_means_on() {
        let off = cfg("off");
        {
            let _g = overlay(&off);
            assert!(!rewrite_enabled());
        }
        let mut cleared = off;
        cleared.set("rewrite", "DEFAULT").unwrap();
        assert!(cleared.is_default());
        let _g = overlay(&cleared);
        assert!(rewrite_enabled());
    }

    #[test]
    fn session_overlay_wins_and_restores() {
        {
            let _g = overlay(&cfg("off"));
            assert!(!rewrite_enabled());
            // Nested overlays shadow and restore.
            {
                let _g2 = overlay(&cfg("on"));
                assert!(rewrite_enabled());
            }
            assert!(!rewrite_enabled());
        }
        assert!(rewrite_enabled(), "overlay restores on");
    }

    #[test]
    fn session_overlay_is_thread_local() {
        let _g = overlay(&cfg("off"));
        assert!(!rewrite_enabled());
        let other = std::thread::spawn(rewrite_enabled).join().unwrap();
        assert!(other, "other threads see no overlay");
    }

    #[test]
    fn session_config_set_validates() {
        let mut cfg = SessionConfig::new();
        assert!(cfg.set("no_such_knob", "1").is_err());
        // The numeric knobs are gone: worker count and thresholds are not
        // session settings. Nor are `columnar`, `factorize` and `compact`:
        // selection, the factorized engine's routing and its formula
        // compaction each have one path.
        for gone in [
            "columnar",
            "factorize",
            "compact",
            "threads",
            "par_min_tuples",
            "columnar_min_rows",
            "factorize_min_worlds",
            "worlds_budget",
        ] {
            let err = cfg.set(gone, "off").unwrap_err();
            assert_eq!(err, format!("unknown knob {gone}; known: rewrite"));
        }
        assert!(cfg.set("rewrite", "7").is_err());
        assert!(cfg.is_default());
        cfg.set("REWRITE", "off").unwrap();
        assert!(!cfg.rewrite_enabled());
        assert_eq!(cfg.describe(), "rewrite = off");
        cfg.set("rewrite", "on").unwrap();
        assert!(cfg.rewrite_enabled());
        assert_eq!(cfg.describe(), "rewrite = on");
        cfg.set("rewrite", "default").unwrap();
        assert!(cfg.is_default());
        assert_eq!(cfg.describe(), "");
    }
}
