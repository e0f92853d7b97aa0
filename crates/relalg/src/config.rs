//! Central runtime configuration for the engine's execution-path toggles.
//!
//! Every execution-path switch the engine exposes follows the same
//! three-layer resolution: a **runtime override** (set programmatically by
//! benchmarks and A/B tests) wins over the **environment variable** (read
//! once per process — several of these sit on operator hot paths and
//! `env::var` takes a process-wide lock), which wins over the default
//! (on). [`Toggle`] implements the stack once, and the statics below are
//! the single place a new variable is declared.
//!
//! | static | environment variable | meaning |
//! |---|---|---|
//! | [`REWRITE`] | `WSDB_NO_REWRITE` (non-empty disables) | Section-6 optimizer in front of the interpreter route and `run_general` |
//! | [`COLUMNAR`] | `WSDB_NO_COLUMNAR` (non-empty disables) | columnar physical paths |
//! | [`FACTORIZE`] | `WSDB_NO_FACTORIZE` (non-empty disables) | factorized world-set execution |
//! | [`COMPACT`] | `WSDB_NO_COMPACT` (non-empty disables) | lineage/validity formula compaction |
//!
//! The engine's numeric thresholds are constants beside their one reader
//! (`COLUMNAR_MIN_ROWS` in `relalg::physical`, `FACTORIZE_MIN_WORLDS` in
//! `wsa::factorized`, `WORLDS_BUDGET` in `uldb::factored`).
//!
//! # Per-session overrides
//!
//! On top of the three process-wide layers sits an optional **session
//! overlay** ([`SessionConfig`]): a small table of per-connection overrides
//! that an `isql` session installs for the duration of one statement
//! ([`overlay`]). Every operator runs on the thread that evaluates the
//! statement, so the overlay governs all of it. An overlay value wins over
//! every process-wide layer; an unset overlay slot falls through. The
//! overlay is thread-local, so two concurrent sessions with different
//! settings never see each other's choices. When no thread has an overlay
//! installed the accessors pay one extra relaxed load and nothing else —
//! the process-default path the benchmarks measure is unchanged.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of overlay slots (one per toggle static below).
const NUM_SLOTS: usize = 4;

/// Sentinel slot for toggles that opt out of the session overlay
/// (test-local statics).
const NO_SLOT: usize = usize::MAX;

const SLOT_REWRITE: usize = 0;
const SLOT_COLUMNAR: usize = 1;
const SLOT_FACTORIZE: usize = 2;
const SLOT_COMPACT: usize = 3;

/// The session-settable names, in slot order.
const NAMES: [&str; NUM_SLOTS] = ["rewrite", "columnar", "factorize", "compact"];

/// Encoding shared by all slots: `0` = inherit the process-wide value,
/// 1 = on, 2 = off.
type Slots = [usize; NUM_SLOTS];

const INHERIT: Slots = [0; NUM_SLOTS];

/// Threads that currently have a non-default overlay installed. The hot
/// accessors consult the thread-local table only when this is non-zero,
/// so the process-default path costs one relaxed load.
static OVERLAYS_ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERLAY: Cell<Slots> = const { Cell::new(INHERIT) };
}

#[inline]
fn overlay_slot(slot: usize) -> usize {
    if slot == NO_SLOT || OVERLAYS_ACTIVE.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    OVERLAY.with(|c| c.get())[slot]
}

/// Per-session overrides for the engine's toggles, resolved *above* the
/// process-wide stack (override → environment → default). Carried by each
/// `isql` session, populated by `set local <knob> = <value>;` statements,
/// and installed around statement evaluation with [`overlay`].
///
/// Names accepted by [`SessionConfig::set`] (case-insensitive): `rewrite`,
/// `columnar`, `factorize`, `compact` (`on`/`off`/`true`/`false`/`1`/`0`
/// or `default`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionConfig {
    slots: Slots,
}

impl SessionConfig {
    /// A config with every slot inheriting the process-wide value.
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Whether every slot inherits (installing such a config is a no-op).
    pub fn is_default(&self) -> bool {
        self.slots == INHERIT
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
            "off" | "false" | "0" => 2,
            _ => return Err(format!("{name} expects on/off or default, got {value}")),
        };
        Ok(())
    }

    /// The effective value of a toggle slot under this config, given the
    /// process-wide fallback.
    fn toggle(&self, slot: usize, fallback: bool) -> bool {
        match self.slots[slot] {
            1 => true,
            2 => false,
            _ => fallback,
        }
    }

    /// Human-readable listing of the overridden slots (empty when default).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for (name, &v) in NAMES.iter().zip(&self.slots) {
            if v != 0 {
                parts.push(format!("{name} = {}", if v == 1 { "on" } else { "off" }));
            }
        }
        parts.join(", ")
    }

    /// Effective rewrite-path state under this config.
    pub fn rewrite_enabled(&self) -> bool {
        self.toggle(SLOT_REWRITE, REWRITE.enabled())
    }

    /// Effective columnar-path state under this config.
    pub fn columnar_enabled(&self) -> bool {
        self.toggle(SLOT_COLUMNAR, COLUMNAR.enabled())
    }

    /// Effective factorized-path state under this config.
    pub fn factorize_enabled(&self) -> bool {
        self.toggle(SLOT_FACTORIZE, FACTORIZE.enabled())
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
        if self.prev == INHERIT {
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
            prev: INHERIT,
            installed: false,
        };
    }
    let prev = OVERLAY.with(|c| c.replace(cfg.slots));
    if prev == INHERIT {
        OVERLAYS_ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    OverlayGuard {
        prev,
        installed: true,
    }
}

/// An on/off execution-path switch whose environment variable *disables*
/// the path when set to a non-empty value (the `WSDB_NO_*` convention):
/// runtime override → environment → enabled.
pub struct Toggle {
    env_var: &'static str,
    /// Index into the session-overlay table, or [`NO_SLOT`] for toggles
    /// that have no per-session override (test-local statics).
    slot: usize,
    /// Resolved effective state: 0 = not yet resolved, 1 = on, 2 = off.
    /// The hot-path cache: after the first resolution [`Toggle::enabled`]
    /// costs one relaxed load.
    cached: AtomicUsize,
    /// 0 = resolve from the environment, 1 = forced on, 2 = forced off.
    state: AtomicUsize,
    /// Environment resolution ("is the path disabled?"), computed once.
    env_disabled: OnceLock<bool>,
}

impl Toggle {
    /// Declare a toggle whose disabling variable is `env_var`.
    pub const fn new(env_var: &'static str) -> Toggle {
        Toggle::with_slot(env_var, NO_SLOT)
    }

    /// Declare a toggle that additionally honors session overlay slot
    /// `slot`.
    const fn with_slot(env_var: &'static str, slot: usize) -> Toggle {
        Toggle {
            env_var,
            slot,
            cached: AtomicUsize::new(0),
            state: AtomicUsize::new(0),
            env_disabled: OnceLock::new(),
        }
    }

    /// Whether the path is on: the current thread's session overlay wins if
    /// it covers this toggle; then a runtime override; otherwise the path
    /// is on unless the environment variable is set to a non-empty value.
    #[inline]
    pub fn enabled(&self) -> bool {
        match overlay_slot(self.slot) {
            1 => return true,
            2 => return false,
            _ => {}
        }
        match self.cached.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => self.resolve(),
        }
    }

    /// Slow path of [`Toggle::enabled`]: resolve override → environment
    /// and refill the cache (racing resolvers agree on the value).
    #[cold]
    fn resolve(&self) -> bool {
        let on = match self.state.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => !*self.env_disabled.get_or_init(|| {
                std::env::var(self.env_var)
                    .map(|v| !v.trim().is_empty())
                    .unwrap_or(false)
            }),
        };
        self.cached.store(if on { 1 } else { 2 }, Ordering::Relaxed);
        on
    }

    /// Force the path on/off for this process; `None` restores the
    /// environment-derived default.
    pub fn set(&self, on: Option<bool>) {
        self.state.store(
            match on {
                Some(true) => 1,
                Some(false) => 2,
                None => 0,
            },
            Ordering::SeqCst,
        );
        // Invalidate the fast-path cache; the next `enabled` re-resolves.
        self.cached.store(0, Ordering::SeqCst);
    }
}

/// The rewrite execution path (`WSDB_NO_REWRITE` disables); see
/// [`rewrite_enabled`].
pub static REWRITE: Toggle = Toggle::with_slot("WSDB_NO_REWRITE", SLOT_REWRITE);

/// The columnar physical paths (`WSDB_NO_COLUMNAR` disables); see
/// [`crate::columnar_enabled`].
pub static COLUMNAR: Toggle = Toggle::with_slot("WSDB_NO_COLUMNAR", SLOT_COLUMNAR);

/// The factorized world-set execution path (`WSDB_NO_FACTORIZE` disables):
/// whether evaluators may run the algebra directly over succinct
/// `FactoredSet` representations instead of enumerated worlds.
pub static FACTORIZE: Toggle = Toggle::with_slot("WSDB_NO_FACTORIZE", SLOT_FACTORIZE);

/// Lineage/validity formula compaction (`WSDB_NO_COMPACT` disables):
/// DNF subsumption, single-variable disjunct merging and decode-boundary
/// variable elimination in the factorized engine. On by default; the
/// off leg exists for A/B benchmarks and debugging.
pub static COMPACT: Toggle = Toggle::with_slot("WSDB_NO_COMPACT", SLOT_COMPACT);

/// Whether the rewrite execution path is on (the [`REWRITE`] toggle): the
/// Section-6 optimizer runs in front of the I-SQL interpreter's algebra
/// route and inside `run_general`, which also simplifies and join-orders
/// the translated plans.
pub fn rewrite_enabled() -> bool {
    REWRITE.enabled()
}

/// Force the rewrite path on/off for this process; `None` restores the
/// environment-derived default.
pub fn set_rewrite_enabled(on: Option<bool>) {
    REWRITE.set(on);
}

/// Whether factorized world-set execution is on (the [`FACTORIZE`] toggle).
pub fn factorize_enabled() -> bool {
    FACTORIZE.enabled()
}

/// Force factorized execution on/off for this process; `None` restores the
/// environment-derived default.
pub fn set_factorize_enabled(on: Option<bool>) {
    FACTORIZE.set(on);
}

/// Whether formula compaction is on (the [`COMPACT`] toggle).
pub fn compact_enabled() -> bool {
    COMPACT.enabled()
}

/// Force formula compaction on/off for this process; `None` restores the
/// environment-derived default.
pub fn set_compact_enabled(on: Option<bool>) {
    COMPACT.set(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_override_wins() {
        static T: Toggle = Toggle::new("WSDB_TEST_TOGGLE_UNSET");
        assert!(T.enabled(), "unset environment leaves the path on");
        T.set(Some(false));
        assert!(!T.enabled());
        T.set(Some(true));
        assert!(T.enabled());
        T.set(None);
        assert!(T.enabled());
    }

    // Overlay tests use private statics wired to the real overlay slots so
    // they stay race-free against tests that flip the real toggles
    // concurrently in this test binary.
    static OV_REWRITE: Toggle = Toggle::with_slot("WSDB_TEST_OV_REWRITE_UNSET", SLOT_REWRITE);
    static OV_COMPACT: Toggle = Toggle::with_slot("WSDB_TEST_OV_COMPACT_UNSET", SLOT_COMPACT);

    #[test]
    fn session_overlay_wins_and_restores() {
        let mut cfg = SessionConfig::new();
        assert!(cfg.is_default());
        cfg.set("rewrite", "off").unwrap();
        {
            let _g = overlay(&cfg);
            assert!(!OV_REWRITE.enabled());
            // Unset slots fall through to the process-wide stack.
            assert!(OV_COMPACT.enabled());
            // Nested overlays shadow and restore.
            let mut inner = cfg;
            inner.set("rewrite", "on").unwrap();
            inner.set("compact", "off").unwrap();
            {
                let _g2 = overlay(&inner);
                assert!(OV_REWRITE.enabled());
                assert!(!OV_COMPACT.enabled());
            }
            assert!(!OV_REWRITE.enabled());
            assert!(OV_COMPACT.enabled());
        }
        assert!(
            OV_REWRITE.enabled(),
            "overlay restores the process-wide value"
        );
    }

    #[test]
    fn session_overlay_is_thread_local() {
        let mut cfg = SessionConfig::new();
        cfg.set("compact", "off").unwrap();
        let _g = overlay(&cfg);
        assert!(!OV_COMPACT.enabled());
        let other = std::thread::spawn(|| OV_COMPACT.enabled()).join().unwrap();
        assert!(other, "other threads resolve the process-wide value");
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
        // Process-wide setter roundtrip (restore the env default after).
        let env_default = std::env::var_os("WSDB_NO_COMPACT").is_none_or(|v| v.is_empty());
        set_compact_enabled(Some(false));
        assert!(!compact_enabled());
        set_compact_enabled(None);
        assert_eq!(compact_enabled(), env_default);
    }

    #[test]
    fn factorize_accessors_roundtrip() {
        // The unset-override default tracks the real environment, so this
        // test stays valid under the CI `WSDB_NO_FACTORIZE=1` leg.
        let env_default = std::env::var_os("WSDB_NO_FACTORIZE").is_none_or(|v| v.is_empty());
        assert_eq!(factorize_enabled(), env_default);
        set_factorize_enabled(Some(false));
        assert!(!factorize_enabled());
        set_factorize_enabled(Some(true));
        assert!(factorize_enabled());
        set_factorize_enabled(None);
        assert_eq!(factorize_enabled(), env_default);
    }
}
