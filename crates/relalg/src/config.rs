//! Central runtime configuration for the engine's tuning knobs.
//!
//! Every execution-path switch the engine exposes follows the same
//! three-layer resolution: a **runtime override** (set programmatically by
//! benchmarks and A/B tests) wins over the **environment variable** (read
//! once per process — several of these sit on operator hot paths and
//! `env::var` takes a process-wide lock), which wins over the compiled-in
//! **default**. Before this module each switch hand-rolled that stack with
//! its own `AtomicUsize` + `OnceLock` pair; the copies had already drifted
//! in small ways (clamping, cache-reset behavior). [`Knob`] and [`Toggle`]
//! implement the stack once, and the per-switch statics below are the
//! single place a new variable is declared.
//!
//! | static | environment variable | meaning |
//! |---|---|---|
//! | [`THREADS`] | `WSDB_THREADS` | pool worker count (default: available parallelism) |
//! | [`PAR_MIN_TUPLES`] | `WSDB_PAR_MIN_TUPLES` | tuple count before chunked sorts/joins fan out |
//! | [`COLUMNAR_MIN_ROWS`] | `WSDB_COLUMNAR_MIN_ROWS` | row count before columnar kernels engage |
//! | [`REWRITE`] | `WSDB_NO_REWRITE` (non-empty disables) | Section-6 optimizer in front of the interpreter route and `run_general` |
//! | [`COLUMNAR`] | `WSDB_NO_COLUMNAR` (non-empty disables) | columnar physical paths |
//! | [`FACTORIZE`] | `WSDB_NO_FACTORIZE` (non-empty disables) | factorized world-set execution |
//! | [`FACTORIZE_MIN_WORLDS`] | `WSDB_FACTORIZE_MIN_WORLDS` | implicit-world estimate before the factorized path engages |
//! | [`WORLDS_BUDGET`] | `WSDB_WORLDS_BUDGET` | base world-validity DNF disjunct allowance (scaled adaptively by variable count) |
//! | [`COMPACT`] | `WSDB_NO_COMPACT` (non-empty disables) | lineage/validity formula compaction |
//!
//! The long-standing public accessors (`pool::num_threads`,
//! `columnar_enabled`, [`rewrite_enabled`], …) remain the
//! call-site API; they now delegate here.
//!
//! # Per-session overrides
//!
//! On top of the three process-wide layers sits an optional **session
//! overlay** ([`SessionConfig`]): a small table of per-connection overrides
//! that an `isql` session installs for the duration of one statement
//! ([`overlay`]) and that the execution pool carries onto its worker
//! threads. An overlay value wins over every process-wide layer; an unset
//! overlay slot falls through. The overlay is thread-local, so two
//! concurrent sessions with different settings never see each other's
//! choices. When no thread has an overlay installed the accessors pay one
//! extra relaxed load and nothing else — the process-default path the
//! benchmarks measure is unchanged.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of overlay slots (one per knob/toggle static below).
const NUM_SLOTS: usize = 9;

/// Sentinel slot for knobs/toggles that opt out of the session overlay
/// (test-local statics).
const NO_SLOT: usize = usize::MAX;

const SLOT_THREADS: usize = 0;
const SLOT_PAR_MIN_TUPLES: usize = 1;
const SLOT_COLUMNAR_MIN_ROWS: usize = 2;
const SLOT_REWRITE: usize = 3;
const SLOT_COLUMNAR: usize = 4;
const SLOT_FACTORIZE: usize = 5;
const SLOT_FACTORIZE_MIN_WORLDS: usize = 6;
const SLOT_WORLDS_BUDGET: usize = 7;
const SLOT_COMPACT: usize = 8;

/// Encoding shared by all slots: `0` = inherit the process-wide value.
/// Knob slots store the value itself; toggle slots store 1 = on, 2 = off.
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

/// Per-session overrides for the engine's tuning knobs, resolved *above*
/// the process-wide stack (override → environment → default). Carried by
/// each `isql` session, populated by `set local <knob> = <value>;`
/// statements, and installed around statement evaluation with [`overlay`].
///
/// Knob names accepted by [`SessionConfig::set`] (case-insensitive):
/// `threads`, `par_min_tuples`, `columnar_min_rows`,
/// `factorize_min_worlds`, `worlds_budget` (positive integer or
/// `default`), and the toggles `rewrite`, `columnar`, `factorize`,
/// `compact` (`on`/`off`/`true`/`false`/`1`/`0` or `default`).
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

    /// Set one knob by name. `value` is `default` to clear the override, a
    /// positive integer for the numeric knobs, or
    /// `on`/`off`/`true`/`false`/`1`/`0` for the toggles. Returns a
    /// human-readable error for unknown knobs or unparsable values.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let name_lc = name.to_ascii_lowercase();
        let value_lc = value.trim().to_ascii_lowercase();
        let (slot, is_toggle) = match name_lc.as_str() {
            "threads" => (SLOT_THREADS, false),
            "par_min_tuples" => (SLOT_PAR_MIN_TUPLES, false),
            "columnar_min_rows" => (SLOT_COLUMNAR_MIN_ROWS, false),
            "factorize_min_worlds" => (SLOT_FACTORIZE_MIN_WORLDS, false),
            "worlds_budget" => (SLOT_WORLDS_BUDGET, false),
            "rewrite" => (SLOT_REWRITE, true),
            "columnar" => (SLOT_COLUMNAR, true),
            "factorize" => (SLOT_FACTORIZE, true),
            "compact" => (SLOT_COMPACT, true),
            _ => {
                return Err(format!(
                    "unknown knob {name}; known: threads, par_min_tuples, \
                     columnar_min_rows, factorize_min_worlds, worlds_budget, \
                     rewrite, columnar, factorize, compact"
                ))
            }
        };
        let encoded = if value_lc == "default" {
            0
        } else if is_toggle {
            match value_lc.as_str() {
                "on" | "true" | "1" => 1,
                "off" | "false" | "0" => 2,
                _ => return Err(format!("{name} expects on/off or default, got {value}")),
            }
        } else {
            match value_lc.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    return Err(format!(
                        "{name} expects a positive integer or default, got {value}"
                    ))
                }
            }
        };
        self.slots[slot] = encoded;
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
        const NAMES: [&str; NUM_SLOTS] = [
            "threads",
            "par_min_tuples",
            "columnar_min_rows",
            "rewrite",
            "columnar",
            "factorize",
            "factorize_min_worlds",
            "worlds_budget",
            "compact",
        ];
        const TOGGLES: [bool; NUM_SLOTS] = [
            false, false, false, true, true, true, false, false, true,
        ];
        let mut parts = Vec::new();
        for (i, &v) in self.slots.iter().enumerate() {
            if v == 0 {
                continue;
            }
            let rendered = if TOGGLES[i] {
                (if v == 1 { "on" } else { "off" }).to_string()
            } else {
                v.to_string()
            };
            parts.push(format!("{} = {}", NAMES[i], rendered));
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

/// The overlay currently installed on this thread (all-default when none).
/// The execution pool captures this before spawning scoped workers and
/// re-installs it on each of them with [`overlay`], so per-session settings
/// follow the work across threads.
pub fn current_overlay() -> SessionConfig {
    if OVERLAYS_ACTIVE.load(Ordering::Relaxed) == 0 {
        return SessionConfig::default();
    }
    SessionConfig {
        slots: OVERLAY.with(|c| c.get()),
    }
}

/// A `usize` tuning knob: runtime override → environment variable →
/// compiled-in default. Values are clamped to a minimum of 1 (`0` is the
/// internal "no override" sentinel).
pub struct Knob {
    env_var: &'static str,
    default: fn() -> usize,
    /// Index into the session-overlay table, or [`NO_SLOT`] for knobs that
    /// have no per-session override (test-local statics).
    slot: usize,
    /// The resolved effective value; `0` means "not yet resolved". This is
    /// the hot-path cache: [`Knob::get`] sits behind every operator's
    /// parallelization gate, so after the first resolution it must cost
    /// one relaxed load (re-resolving through the `OnceLock` each call
    /// measurably slows the world-set benches).
    cached: AtomicUsize,
    /// Runtime override; `0` means "no override".
    over: AtomicUsize,
    /// Environment resolution, computed once per process.
    env: OnceLock<usize>,
}

impl Knob {
    /// Declare a knob bound to `env_var`, with `default` as the value when
    /// neither an override nor the environment provides one.
    pub const fn new(env_var: &'static str, default: fn() -> usize) -> Knob {
        Knob::with_slot(env_var, default, NO_SLOT)
    }

    /// Declare a knob that additionally honors session overlay slot `slot`.
    const fn with_slot(env_var: &'static str, default: fn() -> usize, slot: usize) -> Knob {
        Knob {
            env_var,
            default,
            slot,
            cached: AtomicUsize::new(0),
            over: AtomicUsize::new(0),
            env: OnceLock::new(),
        }
    }

    /// The effective value: the current thread's session overlay if one
    /// covers this knob, else the runtime override, else the environment
    /// variable (parsed once, values `>= 1` only), else the default.
    #[inline]
    pub fn get(&self) -> usize {
        let o = overlay_slot(self.slot);
        if o != 0 {
            return o;
        }
        let c = self.cached.load(Ordering::Relaxed);
        if c != 0 {
            return c;
        }
        self.resolve()
    }

    /// Slow path of [`Knob::get`]: resolve override → environment →
    /// default and refill the cache (racing resolvers agree on the value).
    #[cold]
    fn resolve(&self) -> usize {
        let v = self.over.load(Ordering::Relaxed);
        let v = if v != 0 {
            v
        } else {
            *self.env.get_or_init(|| {
                std::env::var(self.env_var)
                    .ok()
                    .and_then(|s| s.trim().parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(self.default)
            })
        };
        self.cached.store(v, Ordering::Relaxed);
        v
    }

    /// Install a runtime override (clamped to a minimum of 1); `None`
    /// restores the environment-derived value.
    pub fn set(&self, n: Option<usize>) {
        self.over
            .store(n.map(|x| x.max(1)).unwrap_or(0), Ordering::SeqCst);
        // Invalidate the fast-path cache; the next `get` re-resolves.
        self.cached.store(0, Ordering::SeqCst);
    }

    /// The environment variable this knob reads.
    pub fn env_var(&self) -> &'static str {
        self.env_var
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
    /// Same hot-path cache as [`Knob::cached`] — one relaxed load after
    /// the first resolution.
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

    /// The environment variable this toggle reads.
    pub fn env_var(&self) -> &'static str {
        self.env_var
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pool worker count (`WSDB_THREADS`); see [`crate::pool::num_threads`].
pub static THREADS: Knob = Knob::with_slot("WSDB_THREADS", default_threads, SLOT_THREADS);

/// Tuple count before the chunked-sort / partitioned-join paths fan out
/// (`WSDB_PAR_MIN_TUPLES`); see [`crate::pool::par_min_tuples`].
pub static PAR_MIN_TUPLES: Knob = Knob::with_slot(
    "WSDB_PAR_MIN_TUPLES",
    || crate::pool::PAR_MIN_TUPLES,
    SLOT_PAR_MIN_TUPLES,
);

/// Row count before a columnar kernel pays for itself
/// (`WSDB_COLUMNAR_MIN_ROWS`); see [`crate::physical::columnar_min_rows`].
pub static COLUMNAR_MIN_ROWS: Knob =
    Knob::with_slot("WSDB_COLUMNAR_MIN_ROWS", || 64, SLOT_COLUMNAR_MIN_ROWS);

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

/// Minimum estimated implicit world count before the factorized path is
/// chosen over enumeration (`WSDB_FACTORIZE_MIN_WORLDS`). Below it,
/// enumerated evaluation is cheap and avoids the expand step entirely.
pub static FACTORIZE_MIN_WORLDS: Knob = Knob::with_slot(
    "WSDB_FACTORIZE_MIN_WORLDS",
    || 16,
    SLOT_FACTORIZE_MIN_WORLDS,
);

/// Base disjunct allowance of a world-validity DNF before the factorized
/// path declines (`WSDB_WORLDS_BUDGET`). The effective budget is adaptive:
/// the formula layer scales this base with the number of live choice
/// variables (a representation with more variables legitimately carries
/// more disjuncts), so the knob sets the *per-variable-group* allowance
/// rather than a hard cap. Runtime setter: `WORLDS_BUDGET.set(..)`, or
/// `set local worlds_budget = <n>;` per session.
pub static WORLDS_BUDGET: Knob = Knob::with_slot("WSDB_WORLDS_BUDGET", || 1024, SLOT_WORLDS_BUDGET);

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
    fn knob_override_wins_and_clamps() {
        static K: Knob = Knob::new("WSDB_TEST_KNOB_UNSET", || 7);
        assert_eq!(K.get(), 7);
        K.set(Some(3));
        assert_eq!(K.get(), 3);
        K.set(Some(0));
        assert_eq!(K.get(), 1, "override clamps to a minimum of 1");
        K.set(None);
        assert_eq!(K.get(), 7);
        assert_eq!(K.env_var(), "WSDB_TEST_KNOB_UNSET");
    }

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
    // they stay race-free against the pool tests, which mutate the real
    // `THREADS` knob concurrently in this test binary.
    static OV_KNOB: Knob = Knob::with_slot("WSDB_TEST_OV_KNOB_UNSET", || 7, SLOT_THREADS);
    static OV_TOGGLE: Toggle = Toggle::with_slot("WSDB_TEST_OV_TOGGLE_UNSET", SLOT_REWRITE);

    #[test]
    fn session_overlay_wins_and_restores() {
        let mut cfg = SessionConfig::new();
        assert!(cfg.is_default());
        cfg.set("threads", "3").unwrap();
        cfg.set("rewrite", "off").unwrap();
        {
            let _g = overlay(&cfg);
            assert_eq!(OV_KNOB.get(), 3);
            assert!(!OV_TOGGLE.enabled());
            // Unset slots fall through to the process-wide stack.
            assert!(COLUMNAR_MIN_ROWS.get() >= 1);
            // Nested overlays shadow and restore.
            let mut inner = cfg;
            inner.set("threads", "5").unwrap();
            {
                let _g2 = overlay(&inner);
                assert_eq!(OV_KNOB.get(), 5);
            }
            assert_eq!(OV_KNOB.get(), 3);
        }
        assert_eq!(OV_KNOB.get(), 7, "overlay restores the process-wide value");
        assert!(OV_TOGGLE.enabled());
    }

    #[test]
    fn session_overlay_is_thread_local() {
        let mut cfg = SessionConfig::new();
        cfg.set("threads", "42").unwrap();
        let _g = overlay(&cfg);
        assert_eq!(OV_KNOB.get(), 42);
        let other = std::thread::spawn(|| OV_KNOB.get()).join().unwrap();
        assert_eq!(other, 7, "other threads resolve the process-wide value");
    }

    #[test]
    fn session_config_set_validates() {
        let mut cfg = SessionConfig::new();
        assert!(cfg.set("no_such_knob", "1").is_err());
        assert!(cfg.set("threads", "0").is_err());
        assert!(cfg.set("threads", "abc").is_err());
        assert!(cfg.set("rewrite", "7").is_err());
        cfg.set("factorize", "off").unwrap();
        assert!(!cfg.factorize_enabled());
        assert_eq!(cfg.describe(), "factorize = off");
        cfg.set("factorize", "default").unwrap();
        assert!(cfg.is_default());
        assert_eq!(cfg.describe(), "");
    }

    #[test]
    fn current_overlay_roundtrip() {
        assert!(current_overlay().is_default());
        let mut cfg = SessionConfig::new();
        cfg.set("columnar", "off").unwrap();
        let _g = overlay(&cfg);
        let seen = current_overlay();
        assert_eq!(seen, cfg);
        assert!(!seen.columnar_enabled());
    }

    #[test]
    fn worlds_budget_and_compact_knobs() {
        // Environment-free default of the budget base.
        assert!(WORLDS_BUDGET.get() >= 1);
        let mut cfg = SessionConfig::new();
        cfg.set("worlds_budget", "4096").unwrap();
        cfg.set("compact", "off").unwrap();
        assert_eq!(cfg.describe(), "worlds_budget = 4096, compact = off");
        cfg.set("worlds_budget", "default").unwrap();
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
