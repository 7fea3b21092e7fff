//! Deterministic, hermetic fault injection for the bgpworms workspace.
//!
//! A [`FaultPlan`] is an explicit, value-passed description of which named
//! *fault sites* should misbehave, how, and how many times. Plans are wired
//! through the session builder (`SimSpec::faults`; campaigns inherit the
//! session's plan) — never through environment variables — so detlint's
//! no-env-dependence rule stays clean and a run's behavior is a pure
//! function of its inputs.
//!
//! Design points:
//!
//! - **Named sites.** A fault site is a `&'static str` like
//!   `"campaign::chunk-claim"`; the registry of sites compiled into the
//!   simulator lives in `bgpworms-routesim::fault_site`. This crate only
//!   defines the mechanism.
//! - **Keyed, deterministic counters.** Every site consultation carries a
//!   `u64` key (a chunk index, a stable prefix hash). An entry fires for the
//!   first `fires` consultations of a matching key, then passes — which is
//!   exactly the shape a *transient* fault has under a retry policy.
//! - **Seeded sampling.** [`FaultPlan::fail_sampled`] selects keys by a pure
//!   hash of `(seed, site, key)`, so "fail one in N prefixes" is reproducible
//!   and independent of thread count or visit order.
//! - **Zero cost when disabled.** Call sites hold an `Option<&FaultPlan>`;
//!   the disabled path is a `None` check.
//!
//! Three fault kinds are injected ([`FaultKind`]): a plain panic (supervisable
//! by retry/quarantine policies), a *simulated crash* (modeling process death:
//! supervisors must re-throw it so only a durable checkpoint survives it), and
//! *budget starvation* ([`FaultPlan::check`] hands the site `Starve` and the
//! caller degrades gracefully instead of panicking).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap; // lint: order-independent probed by (entry, key); never iterated
use std::fmt;
use std::sync::Mutex;

/// What a tripped fault site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic with a [`FaultPayload`]. Supervisors may retry or quarantine.
    Panic,
    /// Panic with a [`FaultPayload`] that models *process death*. Supervisors
    /// must not swallow it: the only legitimate recovery is restoring a
    /// durably persisted checkpoint in a fresh "process".
    Crash,
    /// Do not panic; report starvation so the caller can zero its budget and
    /// degrade gracefully (e.g. a flood that gives up and reports
    /// non-convergence). At sites with no budget this kind is a no-op.
    Starve,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::Crash => "simulated crash",
            FaultKind::Starve => "budget starvation",
        })
    }
}

/// The panic payload carried by injected [`FaultKind::Panic`] and
/// [`FaultKind::Crash`] faults. Supervisors downcast to this type to tell an
/// injected crash from an ordinary panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPayload {
    /// The site that tripped.
    pub site: String,
    /// The fault kind (never [`FaultKind::Starve`]; starvation does not panic).
    pub kind: FaultKind,
    /// The key the site was consulted with.
    pub key: u64,
}

impl fmt::Display for FaultPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} at fault site `{}` (key {})",
            self.kind, self.site, self.key
        )
    }
}

/// Returns the injected-crash payload if `payload` is a [`FaultPayload`] of
/// kind [`FaultKind::Crash`]. Supervision loops use this to re-throw crashes
/// instead of retrying them.
pub fn crash_payload(payload: &(dyn std::any::Any + Send)) -> Option<&FaultPayload> {
    payload
        .downcast_ref::<FaultPayload>()
        .filter(|p| p.kind == FaultKind::Crash)
}

/// A panic payload that carries its value's type name, so that panic-message
/// rendering stays *total*: `panic_labeled(v)` panics with a payload that any
/// handler can render as `` panic payload of type `T`: … `` without knowing
/// `T`. (A raw `panic_any(v)` payload is an opaque `dyn Any`; the type name
/// cannot be recovered after the fact, so it must be captured at panic time.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledPayload {
    type_name: &'static str,
    rendered: String,
}

impl LabeledPayload {
    /// The `std::any::type_name` of the panicked value.
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// The `Debug` rendering of the panicked value.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }
}

impl fmt::Display for LabeledPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "panic payload of type `{}`: {}",
            self.type_name, self.rendered
        )
    }
}

/// Panic with a [`LabeledPayload`] wrapping `value`, capturing its type name
/// and `Debug` rendering at the panic site.
pub fn panic_labeled<T: fmt::Debug + Send + 'static>(value: T) -> ! {
    std::panic::panic_any(LabeledPayload {
        type_name: std::any::type_name::<T>(),
        rendered: format!("{value:?}"),
    })
}

/// How an entry matches the key a site is consulted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyMatch {
    /// Matches exactly one key.
    Exact(u64),
    /// Matches every key.
    Any,
    /// Matches keys selected by a pure hash of `(plan seed, site, key)`:
    /// roughly one key in `n` matches, reproducibly.
    SampledOneIn(u32),
}

#[derive(Debug, Clone)]
struct FaultEntry {
    site: String,
    key: KeyMatch,
    kind: FaultKind,
    fires: u32,
}

impl FaultEntry {
    fn matches(&self, seed: u64, site: &str, key: u64) -> bool {
        if self.site != site {
            return false;
        }
        match self.key {
            KeyMatch::Exact(k) => k == key,
            KeyMatch::Any => true,
            KeyMatch::SampledOneIn(n) => {
                n != 0 && sample_hash(seed, site, key).is_multiple_of(u64::from(n))
            }
        }
    }

    /// The attempt-counter slot for a consultation with `key`. `Any` entries
    /// share one counter (so `fires = 1` means "one fault total at this
    /// site"); `Exact` and `SampledOneIn` entries count per key.
    fn counter_key(&self, key: u64) -> u64 {
        match self.key {
            KeyMatch::Any => 0,
            KeyMatch::Exact(_) | KeyMatch::SampledOneIn(_) => key,
        }
    }
}

/// FNV-1a over the seed, site name, and key; pure and process-independent.
fn sample_hash(seed: u64, site: &str, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    seed.to_le_bytes().into_iter().for_each(&mut mix);
    site.bytes().for_each(&mut mix);
    key.to_le_bytes().into_iter().for_each(&mut mix);
    h
}

/// A deterministic fault plan: an ordered list of entries plus per-entry
/// attempt counters. The configuration half (entries, seed) is immutable
/// after building; the counters are execution state, which is why `Clone`
/// yields a plan with the same configuration but *fresh* counters — clone a
/// plan to compare a resumed execution against an uninterrupted one.
pub struct FaultPlan {
    seed: u64,
    entries: Vec<FaultEntry>,
    /// Attempt counts per (entry index, counter key).
    state: Mutex<HashMap<(usize, u64), u32>>, // lint: order-independent probed per consultation; never iterated
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

impl Clone for FaultPlan {
    /// Clones the *configuration* with fresh attempt counters (counters are
    /// execution-scoped state, not configuration).
    fn clone(&self) -> Self {
        FaultPlan {
            seed: self.seed,
            entries: self.entries.clone(),
            state: Mutex::new(HashMap::new()), // lint: order-independent probed per consultation; never iterated
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan with seed 0. Consulting an empty plan never fires.
    pub fn new() -> Self {
        FaultPlan::seeded(0)
    }

    /// An empty plan whose sampled entries ([`FaultPlan::fail_sampled`]) are
    /// keyed off `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
            state: Mutex::new(HashMap::new()), // lint: order-independent probed per consultation; never iterated
        }
    }

    /// Adds an entry that fires `fires` times for the exact key `key` at
    /// `site`, then passes.
    pub fn fail(mut self, site: &str, key: u64, kind: FaultKind, fires: u32) -> Self {
        self.entries.push(FaultEntry {
            site: site.to_string(),
            key: KeyMatch::Exact(key),
            kind,
            fires,
        });
        self
    }

    /// Adds an entry that fires for the first `fires` consultations of `site`
    /// regardless of key (one shared counter), then passes.
    pub fn fail_any(mut self, site: &str, kind: FaultKind, fires: u32) -> Self {
        self.entries.push(FaultEntry {
            site: site.to_string(),
            key: KeyMatch::Any,
            kind,
            fires,
        });
        self
    }

    /// Adds an entry that fires `fires` times per matching key at `site`,
    /// where roughly one key in `one_in` matches, selected by a pure hash of
    /// the plan seed, the site name, and the key.
    pub fn fail_sampled(mut self, site: &str, one_in: u32, kind: FaultKind, fires: u32) -> Self {
        self.entries.push(FaultEntry {
            site: site.to_string(),
            key: KeyMatch::SampledOneIn(one_in),
            kind,
            fires,
        });
        self
    }

    /// True if the plan has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if any entry *could* fire at `(site, key)`, ignoring attempt
    /// counters. Pure (no counter is consumed). Callers use this to identify
    /// targeted work up front — e.g. the campaign bypasses flood memoization
    /// for prefixes targeted by engine-scoped entries so that memoized and
    /// unmemoized runs observe the same faults.
    pub fn targets(&self, site: &str, key: u64) -> bool {
        self.entries.iter().any(|e| e.matches(self.seed, site, key))
    }

    /// Consults the plan at `(site, key)`, consuming one attempt from the
    /// first matching entry. Returns the fault to inject for this visit, or
    /// `None` once matching entries are exhausted (or never matched).
    pub fn check(&self, site: &str, key: u64) -> Option<FaultKind> {
        if self.entries.is_empty() {
            return None;
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if !entry.matches(self.seed, site, key) {
                continue;
            }
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let seen = state.entry((i, entry.counter_key(key))).or_insert(0);
            *seen += 1;
            if *seen <= entry.fires {
                return Some(entry.kind);
            }
        }
        None
    }

    /// Consults the plan and *acts*: panics with a [`FaultPayload`] for
    /// [`FaultKind::Panic`] / [`FaultKind::Crash`], and returns `true` for
    /// [`FaultKind::Starve`] (callers with a budget should zero it; callers
    /// without one may ignore the result — starvation is a no-op there).
    pub fn trip(&self, site: &str, key: u64) -> bool {
        match self.check(site, key) {
            None => false,
            Some(FaultKind::Starve) => true,
            Some(kind) => std::panic::panic_any(FaultPayload {
                site: site.to_string(),
                kind,
                key,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.check("any::site", 7), None);
        assert!(!plan.trip("any::site", 7));
        assert!(!plan.targets("any::site", 7));
    }

    #[test]
    fn exact_entry_fires_n_times_then_passes() {
        let plan = FaultPlan::new().fail("s::a", 3, FaultKind::Panic, 2);
        assert_eq!(plan.check("s::a", 3), Some(FaultKind::Panic));
        assert_eq!(plan.check("s::a", 3), Some(FaultKind::Panic));
        assert_eq!(plan.check("s::a", 3), None);
        assert_eq!(plan.check("s::a", 4), None, "other keys never fire");
        assert_eq!(plan.check("s::b", 3), None, "other sites never fire");
    }

    #[test]
    fn any_entry_shares_one_counter_across_keys() {
        let plan = FaultPlan::new().fail_any("s::a", FaultKind::Crash, 1);
        assert_eq!(plan.check("s::a", 10), Some(FaultKind::Crash));
        assert_eq!(plan.check("s::a", 11), None, "budget shared across keys");
        assert!(plan.targets("s::a", 12), "targets ignores counters");
    }

    #[test]
    fn sampled_entry_is_a_pure_function_of_seed_site_key() {
        let a = FaultPlan::seeded(42).fail_sampled("s::a", 4, FaultKind::Starve, 1);
        let b = FaultPlan::seeded(42).fail_sampled("s::a", 4, FaultKind::Starve, 1);
        let hits_a: Vec<u64> = (0..256).filter(|&k| a.targets("s::a", k)).collect();
        let hits_b: Vec<u64> = (0..256).filter(|&k| b.targets("s::a", k)).collect();
        assert_eq!(hits_a, hits_b);
        assert!(!hits_a.is_empty(), "1-in-4 over 256 keys should hit");
        assert!(hits_a.len() < 256, "and should not hit everything");
        let other = FaultPlan::seeded(43).fail_sampled("s::a", 4, FaultKind::Starve, 1);
        let hits_other: Vec<u64> = (0..256).filter(|&k| other.targets("s::a", k)).collect();
        assert_ne!(
            hits_a, hits_other,
            "a different seed selects different keys"
        );
    }

    #[test]
    fn clone_keeps_configuration_but_resets_counters() {
        let plan = FaultPlan::new().fail("s::a", 1, FaultKind::Panic, 1);
        assert_eq!(plan.check("s::a", 1), Some(FaultKind::Panic));
        assert_eq!(plan.check("s::a", 1), None, "exhausted");
        let fresh = plan.clone();
        assert_eq!(
            fresh.check("s::a", 1),
            Some(FaultKind::Panic),
            "fresh counters"
        );
    }

    #[test]
    fn trip_panics_with_a_typed_payload() {
        let plan = FaultPlan::new().fail("s::a", 9, FaultKind::Crash, 1);
        let err = catch_unwind(AssertUnwindSafe(|| plan.trip("s::a", 9))).unwrap_err();
        let payload = crash_payload(&*err).expect("crash payload");
        assert_eq!(payload.site, "s::a");
        assert_eq!(payload.key, 9);
        assert_eq!(
            payload.to_string(),
            "injected simulated crash at fault site `s::a` (key 9)"
        );
        assert!(!plan.trip("s::a", 9), "consumed");
    }

    #[test]
    fn starve_reports_without_panicking() {
        let plan = FaultPlan::new().fail("s::a", 5, FaultKind::Starve, 1);
        assert!(plan.trip("s::a", 5));
        assert!(!plan.trip("s::a", 5), "consumed");
    }

    #[test]
    fn crash_payload_rejects_plain_panics_and_panic_kind() {
        let err = catch_unwind(|| panic!("plain")).unwrap_err();
        assert!(crash_payload(&*err).is_none());
        let plan = FaultPlan::new().fail("s::a", 1, FaultKind::Panic, 1);
        let err = catch_unwind(AssertUnwindSafe(|| plan.trip("s::a", 1))).unwrap_err();
        assert!(crash_payload(&*err).is_none(), "Panic kind is not a crash");
    }

    #[test]
    fn labeled_panics_render_their_type_name() {
        #[derive(Debug)]
        struct Custom {
            #[allow(dead_code)] // read only through the Debug rendering
            code: u32,
        }
        let err = catch_unwind(|| panic_labeled(Custom { code: 7 })).unwrap_err();
        let payload = err.downcast_ref::<LabeledPayload>().expect("labeled");
        assert!(payload.type_name().ends_with("Custom"));
        assert_eq!(payload.rendered(), "Custom { code: 7 }");
        assert!(payload.to_string().contains("Custom"));
    }
}
