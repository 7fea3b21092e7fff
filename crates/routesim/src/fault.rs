//! The fault-site registry: every named place the engine and campaign
//! driver consult an attached [`bgpworms_failpoint::FaultPlan`].
//!
//! A *fault site* is a stable string naming one supervised step of the
//! pipeline; the key it is consulted with identifies the unit of work
//! (a chunk index, a stable prefix hash). Plans are attached explicitly via
//! [`crate::SimSpec::faults`] — campaigns read the plan from their
//! session, never from the environment — and every site is a `None` check
//! when no plan is attached. The campaign sites (`campaign::*`) fire under
//! [`crate::CompiledSim::run`] too, since `run` is a campaign over the
//! session. The crash-resume suite (`tests/faults.rs`) iterates
//! [`fault_site::ALL`] and proves that a simulated crash at each site,
//! followed by a restore from the durably persisted checkpoint, reproduces
//! the uninterrupted run byte for byte.

use bgpworms_types::Prefix;

/// Names of every registered fault site, plus the [`ALL`](fault_site::ALL)
/// registry the crash-resume property suite iterates.
pub mod fault_site {
    /// Entry of one prefix's flood in the engine (`run_prefix` /
    /// `run_delta_prefix`). Key: [`super::prefix_fault_key`]. `Starve`
    /// zeroes the prefix's event budget, so the flood gives up immediately
    /// and reports divergence instead of panicking.
    pub const ENGINE_FLOOD: &str = "engine::flood";
    /// Capturing a converged scratch into a `SimSnapshot`. Key:
    /// [`super::prefix_fault_key`].
    pub const SNAPSHOT_CAPTURE: &str = "snapshot::capture";
    /// Restoring a `SimSnapshot` into a worker scratch for delta
    /// re-convergence. Key: [`super::prefix_fault_key`].
    pub const SNAPSHOT_RESTORE: &str = "snapshot::restore";
    /// A campaign worker claiming a chunk of the schedule. Key: the global
    /// chunk index.
    pub const CHUNK_CLAIM: &str = "campaign::chunk-claim";
    /// One supervised prefix inside a claimed chunk, consulted before the
    /// prefix simulates (or replays a memoized outcome) — the retry /
    /// quarantine target. Key: [`super::prefix_fault_key`].
    pub const PREFIX: &str = "campaign::prefix";
    /// Folding one prefix outcome into the chunk's sink. Key:
    /// [`super::prefix_fault_key`]. Sink state cannot be rolled back, so
    /// fold faults are never retried — they abort (and are survivable only
    /// via checkpoint restore).
    pub const SINK_FOLD: &str = "campaign::fold";
    /// Merging a completed chunk into the checkpoint, in ascending chunk
    /// order. Key: the global chunk index.
    pub const SINK_MERGE: &str = "campaign::merge";
    /// Serializing a checkpoint for durable persistence
    /// (`Campaign::checkpoint_json`). Key: the checkpoint's `chunks_done`.
    pub const CHECKPOINT_SAVE: &str = "campaign::checkpoint-save";

    /// Every registered fault site. The crash-resume suite injects a crash
    /// at each of these and proves checkpoint restore reproduces the
    /// uninterrupted run.
    pub const ALL: &[&str] = &[
        ENGINE_FLOOD,
        SNAPSHOT_CAPTURE,
        SNAPSHOT_RESTORE,
        CHUNK_CLAIM,
        PREFIX,
        SINK_FOLD,
        SINK_MERGE,
        CHECKPOINT_SAVE,
    ];
}

/// The fault key of a prefix: FNV-1a over its canonical text. Stable across
/// processes, platforms, and compiler versions (unlike `DefaultHasher`), so
/// fault plans and durable checkpoints written by one process mean the same
/// thing in another.
pub fn prefix_fault_key(prefix: Prefix) -> u64 {
    use std::fmt::Write;
    let mut text = String::with_capacity(24);
    // lint: infallible `fmt::Write` for `String` never errors
    write!(text, "{prefix}").expect("String formatting is infallible");
    fnv1a(text.as_bytes())
}

/// FNV-1a over a byte string; the workspace's process-independent hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into an FNV-1a state — used to chain multi-part hashes
/// (e.g. the campaign schedule digest hashes every prefix plus a separator).
pub(crate) fn fnv1a_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_fault_key_is_stable_and_distinguishes_prefixes() {
        let a: Prefix = "10.0.0.0/24".parse().expect("prefix");
        let b: Prefix = "10.0.1.0/24".parse().expect("prefix");
        assert_eq!(prefix_fault_key(a), prefix_fault_key(a));
        assert_ne!(prefix_fault_key(a), prefix_fault_key(b));
        // Pin the constant: this value is what fault plans and durable
        // checkpoints written by other processes rely on.
        assert_eq!(prefix_fault_key(a), fnv1a(b"10.0.0.0/24"));
    }

    #[test]
    fn registry_lists_every_site_once() {
        let mut names: Vec<&str> = fault_site::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fault_site::ALL.len(), "duplicate site name");
        assert_eq!(fault_site::ALL.len(), 8);
    }
}
