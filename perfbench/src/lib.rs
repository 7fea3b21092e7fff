//! The repository benchmark: three workloads run from one process, each
//! timed end to end from outside, plus a traced run that attributes the
//! time to the layers it calls into. See `README.md` for the workloads,
//! the metrics and the choices behind them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expected;
pub mod fulltable;
pub mod repro;
pub mod stats;
pub mod survey;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// The seed whose exact work counts and output digests are recorded in
/// [`expected`].
pub const DEFAULT_SEED: u64 = 2018;

/// Set-ups per run: at least [`SETUP_MIN`], and more while they have
/// taken less than [`SETUP_SECONDS`], up to [`SETUP_MAX`]. `setup_s` is
/// their median.
pub const SETUP_MIN: usize = 3;
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 200;
/// See [`SETUP_MIN`].
pub const SETUP_SECONDS: f64 = 2.0;

/// The benchmark's clock. Wall time is what the benchmark measures; no
/// checked result depends on it.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Worker threads: two, capped at the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per untraced operation (inputs ready → verified result).
    pub wall_s: Vec<f64>,
    /// Seconds per traced operation.
    pub traced_wall_s: Vec<f64>,
    /// Milliseconds per untraced query: a survey query is one what-if
    /// question; elsewhere the whole operation is the query.
    pub query_ms: Vec<f64>,
    /// Prefix convergences per operation.
    pub prefixes_per_op: usize,
    /// Prefixes or queries attempted.
    pub attempted: u64,
    /// Prefixes or queries that diverged, were quarantined or failed an
    /// output check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Per-layer metrics of the traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Records the output checks of one operation covering `ops`
    /// prefixes or queries: any failed check fails all of them.
    pub fn verdict(&mut self, ops: u64, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed += ops;
            self.errors.extend(errors);
        }
    }

    /// Median over `per_op` as the per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, per_op: &[f64]) {
        self.layers.insert(name, stats::median(per_op));
    }
}

/// Compares the exact work counts and digest of one operation with the
/// ones recorded for the default seed; one error line per mismatch.
pub fn check_expected(workload: &str, seed: u64, counts: &[(&str, u64)]) -> Vec<String> {
    if seed != DEFAULT_SEED {
        return Vec::new();
    }
    counts
        .iter()
        .filter(|&&(name, got)| expected::lookup(workload, name) != Some(got))
        .map(|&(name, got)| {
            let want = expected::lookup(workload, name);
            format!("{workload}: {name} = {got}, recorded {want:?} for seed {seed}")
        })
        .collect()
}

/// The measurement loop: operations start while the next one is expected
/// to end within `seconds` (judged by the longest iteration so far), with
/// at least `min_ops` of them, and at least two (one untraced, one traced)
/// in a traced run. Not starting an operation that would overrun keeps
/// the run's length near `seconds` however slow one operation is.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    seconds: f64,
    trace: bool,
    min_ops: usize,
    last_start: Instant,
    longest: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn start(seconds: f64, trace: bool, min_ops: usize) -> Self {
        let start = now();
        Budget {
            start,
            seconds,
            trace,
            min_ops: min_ops.max(if trace { 2 } else { 1 }),
            last_start: start,
            longest: 0.0,
        }
    }

    /// `Some(traced)` for the next operation, `None` when time is up.
    /// A traced run alternates untraced and traced operations, so the
    /// two walls can be compared as the tracing overhead.
    pub fn next_op(&mut self, done: usize) -> Option<bool> {
        if done > 0 {
            self.longest = self.longest.max(self.last_start.elapsed().as_secs_f64());
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        if done >= self.min_ops && elapsed + self.longest > self.seconds {
            return None;
        }
        self.last_start = now();
        Some(self.trace && done % 2 == 1)
    }
}

/// Runs `build` repeatedly (see [`SETUP_MIN`]), each time inside a
/// `setup` span, and records its wall times; keeps the last world.
pub fn repeat_setup<W>(
    tr: &mut Tracer,
    m: &mut Measured,
    mut build: impl FnMut(&mut Tracer) -> W,
) -> W {
    let mut kept = None;
    let mut spent = 0.0;
    while m.setup_s.len() < SETUP_MIN || (spent < SETUP_SECONDS && m.setup_s.len() < SETUP_MAX) {
        drop(kept.take());
        let start = now();
        let world = tr.span("setup", &mut build);
        let took = start.elapsed().as_secs_f64();
        m.setup_s.push(took);
        spent += took;
        kept = Some(world);
    }
    kept.expect("at least one set-up")
}

impl Measured {
    /// Adds the per-layer metrics every workload shares — the set-up
    /// layers and the tracing overhead — and writes the spans out.
    pub fn finish_trace(&mut self, tr: &Tracer, workload: &str, seed: u64, ases: usize) {
        self.layers.insert("topology.ases", ases as f64);
        for (metric, span) in [
            ("topology.build_s", "topology.build"),
            ("topology.alloc_s", "topology.alloc"),
            ("routesim.workload.generate_s", "routesim.workload.generate"),
            ("routesim.engine.compile_s", "routesim.engine.compile"),
            ("attacks.survey.context_s", "attacks.survey.context"),
            ("attacks.survey.session_s", "attacks.survey.session"),
        ] {
            self.layer(metric, &tr.per_root("setup", span));
        }
        let traced = stats::median(&self.traced_wall_s);
        let untraced = stats::median(&self.wall_s);
        self.layers.insert("trace.wall_s", traced);
        self.layers.insert("trace.untraced_wall_s", untraced);
        self.layers
            .insert("trace.overhead_frac", traced / untraced - 1.0);
        self.layer("trace.unattributed_s", &tr.root_self("op"));
        self.layers.insert("trace.spans", tr.spans().len() as f64);

        let dir = std::path::Path::new(TRACE_DIR);
        let path = dir.join(format!("{workload}-{seed}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
        }
        eprintln!(
            "[perfbench] {:<32} {:>6} {:>10} {:>10}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in tr.summary() {
            eprintln!("[perfbench] {name:<32} {count:>6} {total:>10.4} {own:>10.4}");
        }
    }
}

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
pub const TRACE_DIR: &str = ".perfbench-trace";
