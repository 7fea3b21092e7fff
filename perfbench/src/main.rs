//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload repro-medium|fulltable-internet|whatif-survey
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. A human-readable report goes to standard error.

#![forbid(unsafe_code)]

use perfbench::stats::{median, peak_rss_mb, quantile};
use perfbench::{fulltable, repro, survey, Measured, DEFAULT_SEED};
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("prefixes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit. A layer the
/// workload does not call into reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.alloc_s", "s"),
    ("topology.ases", "count"),
    ("routesim.workload.generate_s", "s"),
    ("routesim.engine.compile_s", "s"),
    ("routesim.engine.run_s", "s"),
    ("routesim.engine.events", "count"),
    ("routesim.engine.events_per_s", "1/s"),
    ("routesim.engine.collector_obs", "count"),
    ("routesim.campaign.run_s", "s"),
    ("routesim.campaign.classify_s", "s"),
    ("routesim.campaign.class_sims", "count"),
    ("routesim.campaign.class_hits", "count"),
    ("routesim.campaign.class_hit_rate", "ratio"),
    ("routesim.campaign.events", "count"),
    ("attacks.full_table.sink_s", "s"),
    ("routesim.engine.snapshot_s", "s"),
    ("routesim.engine.delta_s", "s"),
    ("routesim.engine.delta_serial_s", "s"),
    ("routesim.engine.delta_events", "count"),
    ("routesim.collector.archive_s", "s"),
    ("routesim.collector.mrt_bytes", "bytes"),
    ("routesim.collector.archive_mb_per_s", "MB/s"),
    ("mrt.read_s", "s"),
    ("mrt.records", "count"),
    ("mrt.read_mb_per_s", "MB/s"),
    ("core.observation.parse_s", "s"),
    ("core.observation.updates", "count"),
    ("core.dataset_s", "s"),
    ("core.propagation_s", "s"),
    ("core.usage_s", "s"),
    ("core.filtering_s", "s"),
    ("core.values_s", "s"),
    ("monitor.hygiene_s", "s"),
    ("dataplane.fib_s", "s"),
    ("dataplane.ping_s", "s"),
    ("dataplane.fib_drop_s", "s"),
    ("attacks.survey.context_s", "s"),
    ("attacks.survey.session_s", "s"),
    ("rss.after_run_mb", "MB"),
    ("rss.after_archive_mb", "MB"),
    ("rss.after_parse_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

const USAGE: &str = "usage: perfbench --workload repro-medium|fulltable-internet|whatif-survey \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A finite number as JSON (non-finite reads 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn end_to_end(m: &Measured) -> Vec<f64> {
    let wall = median(&m.wall_s);
    vec![
        wall,
        median(&m.setup_s),
        m.prefixes_per_op as f64 / wall,
        peak_rss_mb(),
        quantile(&m.query_ms, 0.5),
        quantile(&m.query_ms, 0.9),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        repro::NAME => repro::run,
        fulltable::NAME => fulltable::run,
        survey::NAME => survey::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[perfbench] {} seed {} for {} s, trace {}, {} worker threads of {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        perfbench::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut m = run(args.seed, args.seconds, args.trace);
    m.attempted = m.attempted.max(1);
    m.failed = m.failed.min(m.attempted);

    eprintln!(
        "[perfbench] set-ups {}  operations {} untraced + {} traced  queries {}",
        m.setup_s.len(),
        m.wall_s.len(),
        m.traced_wall_s.len(),
        m.query_ms.len()
    );
    let walls: Vec<String> = m.wall_s.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "[perfbench] untraced operation walls (s): {}",
        walls.join(" ")
    );
    eprintln!(
        "[perfbench] attempted {}  failed {}  failed_frac {}",
        m.attempted,
        m.failed,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    for e in &m.errors {
        eprintln!("[perfbench] CHECK FAILED: {e}");
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&m))
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        eprintln!("[perfbench] {name:<36} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    let correct = m.errors.is_empty() && m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted, m.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
