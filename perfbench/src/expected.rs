//! Exact work counts and output digests of the default seed
//! ([`crate::DEFAULT_SEED`]), per workload. A run with that seed fails its
//! output check when any of them differs. They change only when the
//! program's results change; re-record them then, in a change of their own.

/// `(workload, name, value)`.
const RECORDED: &[(&str, &str, u64)] = &[
    ("repro-medium", "routesim.engine.events", 9_866_584),
    ("repro-medium", "routesim.engine.collector_obs", 478_989),
    ("repro-medium", "routesim.collector.mrt_bytes", 72_827_955),
    ("repro-medium", "core.observation.updates", 478_989),
    ("repro-medium", "digest", 12_500_778_088_505_256_132),
    ("fulltable-internet", "prefixes", 265),
    ("fulltable-internet", "routesim.campaign.class_sims", 155),
    ("fulltable-internet", "routesim.campaign.class_hits", 110),
    ("fulltable-internet", "routesim.campaign.events", 28_384_544),
    ("fulltable-internet", "digest", 252_616_853_414_300_482),
    ("whatif-survey", "candidates", 144),
    ("whatif-survey", "effective", 27),
    ("whatif-survey", "routesim.engine.delta_events", 240_842),
    ("whatif-survey", "digest", 17_095_838_664_811_826_324),
];

/// The recorded value of `name` for `workload`.
pub fn lookup(workload: &str, name: &str) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, n, _)| *w == workload && *n == name)
        .map(|&(_, _, v)| v)
}
