//! The benchmark times the code paths users run: each staged pipeline is
//! checked here, at a small scale, against the entry point it restages.

use bgpworms_attacks::wild::full_table::run_full_table;
use bgpworms_attacks::wild::survey::{self as wild_survey, SurveyContext};
use bgpworms_bench::{Scale, Snapshot};
use bgpworms_topology::TopologyParams;
use bgpworms_types::{Asn, Community};
use perfbench::trace::Tracer;
use perfbench::{fulltable, repro, survey};
use std::collections::BTreeMap;

#[test]
fn staged_repro_matches_snapshot_build() {
    let seed = 7;
    let snap = Snapshot::build(Scale::Small, seed);

    let mut tr = Tracer::new(true);
    let world = repro::World::build(TopologyParams::small(), seed, &mut tr);
    let sim = world.compile(&mut tr);
    let staged = repro::stage(&world, &sim, &mut tr).expect("staged pipeline runs");

    assert_eq!(staged.events, snap.events);
    assert!(staged.converged);
    assert_eq!(
        staged.observations.observations,
        snap.observations.observations
    );
    assert_eq!(staged.observations.messages, snap.observations.messages);
    assert_eq!(
        staged.collector_obs,
        staged.observations.observations.len() as u64,
        "MRT round trip keeps every collector observation"
    );
    let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    for layer in [
        "topology.build",
        "routesim.workload.generate",
        "routesim.engine.compile",
        "routesim.engine.run",
        "routesim.collector.archive",
        "core.observation.parse",
    ] {
        assert!(names.contains(&layer), "no {layer} span");
    }
}

#[test]
fn survey_query_loop_matches_blackhole_round() {
    let params = survey::params(TopologyParams::small(), 7);
    let ctx = SurveyContext::build(&params);
    let session = ctx.session();
    let candidates = survey::corpus(&ctx.workload, params.max_communities);
    let before = survey::baseline(&ctx, &session);
    let mut tr = Tracer::new(false);
    let ours: BTreeMap<Community, Vec<Asn>> = candidates
        .iter()
        .map(|&c| (c, survey::query(&ctx, &session, &before, c, &mut tr)))
        .collect();

    assert_eq!(ours, ctx.blackhole_round(&candidates));
    assert!(
        ours.values().any(|lost| !lost.is_empty()),
        "a candidate acts"
    );

    // The corpus is the one the survey itself tests.
    let report = wild_survey::run(&params);
    assert_eq!(report.communities_tested, candidates.len());
    let effective: BTreeMap<Community, Vec<Asn>> = ours
        .into_iter()
        .filter(|(_, lost)| !lost.is_empty())
        .collect();
    assert_eq!(effective, report.effective);
}

#[test]
fn staged_campaign_matches_run_full_table() {
    let seed = 2018;
    let sample = 64;
    let mut tr = Tracer::new(false);
    let world = fulltable::World::build(TopologyParams::tiny(), seed, sample, &mut tr);
    let sim = world.compile(&mut tr);
    let table = fulltable::campaign(&world, &sim, &mut tr);
    let report = run_full_table(&world.workload, &world.topo, &world.alloc, Some(sample), 2);

    assert_eq!(table.prefixes, report.prefixes as u64);
    assert_eq!(table.classes, report.classes as u64);
    assert_eq!(table.class_sims, report.class_sims);
    assert_eq!(table.class_hits, report.class_hits);
    assert_eq!(table.events, report.events);
    assert_eq!(table.converged, report.converged);
    assert_eq!(table.tags, report.tags);
    assert!(table.class_hits > 0, "the sample replays some prefixes");
}
