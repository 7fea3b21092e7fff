//! `fulltable-internet`: an origin-preserving sample of the deaggregated
//! full table on the ~62 K-AS Internet, run through the memoizing
//! [`Campaign`] the way `attacks::wild::full_table::run_full_table` runs
//! it: classify, then flood each class once and replay its members.

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::{threads, Budget, Measured};
use bgpworms_attacks::wild::full_table::{full_table_schedule, sample_schedule, TagPropagation};
use bgpworms_routesim::{
    Campaign, CampaignSink, CompiledSim, Origination, PrefixOutcome, Workload, WorkloadParams,
};
use bgpworms_topology::{
    addressing::AddressingParams, FullTableParams, PrefixAllocation, Topology, TopologyParams,
};
use bgpworms_types::Prefix;
use std::fmt::Write as _;

/// Workload name.
pub const NAME: &str = "fulltable-internet";

/// Target size of the origin-preserving sample (`repro full-table
/// --sample N`): whole origins are kept, so the run keeps the full
/// table's mix of simulated and replayed prefixes.
pub const SAMPLE: usize = 256;

/// The Internet topology, its deaggregated table and the sampled schedule.
pub struct World {
    /// The topology.
    pub topo: Topology,
    /// The deaggregated allocation.
    pub alloc: PrefixAllocation,
    /// Policies and collectors.
    pub workload: Workload,
    /// The sampled full-table schedule.
    pub schedule: Vec<Origination>,
}

impl World {
    /// Generates the world as `repro full-table` does, with `seed` for
    /// the topology too.
    pub fn build(topo_params: TopologyParams, seed: u64, sample: usize, tr: &mut Tracer) -> World {
        let topo = tr.span("topology.build", |_| topo_params.seed(seed).build());
        let alloc = tr.span("topology.alloc", |_| {
            PrefixAllocation::assign(
                &topo,
                AddressingParams {
                    seed,
                    ..AddressingParams::default()
                },
            )
            .deaggregate(
                &topo,
                FullTableParams {
                    seed,
                    ..FullTableParams::default()
                },
            )
        });
        let workload = tr.span("routesim.workload.generate", |_| {
            Workload::generate(
                &topo,
                &alloc,
                &WorkloadParams {
                    seed,
                    ..WorkloadParams::default()
                },
            )
        });
        let schedule = tr.span("attacks.full_table.schedule", |_| {
            sample_schedule(&full_table_schedule(&workload, &alloc), sample)
        });
        World {
            topo,
            alloc,
            workload,
            schedule,
        }
    }

    /// Compiles the campaign session.
    pub fn compile(&self, tr: &mut Tracer) -> CompiledSim<'_> {
        tr.span("routesim.engine.compile", |_| {
            self.workload
                .simulation(&self.topo)
                .threads(threads())
                .compile()
        })
    }
}

/// One campaign's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Prefixes in the schedule.
    pub prefixes: u64,
    /// Flood-equivalence classes.
    pub classes: u64,
    /// Prefixes simulated.
    pub class_sims: u64,
    /// Prefixes replayed from a class representative.
    pub class_hits: u64,
    /// Engine events.
    pub events: u64,
    /// Every flood converged.
    pub converged: bool,
    /// Diverged plus quarantined prefixes.
    pub failed: u64,
    /// The streamed propagation aggregate.
    pub tags: TagPropagation,
}

/// Classifies the schedule and runs the campaign into a [`TagPropagation`].
pub fn campaign(world: &World, sim: &CompiledSim<'_>, tr: &mut Tracer) -> Table {
    let campaign = Campaign::new(sim);
    let stats = tr.span("routesim.campaign.classify", |_| {
        campaign.class_stats(&world.schedule)
    });
    let run = tr.span("routesim.campaign.run", |_| {
        campaign.run(&world.schedule, TagPropagation::default)
    });
    Table {
        prefixes: stats.prefixes as u64,
        classes: stats.classes as u64,
        class_sims: run.class_sims,
        class_hits: run.class_hits,
        events: run.events,
        converged: run.converged,
        failed: (run.diverged.len() + run.failures.len()) as u64,
        tags: run.sink,
    }
}

/// A sink that only counts, to split the campaign's own cost from the
/// [`TagPropagation`] fold.
#[derive(Debug, Default)]
struct Counting(u64);

impl CampaignSink for Counting {
    fn fold(&mut self, _prefix: Prefix, outcome: PrefixOutcome) {
        self.0 += outcome
            .observations
            .iter()
            .map(|o| o.len() as u64)
            .sum::<u64>();
    }
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// Runs the workload for `seconds` and checks every campaign.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut tr = Tracer::new(trace);
    let mut m = Measured::default();
    let world = crate::repeat_setup(&mut tr, &mut m, |tr| {
        let world = World::build(TopologyParams::internet(), seed, SAMPLE, tr);
        drop(world.compile(tr));
        world
    });
    let sim = world
        .workload
        .simulation(&world.topo)
        .threads(threads())
        .compile();
    let ops = world.schedule.len() as u64;
    m.prefixes_per_op = world.schedule.len();

    let mut traced_tables = Vec::new();
    let mut budget = Budget::start(seconds, trace, 1);
    let mut done = 0;
    while let Some(traced) = budget.next_op(done) {
        done += 1;
        tr.set_enabled(traced);
        m.attempted += ops;
        let start = crate::now();
        let table = tr.span("op", |tr| campaign(&world, &sim, tr));
        let wall = start.elapsed().as_secs_f64();
        m.failed += table.failed;
        if !table.converged || table.failed > 0 {
            m.errors.push(format!(
                "{NAME}: {} prefixes diverged or were quarantined",
                table.failed
            ));
        }
        let mut digest = Digest::default();
        let _ = write!(digest, "{:?}", table.tags);
        let mut errors = crate::check_expected(
            NAME,
            seed,
            &[
                ("prefixes", table.prefixes),
                ("routesim.campaign.class_sims", table.class_sims),
                ("routesim.campaign.class_hits", table.class_hits),
                ("routesim.campaign.events", table.events),
                ("digest", digest.value()),
            ],
        );
        if table.class_sims + table.class_hits != table.prefixes
            || table.class_sims != table.classes
            || table.prefixes != ops
        {
            errors.push(format!(
                "{NAME}: {} sims + {} hits over {} classes for {} prefixes",
                table.class_sims, table.class_hits, table.classes, table.prefixes
            ));
        }
        if traced {
            m.traced_wall_s.push(wall);
            let observations = table.tags.observations as u64;
            traced_tables.push(table);
            let count = tr.span("probe", |tr| {
                tr.span("routesim.campaign.run.counting", |_| {
                    Campaign::new(&sim).run(&world.schedule, Counting::default)
                })
            });
            if count.sink.0 != observations {
                errors.push(format!(
                    "{NAME}: counting sink saw {} observations",
                    count.sink.0
                ));
            }
        } else {
            m.wall_s.push(wall);
            m.query_ms.push(wall * 1e3);
        }
        m.verdict(ops, errors);
    }

    if trace {
        let col = |f: fn(&Table) -> f64| traced_tables.iter().map(f).collect::<Vec<_>>();
        let run_s = tr.per_root("op", "routesim.campaign.run");
        let counting_s = tr.per_root("probe", "routesim.campaign.run.counting");
        let sink_s: Vec<f64> = run_s.iter().zip(&counting_s).map(|(a, b)| a - b).collect();
        m.layer("routesim.campaign.run_s", &run_s);
        m.layer(
            "routesim.campaign.classify_s",
            &tr.per_root("op", "routesim.campaign.classify"),
        );
        m.layer(
            "routesim.campaign.class_sims",
            &col(|t| t.class_sims as f64),
        );
        m.layer(
            "routesim.campaign.class_hits",
            &col(|t| t.class_hits as f64),
        );
        m.layer(
            "routesim.campaign.class_hit_rate",
            &col(|t| t.class_hits as f64 / t.prefixes as f64),
        );
        m.layer("routesim.campaign.events", &col(|t| t.events as f64));
        m.layer("attacks.full_table.sink_s", &sink_s);
        m.finish_trace(&tr, NAME, seed, world.topo.len());
    }
    m
}
