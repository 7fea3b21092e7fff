//! `repro-medium`: the §4 passive pipeline at `medium` scale, staged the
//! way `bgpworms_bench::Snapshot::build` runs it — flood, archive the
//! collectors as MRT, parse the archives back, then the §4 analyses and
//! the hygiene report.

use crate::stats::{rss_mb, Digest};
use crate::trace::Tracer;
use crate::{threads, Budget, Measured};
use bgpworms_core::propagation::render_table2;
use bgpworms_core::{
    ArchiveInput, BlackholeDetector, DatasetOverview, FilteringAnalysis, ObservationSet,
    PropagationAnalysis, TopValues, UsageAnalysis,
};
use bgpworms_monitor::{report::render_hygiene, CommunityDictionary, HygieneReport};
use bgpworms_mrt::MrtReader;
use bgpworms_routesim::{archive_all, workload::APRIL_2018, CompiledSim, Workload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::{Community, Prefix};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Workload name.
pub const NAME: &str = "repro-medium";

/// RIB dump time of the archives (the same one `Snapshot::build` uses).
const DUMP_TIME: u32 = APRIL_2018 + 30 * 86_400;

/// Hop threshold of the hygiene report's far-blackhole counter (the one
/// the `repro hygiene` artefact uses).
const HYGIENE_FAR: usize = 3;

/// Topology, prefixes and workload of one seed.
pub struct World {
    /// The topology.
    pub topo: Topology,
    /// Prefix ground truth.
    pub alloc: PrefixAllocation,
    /// Policies, collectors and originations.
    pub workload: Workload,
    /// Blackhole detector primed with the ground-truth `ASN:666` list.
    pub detector: BlackholeDetector,
    /// Community dictionary for the hygiene report.
    pub dict: CommunityDictionary,
    /// Distinct prefixes in the origination schedule.
    pub prefixes: usize,
}

impl World {
    /// Generates the world exactly as `Snapshot::build_custom` does.
    pub fn build(topo_params: TopologyParams, seed: u64, tr: &mut Tracer) -> World {
        let topo = tr.span("topology.build", |_| topo_params.seed(seed).build());
        let alloc = tr.span("topology.alloc", |_| {
            PrefixAllocation::assign(
                &topo,
                AddressingParams {
                    seed,
                    ..AddressingParams::default()
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
        let verified: BTreeSet<Community> = workload
            .configs
            .iter()
            .filter(|(_, c)| c.services.blackhole.is_some())
            .filter_map(|(asn, _)| asn.as_u16().map(|hi| Community::new(hi, 666)))
            .collect();
        let prefixes = workload
            .originations
            .iter()
            .map(|o| o.prefix)
            .collect::<BTreeSet<Prefix>>()
            .len();
        World {
            detector: BlackholeDetector::with_known(verified),
            dict: CommunityDictionary::from_workload(workload.configs.values()),
            topo,
            alloc,
            workload,
            prefixes,
        }
    }

    /// Compiles the flood session.
    pub fn compile(&self, tr: &mut Tracer) -> CompiledSim<'_> {
        tr.span("routesim.engine.compile", |_| {
            self.workload
                .simulation(&self.topo)
                .threads(threads())
                .compile()
        })
    }
}

/// The flood → archive → parse half of one pass.
pub struct Staged {
    /// Engine events.
    pub events: u64,
    /// Every prefix converged.
    pub converged: bool,
    /// Collector observations the engine emitted.
    pub collector_obs: u64,
    /// Bytes of MRT written (update and RIB archives).
    pub mrt_bytes: u64,
    /// The update archives, as parsed.
    pub inputs: Vec<ArchiveInput>,
    /// The parsed observation set.
    pub observations: ObservationSet,
    /// Resident MiB after the flood, the archive and the parse (traced
    /// runs only).
    pub rss: [f64; 3],
}

/// Floods the schedule, archives every collector and parses the archives.
pub fn stage(world: &World, sim: &CompiledSim<'_>, tr: &mut Tracer) -> Result<Staged, String> {
    let traced = tr.enabled();
    let sample = |on: bool| if on { rss_mb() } else { 0.0 };
    let result = tr.span("routesim.engine.run", |_| {
        sim.run(&world.workload.originations)
    });
    let after_run = sample(traced);
    let archives = tr
        .span("routesim.collector.archive", |_| {
            archive_all(&world.workload.collectors, &result.observations, DUMP_TIME)
        })
        .map_err(|e| format!("archive_all: {e}"))?;
    let after_archive = sample(traced);
    let collector_obs = result.observations.values().map(|v| v.len() as u64).sum();
    let mrt_bytes = archives
        .iter()
        .map(|a| (a.updates_mrt.len() + a.rib_mrt.len()) as u64)
        .sum();
    let inputs: Vec<ArchiveInput> = archives
        .into_iter()
        .map(|a| ArchiveInput {
            platform: a.platform,
            collector: a.name,
            mrt: a.updates_mrt,
        })
        .collect();
    let observations = tr
        .span("core.observation.parse", |_| {
            ObservationSet::from_archives(&inputs)
        })
        .map_err(|e| format!("from_archives: {e}"))?;
    let after_parse = sample(traced);
    Ok(Staged {
        events: result.events,
        converged: result.converged,
        collector_obs,
        mrt_bytes,
        inputs,
        observations,
        rss: [after_run, after_archive, after_parse],
    })
}

/// Runs the §4 analyses and the hygiene report; returns a digest of their
/// rendered results.
pub fn analyse(world: &World, set: &ObservationSet, tr: &mut Tracer) -> u64 {
    let dataset = tr.span("core.dataset", |_| DatasetOverview::compute(set));
    let propagation = tr.span("core.propagation", |_| {
        PropagationAnalysis::compute(set, &world.detector)
    });
    let usage = tr.span("core.usage", |_| UsageAnalysis::compute(set));
    let filtering = tr.span("core.filtering", |_| FilteringAnalysis::compute(set));
    let values = tr.span("core.values", |_| TopValues::compute(set));
    let hygiene = tr.span("monitor.hygiene", |_| {
        HygieneReport::compute(set, &world.dict, HYGIENE_FAR)
    });
    tr.span("bench.digest", |_| {
        let mut d = Digest::default();
        let _ = write!(
            d,
            "{}{}{:?}{:?}{}{:?}{:?}{:?}{}{}{}",
            dataset.render(),
            render_table2(&propagation.table2),
            (propagation.forwarders.len(), propagation.transit_ases.len()),
            (propagation.samples.len(), usage.overall_fraction),
            usage.per_collector_fraction.len(),
            (filtering.edges.len(), filtering.all_edges.len()),
            filtering.fractions(0),
            filtering.fractions(100),
            values.render(10),
            render_hygiene(&hygiene, 10),
            hygiene.announcements,
        );
        d.value()
    })
}

/// Decodes every update archive with a bare [`MrtReader`]: the decode
/// cost without observation building. Returns (records, bytes).
fn read_archives(inputs: &[ArchiveInput]) -> Result<(u64, u64), String> {
    let mut records = 0;
    let mut bytes = 0;
    for input in inputs {
        for record in MrtReader::new(input.mrt.as_slice()) {
            record.map_err(|e| format!("MrtReader: {e}"))?;
            records += 1;
        }
        bytes += input.mrt.len() as u64;
    }
    Ok((records, bytes))
}

/// The work counts of one traced pass.
struct PassCounts {
    events: u64,
    collector_obs: u64,
    mrt_bytes: u64,
    updates: u64,
    records: u64,
    read_bytes: u64,
    rss: [f64; 3],
}

/// Runs the workload for `seconds` and checks every pass.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut tr = Tracer::new(trace);
    let mut m = Measured::default();
    let world = crate::repeat_setup(&mut tr, &mut m, |tr| {
        let world = World::build(TopologyParams::medium(), seed, tr);
        drop(world.compile(tr));
        world
    });
    let sim = world
        .workload
        .simulation(&world.topo)
        .threads(threads())
        .compile();
    m.prefixes_per_op = world.prefixes;
    let ops = world.prefixes as u64;

    let mut traced_passes: Vec<PassCounts> = Vec::new();
    let mut budget = Budget::start(seconds, trace, 1);
    let mut done = 0;
    while let Some(traced) = budget.next_op(done) {
        done += 1;
        tr.set_enabled(traced);
        m.attempted += ops;
        let start = crate::now();
        let pass = tr.span("op", |tr| -> Result<_, String> {
            let mut staged = stage(&world, &sim, tr)?;
            if !traced {
                // `Snapshot::build` frees the archives before analysis;
                // a traced pass keeps them for the bare MRT read below.
                staged.inputs = Vec::new();
            }
            let digest = analyse(&world, &staged.observations, tr);
            Ok((staged, digest))
        });
        let wall = start.elapsed().as_secs_f64();
        if traced {
            m.traced_wall_s.push(wall);
        } else {
            m.wall_s.push(wall);
            m.query_ms.push(wall * 1e3);
        }
        let (staged, digest) = match pass {
            Ok(p) => p,
            Err(e) => {
                m.verdict(ops, vec![format!("{NAME}: {e}")]);
                continue;
            }
        };
        let updates = staged.observations.observations.len() as u64;
        let mut errors = crate::check_expected(
            NAME,
            seed,
            &[
                ("routesim.engine.events", staged.events),
                ("routesim.engine.collector_obs", staged.collector_obs),
                ("routesim.collector.mrt_bytes", staged.mrt_bytes),
                ("core.observation.updates", updates),
                ("digest", digest),
            ],
        );
        if !staged.converged {
            errors.push(format!("{NAME}: flood did not converge"));
        }
        if updates != staged.collector_obs {
            errors.push(format!(
                "{NAME}: MRT round trip parsed {updates} updates, engine emitted {}",
                staged.collector_obs
            ));
        }
        let (records, read_bytes) = if traced {
            tr.span("probe", |tr| {
                tr.span("mrt.read", |_| read_archives(&staged.inputs))
            })
            .unwrap_or_else(|e| {
                errors.push(format!("{NAME}: {e}"));
                (0, 0)
            })
        } else {
            (0, 0)
        };
        m.verdict(ops, errors);
        if traced {
            traced_passes.push(PassCounts {
                events: staged.events,
                collector_obs: staged.collector_obs,
                mrt_bytes: staged.mrt_bytes,
                updates,
                records,
                read_bytes,
                rss: staged.rss,
            });
        }
    }

    if trace {
        let col = |f: fn(&PassCounts) -> f64| traced_passes.iter().map(f).collect::<Vec<_>>();
        let run_s = tr.per_root("op", "routesim.engine.run");
        let archive_s = tr.per_root("op", "routesim.collector.archive");
        let read_s = tr.per_root("probe", "mrt.read");
        let rate = |num: &[f64], den: &[f64]| -> Vec<f64> {
            num.iter().zip(den).map(|(n, d)| n / d).collect()
        };
        let mb = |v: Vec<f64>| v.into_iter().map(|b| b / 1e6).collect::<Vec<_>>();
        m.layer("routesim.engine.run_s", &run_s);
        m.layer("routesim.engine.events", &col(|p| p.events as f64));
        m.layer(
            "routesim.engine.events_per_s",
            &rate(&col(|p| p.events as f64), &run_s),
        );
        m.layer(
            "routesim.engine.collector_obs",
            &col(|p| p.collector_obs as f64),
        );
        m.layer("routesim.collector.archive_s", &archive_s);
        m.layer("routesim.collector.mrt_bytes", &col(|p| p.mrt_bytes as f64));
        m.layer(
            "routesim.collector.archive_mb_per_s",
            &rate(&mb(col(|p| p.mrt_bytes as f64)), &archive_s),
        );
        m.layer("core.observation.updates", &col(|p| p.updates as f64));
        m.layer("mrt.records", &col(|p| p.records as f64));
        m.layer("mrt.read_s", &read_s);
        m.layer(
            "mrt.read_mb_per_s",
            &rate(&mb(col(|p| p.read_bytes as f64)), &read_s),
        );
        m.layer("rss.after_run_mb", &col(|p| p.rss[0]));
        m.layer("rss.after_archive_mb", &col(|p| p.rss[1]));
        m.layer("rss.after_parse_mb", &col(|p| p.rss[2]));
        for (metric, span) in [
            ("core.observation.parse_s", "core.observation.parse"),
            ("core.dataset_s", "core.dataset"),
            ("core.propagation_s", "core.propagation"),
            ("core.usage_s", "core.usage"),
            ("core.filtering_s", "core.filtering"),
            ("core.values_s", "core.values"),
            ("monitor.hygiene_s", "monitor.hygiene"),
        ] {
            m.layer(metric, &tr.per_root("op", span));
        }
        m.finish_trace(&tr, NAME, seed, world.topo.len());
    }
    m
}
