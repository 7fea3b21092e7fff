//! `whatif-survey`: the §7.6 blackhole survey at `medium` scale as a
//! closed loop with one caller. Each query announces the experiment
//! prefix with one candidate community (`SurveyContext::fib_with`, a delta
//! re-convergence plus FIB assembly), pings it from every vantage point
//! and diffs the responsive set against the baseline.

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::{Budget, Measured};
use bgpworms_attacks::wild::survey::{SurveyContext, SurveyParams, SurveySession};
use bgpworms_dataplane::CampaignResult;
use bgpworms_routesim::{
    CompiledSim, Origination, RetainRoutes, SimSnapshot, Workload, WorkloadParams,
};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, TopologyParams};
use bgpworms_types::{Asn, Community, Prefix};
use std::fmt::Write as _;

/// Workload name.
pub const NAME: &str = "whatif-survey";

/// Time of the tagged re-announcement (the one `fib_with` replays).
const DELTA_TIME: u32 = 300;

/// The parameters `repro blackhole-survey` uses, at `topo`'s scale.
pub fn params(topo: TopologyParams, seed: u64) -> SurveyParams {
    SurveyParams {
        topo: topo.seed(seed),
        workload: WorkloadParams {
            seed,
            blackhole_service_prob: 0.7,
            steering_service_prob: 0.6,
            ..WorkloadParams::default()
        },
        n_vps: 200,
        max_communities: 307,
        verify_repeatability: true,
    }
}

/// The survey's candidate corpus: RFC 7999 BLACKHOLE plus `ASN:666` of
/// every 2-byte AS offering a service, capped at `cap`.
pub fn corpus(workload: &Workload, cap: usize) -> Vec<Community> {
    let mut out = vec![Community::BLACKHOLE];
    for (asn, cfg) in &workload.configs {
        if let Some(hi) = asn.as_u16() {
            if cfg.services.any() || cfg.services.blackhole.is_some() {
                out.push(Community::new(hi, 666));
            }
        }
    }
    out.truncate(cap);
    out
}

/// Baseline responsiveness: the experiment prefix announced untagged.
pub fn baseline(ctx: &SurveyContext, session: &SurveySession<'_>) -> CampaignResult {
    let fib = ctx.fib_with(session, &[]);
    ctx.atlas.ping_campaign(&fib, ctx.target_addr)
}

/// One what-if query: the vantage points `candidate` makes unreachable.
pub fn query(
    ctx: &SurveyContext,
    session: &SurveySession<'_>,
    before: &CampaignResult,
    candidate: Community,
    tr: &mut Tracer,
) -> Vec<Asn> {
    let fib = tr.span("dataplane.fib_with", |_| {
        ctx.fib_with(session, &[candidate])
    });
    let after = tr.span("dataplane.ping", |_| {
        ctx.atlas.ping_campaign(&fib, ctx.target_addr)
    });
    tr.span("dataplane.fib_drop", |_| drop(fib));
    before.lost_vps(&after)
}

/// The experiment prefix.
fn prefix(ctx: &SurveyContext) -> Prefix {
    Prefix::V4(ctx.injector.prefix)
}

/// A session compiled like `SurveyContext::session`, whose snapshot and
/// deltas this benchmark runs itself: the bare engine work under each
/// `fib_with`.
fn bare_session(ctx: &SurveyContext) -> CompiledSim<'_> {
    ctx.workload
        .simulation(&ctx.topo)
        .retain(RetainRoutes::Prefixes([prefix(ctx)].into_iter().collect()))
        .compile()
}

/// Converges the untagged baseline of `sim`'s experiment prefix.
fn snapshot(ctx: &SurveyContext, sim: &CompiledSim<'_>, tr: &mut Tracer) -> SimSnapshot {
    let p = prefix(ctx);
    let plain = [Origination::announce(ctx.injector.asn, p, vec![])];
    tr.span("routesim.engine.snapshot", |_| sim.run_snapshot(&plain, p))
        .1
}

/// Re-converges every candidate as a delta on `snap` inside a span
/// called `name`. Returns the delta events (beyond the baseline's) and
/// the candidates whose delta did not converge.
fn deltas(
    ctx: &SurveyContext,
    sim: &CompiledSim<'_>,
    snap: &SimSnapshot,
    candidates: &[Community],
    name: &'static str,
    tr: &mut Tracer,
) -> (u64, Vec<Community>) {
    let p = prefix(ctx);
    let base = snap.baseline_outcome().events;
    tr.span(name, |_| {
        let mut events = 0;
        let mut diverged = Vec::new();
        for &c in candidates {
            let delta = [Origination::announce(ctx.injector.asn, p, vec![c]).at(DELTA_TIME)];
            let outcome = sim.run_delta_prefix(snap, &delta);
            events += outcome.events - base;
            if !outcome.converged {
                diverged.push(c);
            }
        }
        (events, diverged)
    })
}

/// Queries per operation. A fixed batch, cycling through the corpus, so
/// the operation's size does not follow the corpus size (which the seed
/// moves between ~130 and ~175 candidates).
pub const BATCH: usize = 128;

/// Runs the workload for `seconds`: batches of what-if queries, each
/// checked against the first answer to the same candidate.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut tr = Tracer::new(trace);
    let mut m = Measured::default();
    let params = params(TopologyParams::medium(), seed);
    let (ctx, before) = crate::repeat_setup(&mut tr, &mut m, |tr| {
        let ctx = tr.span("attacks.survey.context", |_| SurveyContext::build(&params));
        let before = {
            let session = tr.span("attacks.survey.session", |_| ctx.session());
            baseline(&ctx, &session)
        };
        (ctx, before)
    });
    let session = ctx.session();
    let candidates = corpus(&ctx.workload, params.max_communities);
    let n = candidates.len();
    m.prefixes_per_op = BATCH;

    // Every candidate's delta converges (checked once, untimed).
    let mut bare = bare_session(&ctx);
    let mut quiet = Tracer::new(false);
    let snap = snapshot(&ctx, &bare, &mut quiet);
    let (corpus_events, diverged) = deltas(
        &ctx,
        &bare,
        &snap,
        &candidates,
        "routesim.engine.delta",
        &mut quiet,
    );
    if !diverged.is_empty() {
        m.failed += diverged.len() as u64;
        m.errors
            .push(format!("{NAME}: deltas diverged for {diverged:?}"));
    }

    let mut first: Vec<Option<Vec<Asn>>> = vec![None; n];
    let mut recorded_checked = false;
    let mut next = 0;
    let mut budget = Budget::start(seconds, trace, n.div_ceil(BATCH));
    let mut done = 0;
    while let Some(traced) = budget.next_op(done) {
        done += 1;
        tr.set_enabled(traced);
        m.attempted += BATCH as u64;
        let batch: Vec<Community> = (next..next + BATCH).map(|k| candidates[k % n]).collect();
        let mut query_ms = Vec::with_capacity(BATCH);
        let start = crate::now();
        let lost: Vec<Vec<Asn>> = tr.span("op", |tr| {
            batch
                .iter()
                .map(|&c| {
                    let q = crate::now();
                    let lost = query(&ctx, &session, &before, c, tr);
                    query_ms.push(q.elapsed().as_secs_f64() * 1e3);
                    lost
                })
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        if traced {
            m.traced_wall_s.push(wall);
        } else {
            m.wall_s.push(wall);
            m.query_ms.extend(query_ms);
        }

        let mut differ = 0;
        for (k, lost) in (next..).zip(lost) {
            match &first[k % n] {
                Some(reference) => differ += u64::from(*reference != lost),
                None => first[k % n] = Some(lost),
            }
        }
        next += BATCH;
        if differ > 0 {
            m.failed += differ;
            m.errors.push(format!(
                "{NAME}: {differ} lost-VP sets differ from the first answer"
            ));
        }
        if !recorded_checked && next >= n {
            // The first pass over the corpus is complete: compare it with
            // the recorded one for the default seed.
            recorded_checked = true;
            let mut digest = Digest::default();
            let mut effective = 0;
            for (c, lost) in candidates.iter().zip(first.iter().flatten()) {
                let _ = write!(digest, "{c}:{lost:?};");
                effective += u64::from(!lost.is_empty());
            }
            let errors = crate::check_expected(
                NAME,
                seed,
                &[
                    ("candidates", n as u64),
                    ("effective", effective),
                    ("routesim.engine.delta_events", corpus_events),
                    ("digest", digest.value()),
                ],
            );
            m.verdict(BATCH as u64, errors);
        }

        if traced {
            tr.span("probe", |tr| {
                let snap = snapshot(&ctx, &bare, tr);
                deltas(&ctx, &bare, &snap, &batch, "routesim.engine.delta", tr);
                let threads = bare.threads();
                bare.set_threads(1);
                deltas(
                    &ctx,
                    &bare,
                    &snap,
                    &batch,
                    "routesim.engine.delta.serial",
                    tr,
                );
                bare.set_threads(threads);
            });
        }
    }

    if trace {
        let fib_with = tr.per_root("op", "dataplane.fib_with");
        let delta = tr.per_root("probe", "routesim.engine.delta");
        let fib: Vec<f64> = fib_with.iter().zip(&delta).map(|(a, b)| a - b).collect();
        m.layer(
            "routesim.engine.snapshot_s",
            &tr.per_root("probe", "routesim.engine.snapshot"),
        );
        m.layer("routesim.engine.delta_s", &delta);
        m.layer(
            "routesim.engine.delta_serial_s",
            &tr.per_root("probe", "routesim.engine.delta.serial"),
        );
        m.layer("routesim.engine.delta_events", &[corpus_events as f64]);
        m.layer("dataplane.fib_s", &fib);
        m.layer("dataplane.ping_s", &tr.per_root("op", "dataplane.ping"));
        m.layer(
            "dataplane.fib_drop_s",
            &tr.per_root("op", "dataplane.fib_drop"),
        );
        // `SurveyContext::build` generates its world internally; the same
        // steps, replayed once, attribute its set-up time.
        tr.set_enabled(true);
        tr.span("probe.setup", |tr| {
            let topo = tr.span("topology.build", |_| params.topo.build());
            let alloc = tr.span("topology.alloc", |_| {
                PrefixAllocation::assign(&topo, AddressingParams::default())
            });
            let workload = tr.span("routesim.workload.generate", |_| {
                Workload::generate(&topo, &alloc, &params.workload)
            });
            tr.span("routesim.engine.compile", |_| {
                drop(workload.simulation(&topo).compile());
            });
        });
        m.finish_trace(&tr, NAME, seed, ctx.topo.len());
        for (metric, span) in [
            ("topology.build_s", "topology.build"),
            ("topology.alloc_s", "topology.alloc"),
            ("routesim.workload.generate_s", "routesim.workload.generate"),
            ("routesim.engine.compile_s", "routesim.engine.compile"),
        ] {
            m.layer(metric, &tr.per_root("probe.setup", span));
        }
    }
    m
}
