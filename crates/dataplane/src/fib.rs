//! Forwarding tables: per-AS longest-prefix match over the converged
//! control plane, with null routes for blackholed prefixes.

use bgpworms_routesim::{CampaignSink, PrefixOutcome, Route, RouteSource, SimResult};
use bgpworms_types::{Asn, Ipv4Prefix, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// What an AS does with traffic matching a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibAction {
    /// Hand the packet to the next-hop AS.
    Forward(Asn),
    /// Deliver locally (this AS originates the covering prefix).
    Deliver,
    /// Null-route: a blackhole service accepted an RTBH announcement here
    /// (the "next-hop changed to a null interface" observation of §7.3).
    Null,
}

/// One AS's IPv4 forwarding table.
#[derive(Debug, Clone, Default)]
struct AsFib {
    /// (network, length) → action.
    entries: BTreeMap<(u32, u8), FibAction>,
    /// Lengths present, for longest-first probing.
    lengths: BTreeSet<u8>,
}

impl AsFib {
    fn insert(&mut self, prefix: Ipv4Prefix, action: FibAction) {
        self.entries
            .insert((prefix.network(), prefix.len()), action);
        self.lengths.insert(prefix.len());
    }

    fn lookup(&self, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
        for &len in self.lengths.iter().rev() {
            let p = Ipv4Prefix::new(ip, len).expect("len <= 32");
            if let Some(action) = self.entries.get(&(p.network(), len)) {
                return Some((p, *action));
            }
        }
        None
    }
}

/// All ASes' forwarding tables.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    tables: BTreeMap<Asn, AsFib>,
}

impl Fib {
    /// Builds FIBs from a simulation result (requires the run to have
    /// retained routes for the prefixes of interest).
    pub fn from_sim(result: &SimResult) -> Self {
        let mut fib = Fib::default();
        for (prefix, per_as) in &result.final_routes {
            for (asn, route) in per_as {
                fib.insert_route(*asn, prefix, route);
            }
        }
        fib
    }

    /// Inserts one entry (used by tests and synthetic scenarios).
    pub fn insert(&mut self, asn: Asn, prefix: Ipv4Prefix, action: FibAction) {
        self.tables.entry(asn).or_default().insert(prefix, action);
    }

    /// Inserts the forwarding action derived from one converged route.
    /// Non-IPv4 prefixes are ignored (data-plane probing is IPv4, like
    /// §7.6). This is the single-route form of [`Fib::from_sim`], used by
    /// the streaming [`CampaignSink`] impl below.
    pub fn insert_route(&mut self, asn: Asn, prefix: &Prefix, route: &Route) {
        if let Prefix::V4(p4) = prefix {
            self.tables
                .entry(asn)
                .or_default()
                .insert(*p4, action_of(route));
        }
    }

    /// Longest-prefix-match lookup at `asn`.
    pub fn lookup(&self, asn: Asn, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
        self.tables.get(&asn)?.lookup(ip)
    }

    /// Number of ASes with at least one entry.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no AS has any entry.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Merges another FIB into this one (entries from `other` overwrite on
    /// conflict). Used to combine a baseline FIB (vantage-point prefixes)
    /// with per-experiment FIBs covering only the test prefix.
    pub fn merge(&mut self, other: &Fib) {
        for (asn, table) in &other.tables {
            let dst = self.tables.entry(*asn).or_default();
            for (&(net, len), &action) in &table.entries {
                dst.insert(
                    Ipv4Prefix::new(net, len).expect("stored prefixes valid"),
                    action,
                );
            }
        }
    }

    /// Naïve reference lookup (linear scan) for differential testing.
    pub fn lookup_naive(&self, asn: Asn, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
        let table = self.tables.get(&asn)?;
        table
            .entries
            .iter()
            .filter_map(|(&(net, len), &action)| {
                let p = Ipv4Prefix::new(net, len).expect("valid");
                p.contains(ip).then_some((p, action))
            })
            .max_by_key(|(p, _)| p.len())
    }
}

/// Streaming aggregation: a [`bgpworms_routesim::Campaign`] over a session
/// that retains the prefixes of interest can fold straight into a `Fib` —
/// each prefix's route table is converted to forwarding actions and dropped
/// the moment the prefix finishes, so no `SimResult` (and no
/// `O(prefixes × ASes)` route collection) ever materializes.
impl CampaignSink for Fib {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        if let Some(finals) = outcome.final_routes {
            for (asn, route) in finals {
                self.insert_route(asn, &prefix, &route);
            }
        }
    }

    fn merge(&mut self, other: Self) {
        // Chunks cover disjoint prefixes, so the overwrite-on-conflict
        // semantics of the inherent `merge` are moot here.
        Fib::merge(self, &other);
    }
}

fn action_of(route: &Route) -> FibAction {
    if route.blackholed {
        FibAction::Null
    } else {
        match route.source {
            RouteSource::Local => FibAction::Deliver,
            RouteSource::Ebgp(n) => FibAction::Forward(n),
            // A route server is not in the data path: traffic goes to the
            // member that announced, i.e. the head of the AS path.
            RouteSource::RouteServer(_) => match route.path.head() {
                Some(member) => FibAction::Forward(member),
                None => FibAction::Deliver,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::default();
        let asn = Asn::new(1);
        fib.insert(asn, p4("10.0.0.0/8"), FibAction::Forward(Asn::new(2)));
        fib.insert(asn, p4("10.1.0.0/16"), FibAction::Forward(Asn::new(3)));
        fib.insert(asn, p4("10.1.1.0/24"), FibAction::Null);

        assert_eq!(
            fib.lookup(asn, ip("10.9.9.9")),
            Some((p4("10.0.0.0/8"), FibAction::Forward(Asn::new(2))))
        );
        assert_eq!(
            fib.lookup(asn, ip("10.1.2.3")),
            Some((p4("10.1.0.0/16"), FibAction::Forward(Asn::new(3))))
        );
        assert_eq!(
            fib.lookup(asn, ip("10.1.1.77")),
            Some((p4("10.1.1.0/24"), FibAction::Null))
        );
        assert_eq!(fib.lookup(asn, ip("11.0.0.1")), None);
        assert_eq!(fib.lookup(Asn::new(9), ip("10.0.0.1")), None);
    }

    #[test]
    fn naive_and_fast_lookup_agree() {
        let mut fib = Fib::default();
        let asn = Asn::new(1);
        for (s, a) in [
            ("0.0.0.0/0", FibAction::Forward(Asn::new(9))),
            ("10.0.0.0/8", FibAction::Forward(Asn::new(2))),
            ("10.128.0.0/9", FibAction::Deliver),
            ("10.128.64.0/18", FibAction::Null),
        ] {
            fib.insert(asn, p4(s), a);
        }
        for probe in [
            "1.2.3.4",
            "10.0.0.1",
            "10.128.0.1",
            "10.128.64.1",
            "255.255.255.255",
        ] {
            assert_eq!(
                fib.lookup(asn, ip(probe)),
                fib.lookup_naive(asn, ip(probe)),
                "mismatch at {probe}"
            );
        }
    }

    #[test]
    fn campaign_sink_fold_matches_from_sim() {
        use bgpworms_routesim::{Campaign, Origination, RetainRoutes, SimSpec};
        use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, TopologyParams};

        let topo = TopologyParams::tiny().seed(12).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let eps: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();

        let collected = Fib::from_sim(&sim.run(&eps));
        let streamed = Campaign::new(&sim).run(&eps, Fib::default);
        assert!(streamed.converged);

        // Identical lookups everywhere (Fib has no Eq; compare behaviour
        // at every origin address).
        assert_eq!(collected.len(), streamed.sink.len());
        for (asn, prefix) in alloc.iter() {
            if let bgpworms_types::Prefix::V4(p4) = prefix {
                let probe = p4.network() | 1;
                for node in topo.ases() {
                    assert_eq!(
                        collected.lookup(node.asn, probe),
                        streamed.sink.lookup(node.asn, probe),
                        "fib divergence at {} for {asn}/{prefix}",
                        node.asn
                    );
                }
            }
        }
    }

    #[test]
    fn default_route_matches_everything() {
        let mut fib = Fib::default();
        fib.insert(
            Asn::new(1),
            p4("0.0.0.0/0"),
            FibAction::Forward(Asn::new(2)),
        );
        assert!(fib.lookup(Asn::new(1), ip("203.0.113.5")).is_some());
    }
}
