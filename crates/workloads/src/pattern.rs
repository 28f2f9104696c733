//! Sending patterns (§5.3 of the paper).

use std::fmt;
use std::str::FromStr;

use pdq_netsim::NodeId;
use pdq_topology::Topology;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which host sends to which host.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    /// Query aggregation: all senders transmit to the same aggregator host.
    /// The aggregator is the last host of the topology; every other host is a sender.
    Aggregation,
    /// Stride(i): host x sends to host (x + i) mod N.
    Stride(usize),
    /// Staggered Prob(p): a host sends to a host under the same ToR with probability
    /// `p`, and to a uniformly random other host with probability `1 - p`.
    StaggeredProb(f64),
    /// Random permutation: each host sends to exactly one other host and receives from
    /// exactly one other host (no host sends to itself).
    RandomPermutation,
}

impl Pattern {
    /// A short label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            Pattern::Aggregation => "Aggregation".to_string(),
            Pattern::Stride(i) => format!("Stride({i})"),
            Pattern::StaggeredProb(p) => format!("StaggeredProb({p})"),
            Pattern::RandomPermutation => "RandomPermutation".to_string(),
        }
    }

    /// Produce the (sender, receiver) pairs of this pattern over the topology's hosts.
    ///
    /// Every host appears as a sender exactly once, except for `Aggregation`, where the
    /// aggregator only receives.
    pub fn pairs(&self, topo: &Topology, rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
        let hosts = &topo.hosts;
        let n = hosts.len();
        assert!(n >= 2, "patterns need at least two hosts");
        match self {
            Pattern::Aggregation => {
                let receiver = hosts[n - 1];
                hosts[..n - 1].iter().map(|&s| (s, receiver)).collect()
            }
            Pattern::Stride(i) => {
                assert!(*i % n != 0, "stride of 0 mod N would send to self");
                (0..n).map(|x| (hosts[x], hosts[(x + i) % n])).collect()
            }
            Pattern::StaggeredProb(p) => {
                assert!((0.0..=1.0).contains(p), "probability out of range");
                hosts
                    .iter()
                    .map(|&src| {
                        let local: Vec<NodeId> = topo
                            .rack_peers(src)
                            .into_iter()
                            .filter(|&h| h != src)
                            .collect();
                        let remote = topo.other_rack_hosts(src);
                        let dst =
                            if !local.is_empty() && (remote.is_empty() || rng.gen::<f64>() < *p) {
                                *local.choose(rng).unwrap()
                            } else {
                                *remote.choose(rng).expect("no candidate destination")
                            };
                        (src, dst)
                    })
                    .collect()
            }
            Pattern::RandomPermutation => {
                // Generate a random permutation without fixed points (a derangement) by
                // rejection sampling on the few offending positions: shuffle, then fix
                // any self-mapping by swapping with a neighbour.
                let mut dsts: Vec<NodeId> = hosts.clone();
                loop {
                    dsts.shuffle(rng);
                    if hosts.iter().zip(&dsts).all(|(a, b)| a != b) {
                        break;
                    }
                }
                hosts.iter().copied().zip(dsts).collect()
            }
        }
    }
}

/// Canonical one-token spec form, parseable back via [`FromStr`]: `aggregation`,
/// `stride:<i>`, `staggered:<p>`, `random_permutation`.
impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Aggregation => write!(f, "aggregation"),
            Pattern::Stride(i) => write!(f, "stride:{i}"),
            Pattern::StaggeredProb(p) => write!(f, "staggered:{p}"),
            Pattern::RandomPermutation => write!(f, "random_permutation"),
        }
    }
}

/// Parses the [`fmt::Display`] form.
impl FromStr for Pattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("unrecognized pattern: {s:?}");
        match s {
            "aggregation" => return Ok(Pattern::Aggregation),
            "random_permutation" => return Ok(Pattern::RandomPermutation),
            _ => {}
        }
        let (kind, args) = s.split_once(':').ok_or_else(bad)?;
        match kind {
            "stride" => match args.parse().map_err(|_| bad())? {
                0 => Err("a stride of 0 would send every host to itself".to_string()),
                i => Ok(Pattern::Stride(i)),
            },
            "staggered" => {
                let p: f64 = args.parse().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "a staggered pattern's probability must lie in [0, 1], got {p}"
                    ));
                }
                Ok(Pattern::StaggeredProb(p))
            }
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::LinkParams;
    use pdq_topology::single_rooted_tree;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn topo() -> Topology {
        single_rooted_tree(4, 3, LinkParams::default(), LinkParams::default())
    }

    #[test]
    fn spec_round_trip() {
        for p in [
            Pattern::Aggregation,
            Pattern::Stride(6),
            Pattern::StaggeredProb(0.7),
            Pattern::RandomPermutation,
        ] {
            let text = p.to_string();
            assert_eq!(text.parse::<Pattern>().expect(&text), p, "{text}");
        }
        assert!("spiral".parse::<Pattern>().is_err());
    }

    #[test]
    fn patterns_that_cannot_be_drawn_are_rejected_at_parse_time() {
        // `pairs` asserts on these; a spec token must not reach it. (A stride that is
        // a nonzero multiple of the host count depends on the topology: the scenario
        // checks it once the topology is built.)
        for (text, needle) in [
            ("stride:0", "stride of 0"),
            ("staggered:1.5", "[0, 1]"),
            ("staggered:-0.1", "[0, 1]"),
            ("staggered:nan", "[0, 1]"),
        ] {
            let err = text.parse::<Pattern>().unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
        assert_eq!("staggered:1".parse(), Ok(Pattern::StaggeredProb(1.0)));
        assert_eq!("stride:16".parse(), Ok(Pattern::Stride(16)));
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn aggregation_targets_one_receiver() {
        let t = topo();
        let pairs = Pattern::Aggregation.pairs(&t, &mut rng());
        assert_eq!(pairs.len(), 11);
        let receiver = t.hosts[11];
        assert!(pairs.iter().all(|&(s, d)| d == receiver && s != receiver));
    }

    #[test]
    fn stride_wraps_around() {
        let t = topo();
        let pairs = Pattern::Stride(1).pairs(&t, &mut rng());
        assert_eq!(pairs.len(), 12);
        assert_eq!(pairs[11], (t.hosts[11], t.hosts[0]));
        let pairs = Pattern::Stride(6).pairs(&t, &mut rng());
        assert_eq!(pairs[0], (t.hosts[0], t.hosts[6]));
    }

    #[test]
    fn staggered_prob_one_stays_local() {
        let t = topo();
        let pairs = Pattern::StaggeredProb(1.0).pairs(&t, &mut rng());
        for (s, d) in pairs {
            assert_ne!(s, d);
            assert_eq!(t.rack_of[&s], t.rack_of[&d], "p=1.0 must stay in-rack");
        }
    }

    #[test]
    fn staggered_prob_zero_goes_remote() {
        let t = topo();
        let pairs = Pattern::StaggeredProb(0.0).pairs(&t, &mut rng());
        for (s, d) in pairs {
            assert_ne!(t.rack_of[&s], t.rack_of[&d], "p=0.0 must leave the rack");
        }
    }

    #[test]
    fn staggered_prob_mid_mixes() {
        let t = topo();
        let mut r = rng();
        let mut local = 0;
        let mut total = 0;
        for _ in 0..200 {
            for (s, d) in Pattern::StaggeredProb(0.7).pairs(&t, &mut r) {
                total += 1;
                if t.rack_of[&s] == t.rack_of[&d] {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / total as f64;
        assert!((frac - 0.7).abs() < 0.05, "local fraction = {frac}");
    }

    #[test]
    fn random_permutation_is_one_to_one_without_self() {
        let t = topo();
        let mut r = rng();
        for _ in 0..50 {
            let pairs = Pattern::RandomPermutation.pairs(&t, &mut r);
            assert_eq!(pairs.len(), 12);
            let mut recv_count: HashMap<NodeId, usize> = HashMap::new();
            for (s, d) in &pairs {
                assert_ne!(s, d);
                *recv_count.entry(*d).or_default() += 1;
            }
            assert!(recv_count.values().all(|&c| c == 1));
            assert_eq!(recv_count.len(), 12);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Pattern::Stride(3).label(), "Stride(3)");
        assert_eq!(Pattern::Aggregation.label(), "Aggregation");
    }
}
