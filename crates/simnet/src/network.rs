//! Network behaviour: latency model, message loss and partitions.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::sim::NodeId;
use crate::time::SimTime;

/// Configuration of the simulated network connecting the nodes.
///
/// The services in this workspace are geo-replicated across EC2 availability
/// zones, so the defaults model cross-zone WAN links: tens of milliseconds of
/// one-way latency with jitter and a small loss rate. Loopback delivery
/// (node to itself) is near-instant.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Minimum one-way latency between distinct nodes, inclusive.
    pub min_latency: SimTime,
    /// Maximum one-way latency between distinct nodes, inclusive.
    pub max_latency: SimTime,
    /// Probability that a message between distinct nodes is silently lost.
    pub drop_probability: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            min_latency: SimTime::from_millis(20),
            max_latency: SimTime::from_millis(80),
            drop_probability: 0.001,
        }
    }
}

impl NetworkConfig {
    /// A perfect network: zero loss, fixed 1 ms latency. Useful in tests
    /// that want to isolate protocol logic from network nondeterminism.
    pub fn ideal() -> Self {
        NetworkConfig {
            min_latency: SimTime::from_millis(1),
            max_latency: SimTime::from_millis(1),
            drop_probability: 0.0,
        }
    }

    /// A lossy, high-jitter network for stress tests.
    pub fn harsh() -> Self {
        NetworkConfig {
            min_latency: SimTime::from_millis(10),
            max_latency: SimTime::from_millis(400),
            drop_probability: 0.05,
        }
    }
}

/// Link-level fault injection applied *on top of* the base
/// [`NetworkConfig`], toggled at runtime by a chaos schedule.
///
/// Kept separate from `NetworkConfig` so existing struct-literal
/// constructions stay valid and so chaos can be switched on and off
/// mid-run without touching the base latency model. All probabilities are
/// only sampled when strictly positive, so a run with chaos disabled
/// consumes exactly the same RNG stream as before this layer existed.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkChaos {
    /// Extra per-message drop probability (on top of the base loss rate).
    pub drop_pr: f64,
    /// Probability a delivered message is duplicated; the copy arrives up
    /// to `extra_delay_max` later, which also reorders it past later sends.
    pub dup_pr: f64,
    /// Probability a delivered message suffers an extra delay spike.
    pub delay_pr: f64,
    /// Upper bound of the extra delay (spikes and duplicate lag).
    pub extra_delay_max: SimTime,
}

impl Default for LinkChaos {
    /// No chaos: all probabilities zero.
    fn default() -> Self {
        LinkChaos {
            drop_pr: 0.0,
            dup_pr: 0.0,
            delay_pr: 0.0,
            extra_delay_max: SimTime::ZERO,
        }
    }
}

/// Outcome of sampling one send: up to two deliveries (original plus a
/// possible chaos duplicate), allocation-free. The disposition flags
/// record *why* the sample came out the way it did, so the simulation
/// can emit chaos-visibility trace events without re-deriving (or
/// re-sampling) the cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deliveries {
    /// Delay of the original copy; `None` means dropped.
    pub first: Option<SimTime>,
    /// Delay of a duplicated copy, if any.
    pub second: Option<SimTime>,
    /// The drop (if any) came from injected link chaos, not the base
    /// loss model or a partition.
    pub chaos_dropped: bool,
    /// A chaos delay spike was added to the original copy.
    pub delayed: bool,
}

impl Deliveries {
    fn plain(first: Option<SimTime>) -> Deliveries {
        Deliveries {
            first,
            second: None,
            chaos_dropped: false,
            delayed: false,
        }
    }
}

/// Mutable network state: the active partition and the RNG-driven sampling
/// of latencies and drops.
#[derive(Debug)]
pub(crate) struct Network {
    pub config: NetworkConfig,
    /// Partition groups: nodes may only talk to nodes in the same group.
    /// Empty means fully connected.
    groups: Vec<Vec<NodeId>>,
    /// Active link-level chaos, if any.
    chaos: Option<LinkChaos>,
}

impl Network {
    pub(crate) fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            groups: Vec::new(),
            chaos: None,
        }
    }

    /// Enable link-level chaos for subsequent sends.
    pub(crate) fn set_chaos(&mut self, chaos: LinkChaos) {
        self.chaos = Some(chaos);
    }

    /// Disable link-level chaos.
    pub(crate) fn clear_chaos(&mut self) {
        self.chaos = None;
    }

    /// Install a partition: each inner vector is one side. Nodes not listed
    /// in any group are isolated from everyone.
    pub(crate) fn partition(&mut self, groups: Vec<Vec<NodeId>>) {
        self.groups = groups;
    }

    /// Remove any partition, restoring full connectivity.
    pub(crate) fn heal(&mut self) {
        self.groups.clear();
    }

    /// Whether a message from `a` may currently reach `b`.
    pub(crate) fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || self.groups.is_empty() {
            return true;
        }
        self.groups.iter().any(|g| g.contains(&a) && g.contains(&b))
    }

    /// Sample the delivery delay for a message from `a` to `b`, or `None`
    /// if the message is dropped (loss or partition).
    pub(crate) fn sample_delivery(
        &self,
        a: NodeId,
        b: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> Option<SimTime> {
        if !self.connected(a, b) {
            return None;
        }
        if a == b {
            return Some(SimTime::from_millis(1));
        }
        if self.config.drop_probability > 0.0 && rng.gen::<f64>() < self.config.drop_probability {
            return None;
        }
        let lo = self.config.min_latency.as_millis();
        let hi = self.config.max_latency.as_millis().max(lo);
        let ms = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        Some(SimTime::from_millis(ms))
    }

    /// Sample one send under the base model *and* any active link chaos:
    /// the original delivery may be dropped, delayed by a spike, and/or
    /// duplicated (the copy arriving later, i.e. reordered).
    ///
    /// With no chaos installed this consumes exactly the same RNG draws as
    /// [`Network::sample_delivery`], so chaos-free runs are byte-identical
    /// to runs before this layer existed.
    pub(crate) fn sample_deliveries(
        &self,
        a: NodeId,
        b: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> Deliveries {
        let base = self.sample_delivery(a, b, rng);
        let (Some(base), Some(chaos)) = (base, self.chaos.as_ref()) else {
            return Deliveries::plain(base);
        };
        if a == b {
            // Loopback (client libraries talking to their own node slot)
            // is exempt: chaos models the WAN, not the local bus.
            return Deliveries::plain(Some(base));
        }
        if chaos.drop_pr > 0.0 && rng.gen::<f64>() < chaos.drop_pr {
            return Deliveries {
                first: None,
                second: None,
                chaos_dropped: true,
                delayed: false,
            };
        }
        let mut first = base;
        let mut delayed = false;
        if chaos.delay_pr > 0.0 && rng.gen::<f64>() < chaos.delay_pr {
            let spike = rng.gen_range(0..=chaos.extra_delay_max.as_millis());
            first += SimTime::from_millis(spike);
            delayed = spike > 0;
        }
        let mut second = None;
        if chaos.dup_pr > 0.0 && rng.gen::<f64>() < chaos.dup_pr {
            let lag = rng.gen_range(1..=chaos.extra_delay_max.as_millis().max(1));
            second = Some(base + SimTime::from_millis(lag));
        }
        Deliveries {
            first: Some(first),
            second,
            chaos_dropped: false,
            delayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ideal_network_never_drops() {
        let net = Network::new(NetworkConfig::ideal());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = net.sample_delivery(NodeId(0), NodeId(1), &mut rng);
            assert_eq!(d, Some(SimTime::from_millis(1)));
        }
    }

    #[test]
    fn latency_within_bounds() {
        let net = Network::new(NetworkConfig {
            min_latency: SimTime::from_millis(5),
            max_latency: SimTime::from_millis(9),
            drop_probability: 0.0,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..500 {
            let d = net
                .sample_delivery(NodeId(0), NodeId(1), &mut rng)
                .unwrap()
                .as_millis();
            assert!((5..=9).contains(&d), "latency {d} out of bounds");
        }
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut net = Network::new(NetworkConfig::ideal());
        net.partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert!(net.connected(NodeId(0), NodeId(1)));
        assert!(!net.connected(NodeId(0), NodeId(2)));
        // Unlisted nodes are isolated.
        assert!(!net.connected(NodeId(3), NodeId(0)));
        // Loopback always works.
        assert!(net.connected(NodeId(3), NodeId(3)));
        net.heal();
        assert!(net.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn drop_probability_observed() {
        let net = Network::new(NetworkConfig {
            min_latency: SimTime::from_millis(1),
            max_latency: SimTime::from_millis(1),
            drop_probability: 0.5,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let delivered = (0..10_000)
            .filter(|_| {
                net.sample_delivery(NodeId(0), NodeId(1), &mut rng)
                    .is_some()
            })
            .count();
        assert!((4_000..6_000).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn no_chaos_matches_sample_delivery_stream() {
        // With chaos uninstalled, sample_deliveries must consume exactly
        // the same RNG draws as sample_delivery — seeded tests elsewhere
        // depend on the stream not shifting.
        let net = Network::new(NetworkConfig::default());
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let single = net.sample_delivery(NodeId(0), NodeId(1), &mut r1);
            let multi = net.sample_deliveries(NodeId(0), NodeId(1), &mut r2);
            assert_eq!(multi.first, single);
            assert_eq!(multi.second, None);
        }
    }

    #[test]
    fn chaos_duplicates_and_delays() {
        let mut net = Network::new(NetworkConfig::ideal());
        net.set_chaos(LinkChaos {
            drop_pr: 0.0,
            dup_pr: 1.0,
            delay_pr: 1.0,
            extra_delay_max: SimTime::from_millis(100),
        });
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut dup_later = 0;
        for _ in 0..200 {
            let d = net.sample_deliveries(NodeId(0), NodeId(1), &mut rng);
            let first = d.first.expect("dup_pr=1 never drops");
            let second = d.second.expect("dup_pr=1 always duplicates");
            assert!(first <= SimTime::from_millis(101), "spike bounded");
            assert!(second >= SimTime::from_millis(2), "copy lags the base");
            if second > first {
                dup_later += 1;
            }
        }
        assert!(dup_later > 0, "duplicates sometimes arrive after spikes");
        // Loopback is exempt from chaos.
        let d = net.sample_deliveries(NodeId(2), NodeId(2), &mut rng);
        assert_eq!(d.first, Some(SimTime::from_millis(1)));
        assert_eq!(d.second, None);
        net.clear_chaos();
        let d = net.sample_deliveries(NodeId(0), NodeId(1), &mut rng);
        assert_eq!(d.second, None);
    }

    #[test]
    fn chaos_extra_drops_observed() {
        let mut net = Network::new(NetworkConfig::ideal());
        net.set_chaos(LinkChaos {
            drop_pr: 0.5,
            ..LinkChaos::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let delivered = (0..10_000)
            .filter(|_| {
                net.sample_deliveries(NodeId(0), NodeId(1), &mut rng)
                    .first
                    .is_some()
            })
            .count();
        assert!((4_000..6_000).contains(&delivered), "delivered={delivered}");
    }
}
