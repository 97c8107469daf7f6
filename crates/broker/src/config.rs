//! Broker configuration.

use flux_wire::Rank;

/// Topology of the secondary, rank-addressed RPC overlay (paper §IV-A:
/// "a secondary TCP request-response overlay with configurable topology
/// for rank-addressed RPCs").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RankOverlay {
    /// The prototype's choice: "a ring topology which allows ranks to be
    /// trivially reached without routing tables", with high latency that
    /// is "manageable and preferable over additional complexity" for
    /// debugging tools.
    #[default]
    Ring,
    /// Tree-edge routing (up to the common ancestor, then down): O(log N)
    /// paths at the cost of one subtree test per hop.
    Tree,
    /// Fully connected: a rank-addressed RPC goes straight to its
    /// destination in one overlay hop. The right topology when
    /// rank-addressed RPCs are hot-path traffic — sharded-KVS sessions
    /// route every commit part to a shard master this way, and relaying
    /// those through tree edges would funnel the whole write stream
    /// through the root broker.
    Full,
}

/// Static configuration for one broker in a comms session.
///
/// Every broker in a session must agree on `size` and `arity` (the
/// session wire-up is computed, not discovered).
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// This broker's rank, `0..size`.
    pub rank: Rank,
    /// Session size in brokers (= nodes).
    pub size: u32,
    /// Fan-out of the tree plane (paper evaluates arity 2).
    pub arity: u32,
    /// Heartbeat period in nanoseconds (the `hb` module publishes, all
    /// modules synchronize background work to it). Paper default: O(1s);
    /// we default to 100 ms to keep simulations snappy.
    pub hb_period_ns: u64,
    /// Number of consecutive missed hellos after which the `live` module
    /// declares a child dead ("after a configurable number of missed
    /// messages, a liveliness event is issued").
    pub live_miss_limit: u32,
    /// Topology of the rank-addressed RPC overlay.
    pub rank_overlay: RankOverlay,
}

impl BrokerConfig {
    /// A session-default configuration for the given rank/size with a
    /// binary tree, matching the paper's evaluated topology.
    pub fn new(rank: Rank, size: u32) -> BrokerConfig {
        BrokerConfig {
            rank,
            size,
            arity: 2,
            hb_period_ns: 100_000_000,
            live_miss_limit: 3,
            rank_overlay: RankOverlay::default(),
        }
    }

    /// Same, with tree-routed rank-addressed RPCs instead of the ring.
    pub fn with_rank_overlay(mut self, overlay: RankOverlay) -> BrokerConfig {
        self.rank_overlay = overlay;
        self
    }

    /// Same, with a custom tree arity (for the topology ablation).
    pub fn with_arity(mut self, arity: u32) -> BrokerConfig {
        assert!(arity > 0, "arity must be positive");
        self.arity = arity;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if the rank is out of range or the session is empty.
    pub fn validate(&self) {
        assert!(self.size > 0, "session must have at least one broker");
        assert!(self.rank.0 < self.size, "rank {} out of range 0..{}", self.rank, self.size);
        assert!(self.arity > 0, "arity must be positive");
        assert!(self.live_miss_limit > 0, "miss limit must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        BrokerConfig::new(Rank(0), 1).validate();
        BrokerConfig::new(Rank(511), 512).validate();
        BrokerConfig::new(Rank(3), 8).with_arity(16).validate();
        BrokerConfig::new(Rank(1), 4).with_rank_overlay(RankOverlay::Tree).validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_rejected() {
        BrokerConfig::new(Rank(8), 8).validate();
    }

    #[test]
    #[should_panic(expected = "arity must be positive")]
    fn zero_arity_rejected() {
        let _ = BrokerConfig::new(Rank(0), 4).with_arity(0);
    }
}
