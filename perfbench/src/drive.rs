//! One interface over the two public cluster drivers, so the workload
//! runner measures the TCP runtime and the simulator the same way.

use massbft_core::cluster::{Cluster as SimCluster, ClusterConfig, Report};
use massbft_core::protocol::NodeStatus;
use massbft_crypto::Digest;
use massbft_runtime::Cluster as TcpCluster;
use massbft_sim_net::{NodeId, Time, MILLISECOND};

/// One block of the observer's ledger, as the replay checks it.
#[derive(Debug, Clone)]
pub struct BlockRef {
    /// Origin group and sequence of the executed entry.
    pub entry: (u32, u64),
    /// Digest of the entry bytes.
    pub entry_digest: Digest,
    /// Store fingerprint after the entry executed.
    pub state_fingerprint: u64,
    /// Hash of the chain up to this block.
    pub hash: Digest,
}

/// What the benchmark needs from a running cluster.
pub trait Driver {
    /// Builds and starts a cluster.
    fn build(cfg: ClusterConfig) -> Self;
    /// Microseconds since the cluster started: wall time over TCP,
    /// virtual time in the simulator.
    fn now(&mut self) -> Time;
    /// Runs until instant `t`.
    fn run_until(&mut self, t: Time);
    /// Transactions committed at the observer so far.
    fn observer_txns(&self) -> u64;
    /// Entries executed at the observer so far.
    fn observer_entries(&self) -> u64;
    /// Opens the driver's own measurement window (byte counters).
    fn open_window(&mut self);
    /// Closes it.
    fn close_window(&mut self) -> Report;
    /// Prefix consistency across every live node.
    fn consistent(&self) -> bool;
    /// Status of the given nodes.
    fn statuses(&self, ids: &[NodeId]) -> Vec<NodeStatus>;
    /// The observer's ledger.
    fn observer_ledger(&self) -> Vec<BlockRef>;
    /// Simulator events processed so far (0 over TCP).
    fn events_processed(&mut self) -> u64;
    /// How long to wait between polls for the first commit.
    const POLL: Time;
}

fn ledger_of(n: &massbft_core::protocol::Node) -> Vec<BlockRef> {
    n.ledger()
        .blocks()
        .iter()
        .map(|b| BlockRef {
            entry: (b.entry.gid, b.entry.seq),
            entry_digest: b.entry_digest,
            state_fingerprint: b.state_fingerprint,
            hash: b.hash,
        })
        .collect()
}

impl Driver for TcpCluster {
    const POLL: Time = 2 * MILLISECOND;

    fn build(cfg: ClusterConfig) -> Self {
        TcpCluster::new(cfg)
    }
    fn now(&mut self) -> Time {
        TcpCluster::now(self)
    }
    fn run_until(&mut self, t: Time) {
        TcpCluster::run_until(self, t)
    }
    fn observer_txns(&self) -> u64 {
        self.with_node(self.observer(), |n| n.executed_txns())
    }
    fn observer_entries(&self) -> u64 {
        self.with_node(self.observer(), |n| n.executed_entries())
    }
    fn open_window(&mut self) {
        TcpCluster::open_window(self)
    }
    fn close_window(&mut self) -> Report {
        TcpCluster::close_window(self)
    }
    fn consistent(&self) -> bool {
        self.check_consistency()
    }
    fn statuses(&self, ids: &[NodeId]) -> Vec<NodeStatus> {
        ids.iter()
            .map(|&id| self.with_node(id, |n| n.status()))
            .collect()
    }
    fn observer_ledger(&self) -> Vec<BlockRef> {
        self.with_node(self.observer(), ledger_of)
    }
    fn events_processed(&mut self) -> u64 {
        0
    }
}

impl Driver for SimCluster {
    const POLL: Time = 5 * MILLISECOND;

    fn build(cfg: ClusterConfig) -> Self {
        SimCluster::new(cfg)
    }
    fn now(&mut self) -> Time {
        self.sim_mut().now()
    }
    fn run_until(&mut self, t: Time) {
        SimCluster::run_until(self, t)
    }
    fn observer_txns(&self) -> u64 {
        self.node(self.observer()).executed_txns()
    }
    fn observer_entries(&self) -> u64 {
        self.node(self.observer()).executed_entries()
    }
    fn open_window(&mut self) {
        SimCluster::open_window(self)
    }
    fn close_window(&mut self) -> Report {
        SimCluster::close_window(self)
    }
    fn consistent(&self) -> bool {
        self.check_consistency()
    }
    fn statuses(&self, ids: &[NodeId]) -> Vec<NodeStatus> {
        ids.iter().map(|&id| self.node(id).status()).collect()
    }
    fn observer_ledger(&self) -> Vec<BlockRef> {
        ledger_of(self.node(self.observer()))
    }
    fn events_processed(&mut self) -> u64 {
        self.sim_mut().metrics().events_processed
    }
}
