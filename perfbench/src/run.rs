//! The workloads and the measured run: set-up, warmup, one measured
//! window, and the snapshots every metric is derived from.

use crate::drive::{BlockRef, Driver};
use crate::procfs::{self, RoleUse};
use crate::stats::{self, Buckets};
use massbft_core::adversary::FaultEvent;
use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::{NodeStatus, Protocol};
use massbft_sim_net::{LinkFault, NodeId, Time, MILLISECOND, SECOND};
use massbft_telemetry::{self as telemetry, registry, Event, EventKind};
use massbft_workloads::WorkloadKind;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Simulator (`true`) or TCP runtime.
    pub sim: bool,
    /// Groups × nodes per group.
    pub groups: usize,
    /// Nodes per group.
    pub size: usize,
    /// Transaction mix.
    pub workload: WorkloadKind,
    /// Open-loop arrival rate per group, txn/s.
    pub arrival_tps: f64,
    /// Time after the first commit before a window opens.
    pub warmup: Time,
    /// Largest extra one-way delay added to each cross-group message,
    /// drawn uniformly per message from the run's seed (simulator only).
    pub wan_jitter: Time,
}

/// Aria's deterministic abort fallback, on in every workload: a
/// transaction that loses a write-write or read-write conflict re-runs
/// serially in the same batch instead of being dropped, so no offered
/// transaction fails. The replay executes with the same setting.
pub const EXEC_FALLBACK: bool = true;

/// The benchmark's workloads. All run MassBFT on the nationwide preset
/// with the protocol defaults (`max_batch` 500, exec width 1) and the
/// abort fallback on ([`EXEC_FALLBACK`]).
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "tcp-ycsb-2x4",
        sim: false,
        groups: 2,
        size: 4,
        workload: WorkloadKind::YcsbA,
        arrival_tps: 5_000.0,
        warmup: 1_500 * MILLISECOND,
        wan_jitter: 0,
    },
    Spec {
        name: "sim-smallbank-8x4",
        sim: true,
        groups: 8,
        size: 4,
        workload: WorkloadKind::SmallBank,
        arrival_tps: 2_000.0,
        warmup: 2 * SECOND,
        // Without jitter every seed shares one message timing, and the
        // virtual latencies repeat to the microsecond across seeds.
        wan_jitter: 2 * MILLISECOND,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The cluster configuration; `seed` drives keys and requests.
    pub fn config(&self, seed: u64) -> ClusterConfig {
        let cfg = ClusterConfig::nationwide(&vec![self.size; self.groups], Protocol::MassBft)
            .workload(self.workload)
            .seed(seed)
            .arrival_tps(self.arrival_tps)
            .exec_fallback(EXEC_FALLBACK);
        if self.wan_jitter == 0 {
            return cfg;
        }
        let jitter = LinkFault {
            extra_jitter_us: self.wan_jitter,
            ..LinkFault::default()
        };
        cfg.fault_at(0, FaultEvent::SetWanFault(Some(jitter)))
    }

    /// Every node, dense order.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.groups as u32)
            .flat_map(|g| (0..self.size as u32).map(move |n| NodeId::new(g, n)))
            .collect()
    }

    /// The group representatives.
    pub fn reps(&self) -> Vec<NodeId> {
        (0..self.groups as u32).map(|g| NodeId::new(g, 0)).collect()
    }
}

/// Give up on a cluster that commits nothing for this long.
const SETUP_LIMIT: Time = 30 * SECOND;
/// Cadence of ring drains and status samples in a traced run.
const TRACE_STEP_TCP: Time = 200 * MILLISECOND;
const TRACE_STEP_SIM: Time = 50 * MILLISECOND;

/// Registry counters read at the window's edges.
pub const COUNTERS: &[&str] = &[
    "net.tcp_bytes_out",
    "net.tcp_bytes_in",
    "net.syscalls_write",
    "net.syscalls_read",
    "net.frames_out",
    "net.coalesced_writes",
    "consensus.pbft.view_changes",
    "consensus.raft.elections",
    "core.replication.chunks_accepted",
    "core.replication.rebuilds",
    "core.replication.chunk_rejects",
    "core.replication.cert_memo_hits",
    "core.data_plane.bytes_copied",
    "db.exec.txns",
    "db.exec.committed",
    "db.exec.logic_aborted",
    "db.exec.batches",
    "db.exec.execute_ns",
    "db.exec.reserve_ns",
    "db.exec.commit_ns",
    "db.exec.fallback_ns",
    "db.exec.fallback_committed",
];

/// Counter values by name.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    fn read() -> Self {
        Counters(
            COUNTERS
                .iter()
                .map(|&n| (n, registry::counter(n).get()))
                .collect(),
        )
    }

    fn since(&self, base: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| (k, v.saturating_sub(base.get(k))))
                .collect(),
        )
    }

    /// One counter (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// What the traced run adds.
#[derive(Debug, Default)]
pub struct Trace {
    /// Transactions per entry, from every `Submitted` span of the run.
    pub submitted: HashMap<(u32, u64), u64>,
    /// Lifecycle spans recorded inside the window.
    pub window_events: Vec<Event>,
    /// Events the ring lost before a drain.
    pub dropped: u64,
    /// Mean exec-queue length per status sample.
    pub exec_queue: Vec<f64>,
    /// Mean held Raft appends per status sample.
    pub held_appends: Vec<f64>,
    /// Representatives' pipeline-window occupancy per status sample.
    pub occupancy: Vec<f64>,
    in_window: bool,
}

impl Trace {
    fn drain(&mut self) {
        let d = telemetry::drain();
        self.dropped += d.dropped;
        for ev in d.events {
            if ev.kind == EventKind::Submitted {
                self.submitted.insert(ev.entry, ev.value);
            }
            let phase_mark = matches!(
                ev.kind,
                EventKind::Submitted
                    | EventKind::Certified
                    | EventKind::GlobalCommit
                    | EventKind::Ordered
                    | EventKind::Executed
            );
            if self.in_window && phase_mark {
                self.window_events.push(ev);
            }
        }
    }

    fn sample(&mut self, all: &[NodeStatus], window: usize) {
        let n = all.len().max(1) as f64;
        self.exec_queue
            .push(all.iter().map(|s| s.exec_queue as f64).sum::<f64>() / n);
        self.held_appends
            .push(all.iter().map(|s| s.held_appends as f64).sum::<f64>() / n);
        let reps: Vec<&NodeStatus> = all.iter().filter(|s| s.is_rep).collect();
        let occ = reps.iter().map(|s| s.in_flight as f64).sum::<f64>()
            / (reps.len().max(1) * window.max(1)) as f64;
        self.occupancy.push(occ);
    }
}

/// Everything the measured windows of one run produced, pooled over
/// the clusters measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time of each cluster built, seconds.
    pub setup_s: Vec<f64>,
    /// Measured time in the driver's clock (wall over TCP, virtual in the
    /// simulator), seconds.
    pub window_s: f64,
    /// Measured time in wall-clock seconds.
    pub wall_s: f64,
    /// Transactions committed at the observer.
    pub committed: u64,
    /// Entries executed at the observer.
    pub entries: u64,
    /// Transactions offered.
    pub offered: f64,
    /// Commit-latency samples (µs buckets).
    pub latency: Buckets,
    /// Windows pooled into these figures.
    pub windows: usize,
    /// Sum of the commit-latency samples, µs.
    pub latency_sum_us: f64,
    /// Transactions executed in batches, and the batches, at every node.
    pub batch_txns: (f64, u64),
    /// Process CPU, ns.
    pub cpu_ns: u64,
    /// Machine CPU ticks in all states and stolen by the hypervisor.
    pub machine_ticks: (u64, u64),
    /// Per-role thread use.
    pub roles: RoleUse,
    /// Most threads alive at a window's end.
    pub threads: u64,
    /// Peak resident set at the first window's end, kB.
    pub hwm_kb: u64,
    /// Windows measured, including those left out for steal.
    pub windows_measured: usize,
    /// Cross-group bytes.
    pub wan_bytes: u64,
    /// Bytes of the heaviest cross-group sender, summed over windows.
    pub max_node_wan_bytes: u64,
    /// In-group bytes.
    pub lan_bytes: u64,
    /// Registry counters over the windows.
    pub counters: Counters,
    /// Registry counters over the whole process lifetime.
    pub lifetime: Counters,
    /// Decode-plan cache hits and misses.
    pub decode_cache: (u64, u64),
    /// Simulator events.
    pub events: u64,
    /// Growth of the representatives' in-flight backlog over the
    /// windows, transactions.
    pub backlog_growth: f64,
    /// Prefix consistency at every window's end.
    pub consistent: bool,
    /// Whether the simulator's ledger matched a second cluster built
    /// from the same seed (`None` over TCP).
    pub deterministic: Option<bool>,
    /// The observer's ledger at the last window's end.
    pub ledger: Vec<BlockRef>,
    /// Present on traced runs.
    pub trace: Option<Trace>,
}

impl Measured {
    /// Mean commit latency, µs.
    pub fn latency_mean_us(&self) -> f64 {
        self.latency_sum_us / stats::count(&self.latency).max(1) as f64
    }

    /// Mean transactions per executed batch.
    pub fn txns_per_batch(&self) -> f64 {
        self.batch_txns.0 / self.batch_txns.1.max(1) as f64
    }
}

fn in_flight_entries<D: Driver>(c: &D, spec: &Spec) -> f64 {
    c.statuses(&spec.reps())
        .iter()
        .map(|s| s.in_flight as f64)
        .sum()
}

/// Runs `c` to `until`, draining the ring and sampling node status at a
/// low cadence when traced.
fn advance<D: Driver>(c: &mut D, spec: &Spec, until: Time, trace: &mut Option<Trace>) {
    let Some(t) = trace.as_mut() else {
        c.run_until(until);
        return;
    };
    let step = if spec.sim {
        TRACE_STEP_SIM
    } else {
        TRACE_STEP_TCP
    };
    let window = spec.config(0).params.pipeline_window;
    loop {
        let now = c.now();
        if now >= until {
            return;
        }
        c.run_until((now + step).min(until));
        t.drain();
        if t.in_window {
            t.sample(&c.statuses(&spec.nodes()), window);
        }
    }
}

/// Builds a cluster and runs it to its first commit at the observer.
/// Returns it with its set-up time in seconds.
fn set_up<D: Driver>(
    spec: &Spec,
    seed: u64,
    trace: &mut Option<Trace>,
) -> Result<(D, f64), String> {
    let t0 = Instant::now();
    let mut c = D::build(spec.config(seed));
    while c.observer_txns() == 0 {
        let now = c.now();
        if now > SETUP_LIMIT {
            return Err("setup: no transaction committed".into());
        }
        c.run_until(now + D::POLL);
    }
    let setup = t0.elapsed().as_secs_f64();
    if let Some(t) = trace.as_mut() {
        t.drain();
    }
    Ok((c, setup))
}

/// Warms `c` up and measures one window of `window` µs.
fn measure_window<D: Driver>(
    mut c: D,
    spec: &Spec,
    window: Time,
    trace: &mut Option<Trace>,
) -> Measured {
    let mut m = Measured {
        consistent: true,
        ..Measured::default()
    };
    let warm_end = c.now() + spec.warmup;
    advance(&mut c, spec, warm_end, trace);

    let lat_hist = registry::histogram("core.entry.commit_latency_us");
    let batch_hist = registry::histogram("core.exec.entry_txns");
    c.open_window();
    if let Some(t) = trace.as_mut() {
        t.drain();
        t.in_window = true;
    }
    let backlog_open = in_flight_entries(&c, spec);
    let txns0 = c.observer_txns();
    let entries0 = c.observer_entries();
    let lat0 = stats::buckets(lat_hist.nonzero_buckets());
    let lat_w = lat_hist.window();
    let batch_w = batch_hist.window();
    let counters0 = Counters::read();
    let dp0 = massbft_core::stats::data_plane_stats();
    let events0 = c.events_processed();
    let tasks0 = procfs::tasks();
    let cpu0 = procfs::process_cpu_ns();
    let ticks0 = procfs::cpu_ticks();
    let t_open = c.now();
    let wall0 = Instant::now();

    advance(&mut c, spec, t_open + window, trace);

    // Window close: cheap snapshots first, lock-taking reads after.
    let cpu1 = procfs::process_cpu_ns();
    let ticks1 = procfs::cpu_ticks();
    let tasks1 = procfs::tasks();
    m.wall_s += wall0.elapsed().as_secs_f64();
    let window_s = (c.now() - t_open) as f64 / SECOND as f64;
    m.window_s += window_s;
    m.offered += spec.arrival_tps * spec.groups as f64 * window_s;
    m.committed += c.observer_txns() - txns0;
    m.entries += c.observer_entries() - entries0;
    let lat = stats::window(&lat0, &stats::buckets(lat_hist.nonzero_buckets()));
    m.windows = 1;
    for (edge, n) in lat {
        *m.latency.entry(edge).or_default() += n;
    }
    m.latency_sum_us += lat_hist.mean_since(&lat_w) * lat_hist.count_since(&lat_w) as f64;
    let batches = batch_hist.count_since(&batch_w);
    let per_batch = batch_hist.mean_since(&batch_w);
    m.batch_txns.0 += per_batch * batches as f64;
    m.batch_txns.1 += batches;
    for (k, v) in Counters::read().since(&counters0).0 {
        *m.counters.0.entry(k).or_default() += v;
    }
    let dp1 = massbft_core::stats::data_plane_stats();
    m.decode_cache.0 += dp1.decode_cache_hits - dp0.decode_cache_hits;
    m.decode_cache.1 += dp1.decode_cache_misses - dp0.decode_cache_misses;
    m.events += c.events_processed() - events0;
    m.backlog_growth += (in_flight_entries(&c, spec) - backlog_open) * per_batch;
    m.cpu_ns += cpu1.saturating_sub(cpu0);
    m.machine_ticks.0 += ticks1.0.saturating_sub(ticks0.0);
    m.machine_ticks.1 += ticks1.1.saturating_sub(ticks0.1);
    let roles = procfs::role_use(&tasks0, &tasks1);
    for (r, ns) in roles.cpu_ns {
        *m.roles.cpu_ns.entry(r).or_default() += ns;
    }
    m.roles.wait_ns += roles.wait_ns;
    m.roles.ctx_switches += roles.ctx_switches;
    m.threads = m.threads.max(procfs::self_status("Threads"));
    let report = c.close_window();
    m.wan_bytes += report.wan_bytes;
    m.max_node_wan_bytes += report.max_node_wan_bytes;
    m.lan_bytes += report.lan_bytes;
    m.consistent = report.all_nodes_consistent && c.consistent();
    m.hwm_kb = procfs::self_status("VmHWM");
    m.ledger = c.observer_ledger();
    if let Some(t) = trace.as_mut() {
        t.in_window = false;
        telemetry::set_enabled(false);
        t.drain();
    }
    m
}

/// How many clusters and windows one run uses.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Clusters built and timed to their first commit, at least.
    pub clusters: usize,
    /// Windows the result is taken from.
    pub windows: usize,
    /// Windows measured at most while waiting for `windows` of them to
    /// see little hypervisor steal.
    pub max_windows: usize,
    /// Equal parts `--seconds` is cut into; a window measures one part.
    pub split: u64,
}

/// A window whose machine lost at most this share of its processor time
/// to other tenants counts as undisturbed.
pub const STEAL_OK: f64 = 0.10;

impl Measured {
    /// Transactions executed and not committed, summed over every
    /// replica: conflict aborts the fallback did not rescue and logic
    /// aborts.
    pub fn aborted(&self) -> u64 {
        self.counters
            .get("db.exec.txns")
            .saturating_sub(self.counters.get("db.exec.committed"))
    }

    /// Conflict aborts the fallback did not rescue, summed over every
    /// replica.
    pub fn conflict_aborted(&self) -> u64 {
        self.aborted()
            .saturating_sub(self.counters.get("db.exec.logic_aborted"))
    }

    /// Share of machine processor time stolen by the hypervisor.
    pub fn steal_frac(&self) -> f64 {
        self.machine_ticks.1 as f64 / self.machine_ticks.0.max(1) as f64
    }

    /// Adds another window's counts to this one.
    fn absorb(&mut self, w: Measured) {
        self.window_s += w.window_s;
        self.wall_s += w.wall_s;
        self.committed += w.committed;
        self.entries += w.entries;
        self.offered += w.offered;
        for (edge, n) in w.latency {
            *self.latency.entry(edge).or_default() += n;
        }
        self.windows += w.windows;
        self.latency_sum_us += w.latency_sum_us;
        self.batch_txns.0 += w.batch_txns.0;
        self.batch_txns.1 += w.batch_txns.1;
        self.cpu_ns += w.cpu_ns;
        self.machine_ticks.0 += w.machine_ticks.0;
        self.machine_ticks.1 += w.machine_ticks.1;
        for (r, ns) in w.roles.cpu_ns {
            *self.roles.cpu_ns.entry(r).or_default() += ns;
        }
        self.roles.wait_ns += w.roles.wait_ns;
        self.roles.ctx_switches += w.roles.ctx_switches;
        self.threads = self.threads.max(w.threads);
        self.wan_bytes += w.wan_bytes;
        self.max_node_wan_bytes += w.max_node_wan_bytes;
        self.lan_bytes += w.lan_bytes;
        for (k, v) in w.counters.0 {
            *self.counters.0.entry(k).or_default() += v;
        }
        self.decode_cache.0 += w.decode_cache.0;
        self.decode_cache.1 += w.decode_cache.1;
        self.events += w.events;
        self.backlog_growth += w.backlog_growth;
        self.consistent &= w.consistent;
        self.ledger = w.ledger;
    }
}

/// One run. Clusters are built and timed to their first commit, those
/// only timed first; windows are measured one per cluster, until
/// `plan.windows` windows saw at most [`STEAL_OK`] steal or
/// `plan.max_windows` were measured. The result pools the least-stolen
/// `plan.windows` windows; every window counts for the consistency check.
/// Peak memory is the first cluster's, before later clusters reuse
/// memory their predecessors fragmented. The simulator is deterministic
/// per seed, so when it measures several windows they must all close on
/// the same ledger.
pub fn measure<D: Driver>(
    spec: &Spec,
    seed: u64,
    secs: u64,
    plan: Plan,
    traced: bool,
) -> Result<Measured, String> {
    telemetry::set_enabled(traced);
    let mut trace = traced.then(Trace::default);
    if traced {
        // Discard whatever an earlier run left in the ring.
        telemetry::drain();
    }
    let want = plan.windows.max(1);
    let window = secs * SECOND / plan.split.max(1);
    let mut windows: Vec<Measured> = Vec::new();
    let mut setup_s = Vec::new();
    // Clusters that are only timed come first: built after a measured
    // window, they would fault back in the memory it freed.
    for _ in want..plan.clusters {
        setup_s.push(set_up::<D>(spec, seed, &mut trace)?.1);
    }
    loop {
        let undisturbed = windows
            .iter()
            .filter(|w| w.steal_frac() <= STEAL_OK)
            .count();
        if windows.len() >= want && (undisturbed >= want || windows.len() >= plan.max_windows) {
            break;
        }
        let (c, s) = set_up::<D>(spec, seed, &mut trace)?;
        setup_s.push(s);
        windows.push(measure_window(c, spec, window, &mut trace));
    }
    telemetry::set_enabled(false);
    let head = |w: &Measured| (w.ledger.len(), w.ledger.last().map(|b| b.hash));
    let deterministic = (spec.sim && windows.len() > 1).then(|| {
        let first = head(&windows[0]);
        first.0 > 0 && windows.iter().all(|w| head(w) == first)
    });
    let mut m = Measured {
        consistent: windows.iter().all(|w| w.consistent),
        hwm_kb: windows[0].hwm_kb,
        setup_s,
        deterministic,
        ..Measured::default()
    };
    windows.sort_by(|a, b| a.steal_frac().total_cmp(&b.steal_frac()));
    let measured = windows.len();
    for w in windows.into_iter().take(want) {
        m.absorb(w);
    }
    m.windows_measured = measured;
    m.lifetime = Counters::read();
    m.trace = trace;
    Ok(m)
}
