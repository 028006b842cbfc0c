//! The benchmark's metrics: the contract table (name, unit, direction,
//! bound) that `BENCHMARK.json` records, and the derivation of each
//! value from a measured window.

use crate::procfs::Role;
use crate::replay::ReplayCost;
use crate::run::{Measured, Spec};
use crate::stats;
use massbft_telemetry::export;

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    e2e("committed_tps", "txn/s", "higher", 0.05),
    e2e("commit_p50_ms", "ms", "lower", 0.25),
    e2e("commit_p95_ms", "ms", "lower", 0.25),
    e2e("cpu_us_per_txn", "us", "lower", 0.25),
    e2e("wan_bytes_per_txn", "B", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Def] = &[
    layer("runtime.reactor_cpu_us_per_txn", "us", "lower"),
    layer("runtime.writer_cpu_us_per_txn", "us", "lower"),
    layer("runtime.reader_cpu_us_per_txn", "us", "lower"),
    layer("runtime.other_cpu_us_per_txn", "us", "lower"),
    layer("runtime.runq_wait_us_per_txn", "us", "lower"),
    layer("runtime.threads", "count", "lower"),
    layer("runtime.ctx_switches_per_txn", "count", "lower"),
    layer("runtime.idle_frac", "ratio", "higher"),
    layer("runtime.steal_frac", "ratio", "lower"),
    layer("runtime.tcp_bytes_per_txn", "B", "lower"),
    layer("runtime.syscalls_per_txn", "count", "lower"),
    layer("runtime.frames_per_txn", "count", "lower"),
    layer("runtime.coalesce_ratio", "ratio", "higher"),
    layer("consensus.pbft_view_changes", "count", "lower"),
    layer("consensus.raft_elections", "count", "lower"),
    layer("consensus.local_ms", "ms", "lower"),
    layer("core.replication_ms", "ms", "lower"),
    layer("core.ordering_ms", "ms", "lower"),
    layer("core.execution_ms", "ms", "lower"),
    layer("core.traced_mean_ms", "ms", "lower"),
    layer("core.phase_coverage", "ratio", "higher"),
    layer("core.lan_bytes_per_txn", "B", "lower"),
    layer("core.max_node_wan_share", "ratio", "lower"),
    layer("core.rebuilds_per_entry", "count", "lower"),
    layer("core.chunk_reject_ratio", "ratio", "lower"),
    layer("core.bytes_copied_per_txn", "B", "lower"),
    layer("core.cert_memo_hit_ratio", "ratio", "higher"),
    layer("core.exec_queue_mean", "count", "lower"),
    layer("core.held_appends_mean", "count", "lower"),
    layer("core.window_occupancy", "ratio", "lower"),
    layer("core.commit_p99_ms", "ms", "lower"),
    layer("core.latency_samples", "count", "higher"),
    layer("core.failed_frac", "ratio", "lower"),
    layer("core.shed_frac", "ratio", "lower"),
    layer("core.inflight_frac", "ratio", "lower"),
    layer("codec.encode_us_per_entry", "us", "lower"),
    layer("codec.decode_us_per_entry", "us", "lower"),
    layer("codec.decode_cache_hit_ratio", "ratio", "higher"),
    layer("codec.cpu_share", "ratio", "lower"),
    layer("crypto.merkle_us_per_entry", "us", "lower"),
    layer("crypto.cert_validate_us", "us", "lower"),
    layer("crypto.cpu_share", "ratio", "lower"),
    layer("db.exec_us_per_txn_replay", "us", "lower"),
    layer("db.exec_ns_per_txn", "ns", "lower"),
    layer("db.abort_frac", "ratio", "lower"),
    layer("db.reserve_share", "ratio", "lower"),
    layer("db.execute_share", "ratio", "lower"),
    layer("db.commit_share", "ratio", "lower"),
    layer("db.fallback_share", "ratio", "lower"),
    layer("db.fallback_frac", "ratio", "lower"),
    layer("db.txns_per_batch", "count", "higher"),
    layer("db.cpu_share", "ratio", "lower"),
    layer("sim-net.events_per_txn", "count", "lower"),
    layer("sim-net.events_per_s", "1/s", "higher"),
    layer("workloads.gen_ns_per_txn", "ns", "lower"),
    layer("workloads.cpu_share", "ratio", "lower"),
    layer("telemetry.trace_overhead", "ratio", "lower"),
    layer("telemetry.ring_dropped", "count", "lower"),
    layer("replay.entries", "count", "higher"),
];

/// Looks a metric definition up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Committed transactions per second of the window.
pub fn committed_tps(m: &Measured) -> f64 {
    ratio(m.committed as f64, m.window_s)
}

/// Process CPU per committed transaction, µs.
pub fn cpu_us_per_txn(m: &Measured) -> f64 {
    ratio(m.cpu_ns as f64 / 1e3, m.committed as f64)
}

/// Commit-latency percentile of the samples pooled over the kept
/// windows, ms.
pub fn latency_ms(m: &Measured, p: f64) -> f64 {
    stats::percentile(&m.latency, p).unwrap_or(0.0) / 1e3
}

/// The end-to-end values of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let c = m.committed as f64;
    vec![
        ("committed_tps", committed_tps(m)),
        ("commit_p50_ms", latency_ms(m, 50.0)),
        ("commit_p95_ms", latency_ms(m, 95.0)),
        ("cpu_us_per_txn", cpu_us_per_txn(m)),
        ("wan_bytes_per_txn", ratio(m.wan_bytes as f64, c)),
        ("peak_rss_mb", m.hwm_kb as f64 / 1024.0),
        ("setup_s", stats::median(&m.setup_s)),
    ]
}

/// Where the window's offered transactions went.
pub fn failed(m: &Measured, nodes: usize) -> stats::FailedSplit {
    let aborted = m.aborted() as f64 / nodes as f64;
    stats::failed_split(m.offered, m.committed as f64, aborted, m.backlog_growth)
}

/// The result line's `attempted` and `failed` (see [`stats::outcome`]).
pub fn outcome(m: &Measured, nodes: usize) -> (u64, u64) {
    stats::outcome(m.committed, m.aborted(), m.conflict_aborted(), nodes)
}

/// The per-layer values of a traced run. `baseline_cpu_us` is the
/// untraced run's CPU per transaction, for the tracing overhead.
pub fn per_layer(
    spec: &Spec,
    m: &Measured,
    cost: &ReplayCost,
    baseline_cpu_us: f64,
) -> Vec<(&'static str, f64)> {
    let trace = m
        .trace
        .as_ref()
        .expect("per-layer metrics come from a traced run");
    let c = m.committed as f64;
    let k = &m.counters;
    let kf = |n: &str| k.get(n) as f64;
    let us_per_txn = |ns: u64| ratio(ns as f64 / 1e3, c);
    let cpu_ns = m.cpu_ns as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let phases = export::breakdown(&trace.window_events).unwrap_or_default();
    let split = failed(m, spec.groups * spec.size);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let rebuilds = kf("core.replication.rebuilds");
    let memo_hits = kf("core.replication.cert_memo_hits");
    let chunks_seen = kf("core.replication.chunks_accepted") + rebuilds;
    let exec_phases = kf("db.exec.reserve_ns")
        + kf("db.exec.execute_ns")
        + kf("db.exec.commit_ns")
        + kf("db.exec.fallback_ns");
    let per_entry = |ns: u64| ratio(ns as f64 / 1e3, cost.entries as f64);
    let per_txn_ns = |ns: u64| ratio(ns as f64, cost.txns as f64);
    let (hits, misses) = m.decode_cache;
    let entries = m.entries as f64;
    // Replay cost × how often the run made the same call, over the run's
    // process CPU: the layer's estimated share.
    let codec_ns =
        per_entry(cost.encode_ns) * 1e3 * entries + per_entry(cost.decode_ns) * 1e3 * rebuilds;
    let crypto_ns = per_entry(cost.merkle_ns) * 1e3 * entries
        + cost.cert_validate_ns * (rebuilds - memo_hits).max(0.0);
    let db_ns = per_txn_ns(cost.exec_ns) * kf("db.exec.txns");
    let gen_ns = per_txn_ns(cost.gen_ns) * kf("db.exec.txns") / (spec.groups * spec.size) as f64;
    vec![
        (
            "runtime.reactor_cpu_us_per_txn",
            us_per_txn(m.roles.cpu(Role::Reactor)),
        ),
        (
            "runtime.writer_cpu_us_per_txn",
            us_per_txn(m.roles.cpu(Role::Writer)),
        ),
        (
            "runtime.reader_cpu_us_per_txn",
            us_per_txn(m.roles.cpu(Role::Reader)),
        ),
        (
            "runtime.other_cpu_us_per_txn",
            us_per_txn(m.roles.cpu(Role::Other)),
        ),
        ("runtime.runq_wait_us_per_txn", us_per_txn(m.roles.wait_ns)),
        ("runtime.threads", m.threads as f64),
        (
            "runtime.ctx_switches_per_txn",
            ratio(m.roles.ctx_switches as f64, c),
        ),
        (
            "runtime.idle_frac",
            1.0 - ratio(cpu_ns / 1e9, nproc * m.wall_s),
        ),
        ("runtime.steal_frac", m.steal_frac()),
        (
            "runtime.tcp_bytes_per_txn",
            ratio(kf("net.tcp_bytes_out") + kf("net.tcp_bytes_in"), c),
        ),
        (
            "runtime.syscalls_per_txn",
            ratio(kf("net.syscalls_write") + kf("net.syscalls_read"), c),
        ),
        ("runtime.frames_per_txn", ratio(kf("net.frames_out"), c)),
        (
            "runtime.coalesce_ratio",
            ratio(kf("net.coalesced_writes"), kf("net.frames_out")),
        ),
        (
            "consensus.pbft_view_changes",
            kf("consensus.pbft.view_changes"),
        ),
        ("consensus.raft_elections", kf("consensus.raft.elections")),
        ("consensus.local_ms", phases.local_consensus_ms),
        ("core.replication_ms", phases.global_replication_ms),
        ("core.ordering_ms", phases.ordering_ms),
        ("core.execution_ms", phases.execution_ms),
        ("core.traced_mean_ms", m.latency_mean_us() / 1e3),
        (
            "core.phase_coverage",
            ratio(phases.total_ms(), m.latency_mean_us() / 1e3),
        ),
        ("core.lan_bytes_per_txn", ratio(m.lan_bytes as f64, c)),
        (
            "core.max_node_wan_share",
            ratio(m.max_node_wan_bytes as f64, m.wan_bytes as f64),
        ),
        ("core.rebuilds_per_entry", ratio(rebuilds, entries)),
        (
            "core.chunk_reject_ratio",
            ratio(kf("core.replication.chunk_rejects"), chunks_seen),
        ),
        (
            "core.bytes_copied_per_txn",
            ratio(kf("core.data_plane.bytes_copied"), c),
        ),
        ("core.cert_memo_hit_ratio", ratio(memo_hits, rebuilds)),
        ("core.exec_queue_mean", mean(&trace.exec_queue)),
        ("core.held_appends_mean", mean(&trace.held_appends)),
        ("core.window_occupancy", mean(&trace.occupancy)),
        ("core.commit_p99_ms", latency_ms(m, 99.0)),
        ("core.latency_samples", stats::count(&m.latency) as f64),
        ("core.failed_frac", split.failed),
        ("core.shed_frac", split.shed),
        ("core.inflight_frac", split.in_flight),
        ("codec.encode_us_per_entry", per_entry(cost.encode_ns)),
        ("codec.decode_us_per_entry", per_entry(cost.decode_ns)),
        (
            "codec.decode_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("codec.cpu_share", ratio(codec_ns, cpu_ns)),
        ("crypto.merkle_us_per_entry", per_entry(cost.merkle_ns)),
        ("crypto.cert_validate_us", cost.cert_validate_ns / 1e3),
        ("crypto.cpu_share", ratio(crypto_ns, cpu_ns)),
        ("db.exec_us_per_txn_replay", per_txn_ns(cost.exec_ns) / 1e3),
        ("db.exec_ns_per_txn", ratio(exec_phases, kf("db.exec.txns"))),
        (
            "db.abort_frac",
            ratio(m.aborted() as f64, kf("db.exec.txns")),
        ),
        (
            "db.reserve_share",
            ratio(kf("db.exec.reserve_ns"), exec_phases),
        ),
        (
            "db.execute_share",
            ratio(kf("db.exec.execute_ns"), exec_phases),
        ),
        (
            "db.commit_share",
            ratio(kf("db.exec.commit_ns"), exec_phases),
        ),
        (
            "db.fallback_share",
            ratio(kf("db.exec.fallback_ns"), exec_phases),
        ),
        (
            "db.fallback_frac",
            ratio(kf("db.exec.fallback_committed"), kf("db.exec.txns")),
        ),
        ("db.txns_per_batch", m.txns_per_batch()),
        ("db.cpu_share", ratio(db_ns, cpu_ns)),
        ("sim-net.events_per_txn", ratio(m.events as f64, c)),
        ("sim-net.events_per_s", ratio(m.events as f64, m.wall_s)),
        ("workloads.gen_ns_per_txn", per_txn_ns(cost.gen_ns)),
        ("workloads.cpu_share", ratio(gen_ns, cpu_ns)),
        (
            "telemetry.trace_overhead",
            ratio(cpu_us_per_txn(m), baseline_cpu_us) - 1.0,
        ),
        ("telemetry.ring_dropped", trace.dropped as f64),
        ("replay.entries", cost.entries as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_telemetry::json;

    fn contract() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check(list: &json::Value, defs: &[Def]) {
        let list = list.as_arr().expect("metric list");
        assert_eq!(list.len(), defs.len());
        for (j, d) in list.iter().zip(defs) {
            assert_eq!(j.get("name").and_then(|v| v.as_str()), Some(d.name));
            assert_eq!(j.get("unit").and_then(|v| v.as_str()), Some(d.unit));
            assert_eq!(j.get("better").and_then(|v| v.as_str()), Some(d.better));
            assert_eq!(j.get("bound").and_then(|v| v.as_f64()), d.bound);
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = contract();
        check(doc.get("end_to_end").unwrap(), END_TO_END);
        check(doc.get("per_layer").unwrap(), PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_arr())
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let specs: Vec<&str> = crate::run::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{d:?}");
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        let setup = def("setup_s").unwrap();
        for d in END_TO_END {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap(), "{d:?}");
        }
    }
}
