//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --stability <runs> --seed <n> --seconds <s> [--workload <name>] [--sets <k>]
//! ```
//!
//! A run prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! correctness check exits with code 1 and names the workload and the
//! check instead. The stability mode runs the benchmark as child
//! processes on consecutive seeds and reports each end-to-end metric's
//! median, quartiles and largest deviation; with `--sets 2` it runs the
//! same seeds twice and compares the two medians against the bound.
//! See `README.md` beside this crate for the workloads and metrics.

mod drive;
mod metrics;
mod procfs;
mod replay;
mod run;
mod spans;
mod stats;

use massbft_core::cluster::Cluster as SimCluster;
use massbft_runtime::Cluster as TcpCluster;
use run::{Measured, Plan, Spec};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// An untraced TCP run: ten windows of `--seconds / 10`, one per fresh
/// cluster, chosen as the least disturbed by hypervisor steal of at most
/// twelve. Each cluster settles into its own relative timing of the
/// groups' batch timers, which sets its ordering wait for as long as it
/// runs, so the latency percentiles pool many clusters.
const TCP_PLAN: Plan = Plan {
    clusters: 10,
    windows: 10,
    max_windows: 12,
    split: 10,
};
/// An untraced simulator run: two windows of `--seconds / 2` virtual
/// seconds on two clusters built from the seed. The simulator is
/// deterministic per seed, so both do the same work and the second only
/// adds processor time to the CPU figure, which drifts with the other
/// tenants of the host. Nine clusters are timed for `setup_s`.
const SIM_PLAN: Plan = Plan {
    clusters: 9,
    windows: 2,
    max_windows: 2,
    split: 2,
};
/// A traced run, and the untraced run its overhead is measured against:
/// one window of `--seconds / 2` each.
const TRACE_PLAN: Plan = Plan {
    clusters: 1,
    windows: 1,
    max_windows: 1,
    split: 2,
};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    stability: Option<usize>,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        stability: None,
        sets: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val),
            "--seed" => a.seed = num(&val)?,
            "--seconds" => a.seconds = num(&val)?.max(1),
            "--trace" => a.trace = num(&val)? != 0,
            "--stability" => a.stability = Some(num(&val)? as usize),
            "--sets" => a.sets = num(&val)?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// A failed correctness check.
struct Failed(String);

fn check(ok: bool, what: &str) -> Result<(), Failed> {
    if ok {
        Ok(())
    } else {
        Err(Failed(what.to_string()))
    }
}

/// The checks every run makes.
fn check_run(m: &Measured) -> Result<(), Failed> {
    check(m.consistent, "prefix consistency across every live node")?;
    check(m.committed > 0, "committed_tps > 0")?;
    check(
        m.lifetime.get("consensus.pbft.view_changes") == 0,
        "zero PBFT view changes",
    )?;
    check(
        m.lifetime.get("consensus.raft.elections") == 0,
        "zero Raft elections",
    )?;
    if let Some(same) = m.deterministic {
        check(same, "ledger head repeats across runs of one seed")?;
    }
    check(
        stats::percentile_supported(stats::count(&m.latency), 95.0),
        &format!(
            "at least 10 latency samples beyond p95 ({} samples in all)",
            stats::count(&m.latency)
        ),
    )?;
    Ok(())
}

fn measure(spec: &Spec, a: &Args, plan: Plan, traced: bool) -> Result<Measured, Failed> {
    let r = if spec.sim {
        run::measure::<SimCluster>(spec, a.seed, a.seconds, plan, traced)
    } else {
        run::measure::<TcpCluster>(spec, a.seed, a.seconds, plan, traced)
    };
    let m = r.map_err(Failed)?;
    check_run(&m)?;
    Ok(m)
}

fn json_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> Result<String, Failed> {
    let mut body = Vec::new();
    for &(name, v) in metrics {
        let d = metrics::def(name).expect("every printed metric is defined");
        check(v.is_finite(), &format!("{name} is a finite number"))?;
        body.push(format!(
            r#""{name}": {{"value": {v}, "unit": "{}"}}"#,
            d.unit
        ));
    }
    Ok(format!(
        r#"{{"correct": true, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    ))
}

/// One benchmark run; returns the result line.
fn bench(spec: &Spec, a: &Args) -> Result<String, Failed> {
    if !a.trace {
        let plan = if spec.sim { SIM_PLAN } else { TCP_PLAN };
        let m = measure(spec, a, plan, false)?;
        let e2e = metrics::end_to_end(&m);
        for (name, v) in &e2e {
            eprintln!(
                "{:<20} {v:>14.4} {}",
                name,
                metrics::def(name).map_or("", |d| d.unit)
            );
        }
        eprintln!(
            "({} of {} windows kept; machine steal in them {:.3})",
            m.windows,
            m.windows_measured,
            m.steal_frac()
        );
        let (attempted, failed) = metrics::outcome(&m, spec.groups * spec.size);
        return json_line(attempted, failed, &e2e);
    }
    // Traced: an untraced pass for the overhead baseline, then the traced
    // pass, then the replay of the traced pass's inputs.
    let base = measure(spec, a, TRACE_PLAN, false)?;
    let m = measure(spec, a, TRACE_PLAN, true)?;
    let trace = m.trace.as_ref().expect("traced run");
    let mut spans = spans::Spans::default();
    let cost = replay::replay(spec, a.seed, &m.ledger, &trace.submitted, &mut spans)
        .map_err(|e| Failed(format!("replay of the run's inputs: {e}")))?;
    check(cost.entries > 0, "replay verified at least one entry")?;
    let layers = metrics::per_layer(spec, &m, &cost, metrics::cpu_us_per_txn(&base));
    for (name, v) in &layers {
        eprintln!(
            "{:<34} {v:>14.4} {}",
            name,
            metrics::def(name).map_or("", |d| d.unit)
        );
    }
    write_spans(spec, &spans);
    let (attempted, failed) = metrics::outcome(&m, spec.groups * spec.size);
    json_line(attempted, failed, &layers)
}

/// Writes the replay spans once, at the end, beside the build output.
fn write_spans(spec: &Spec, spans: &spans::Spans) {
    let dir = std::path::Path::new(".bench_build").join("perfbench-spans");
    let path = dir.join(format!("{}.jsonl", spec.name));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Runs this executable once as a child and parses its result line.
fn child(spec: &Spec, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or_default()
        ));
    }
    let doc = massbft_telemetry::json::parse(line).map_err(|e| format!("seed {seed}: {e}"))?;
    let mut values = BTreeMap::new();
    for d in metrics::END_TO_END {
        let v = doc
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .ok_or(format!("seed {seed}: no {}", d.name))?;
        values.insert(d.name.to_string(), v);
    }
    Ok(values)
}

/// The stability report: `runs` runs per set on seeds `seed..seed+runs`.
fn stability(a: &Args, runs: usize) -> ExitCode {
    let specs: Vec<&Spec> = match &a.workload {
        Some(w) => Spec::named(w).into_iter().collect(),
        None => run::SPECS.iter().collect(),
    };
    let mut steady = true;
    for spec in specs {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for set in 0..a.sets {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for i in 0..runs {
                match child(spec, a.seed + i as u64, a.seconds) {
                    Ok(v) => {
                        for (k, x) in v {
                            values.entry(k).or_default().push(x);
                        }
                    }
                    Err(e) => {
                        eprintln!("{} set {set}: {e}", spec.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            sets.push(values);
        }
        println!(
            "{} ({runs} runs per set, seeds {}..{})",
            spec.name,
            a.seed,
            a.seed + runs as u64 - 1
        );
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "maxdev", "bound"
        );
        for d in metrics::END_TO_END {
            let bound = d.bound.unwrap_or(0.0);
            let v = &sets[0][d.name];
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let mut verdict = if d.name == "setup_s" || spread <= bound / 3.0 {
                "ok".to_string()
            } else if spread <= bound {
                "within bound".to_string()
            } else {
                steady = false;
                "SPREAD".to_string()
            };
            if let Some(second) = sets.get(1) {
                let v1 = &second[d.name];
                let (m0, m1) = (stats::median(v), stats::median(v1));
                let worse = if d.better == "lower" {
                    m1 / m0 - 1.0
                } else {
                    1.0 - m1 / m0
                };
                if worse > bound || (d.name != "setup_s" && stats::spread(v1) > bound) {
                    steady = false;
                }
                verdict = format!(
                    "{verdict}; set 2 spread {:.4}, median worse by {worse:+.3}",
                    stats::spread(v1)
                );
            }
            println!(
                "  {:<18} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                d.name,
                stats::median(v),
                q1,
                q3,
                spread,
                stats::max_deviation(v),
                bound,
                verdict
            );
        }
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = a.stability {
        return stability(&a, runs.max(2));
    }
    let Some(spec) = a.workload.as_deref().and_then(Spec::named) else {
        let names: Vec<&str> = run::SPECS.iter().map(|s| s.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    match bench(spec, &a) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(Failed(what)) => {
            eprintln!("perfbench: workload {}: check failed: {what}", spec.name);
            ExitCode::FAILURE
        }
    }
}
