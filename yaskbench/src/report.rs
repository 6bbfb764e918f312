//! What a run prints and what `--workload all` writes: the metric
//! table, the driver's result line, the host- and commit-stamped results
//! file, and the `compare` subcommand over two such files.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use yask_server::Json;

use crate::run::{median, Outcome};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};

/// The metrics a run of the given mode must report, per the contract:
/// every end-to-end metric untraced, every per-layer metric traced.
pub fn declared(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Prints every metric the run measured, by name, with its unit and,
/// where it is a statistic over samples, the sample count.
pub fn print_table(workload: &str, trace: bool, out: &Outcome) {
    println!(
        "== {workload} ({}) ==",
        if trace { "traced pass" } else { "end to end" }
    );
    for (name, value) in &out.metrics {
        let n = out
            .counts
            .get(name)
            .map_or(String::new(), |n| format!("  (n = {n})"));
        println!("  {name:<40} {value:>16.4} {}{n}", unit_of(name));
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<40} {share:>16.6} ratio  ({} of {})",
        "failed_share", out.failed, out.attempted
    );
    for (name, n) in out
        .counts
        .iter()
        .filter(|(name, _)| !out.metrics.contains_key(*name))
    {
        println!("  {name:<40} {n:>16} count");
    }
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
}

fn metrics_json(names: impl Iterator<Item = (String, f64)>) -> Json {
    Json::Obj(
        names
            .map(|(name, value)| {
                let unit = unit_of(&name);
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being the declared set of the run's mode. A
/// per-layer metric the workload does not exercise reads 0.
pub fn result_line(trace: bool, out: &Outcome) -> Result<String, String> {
    let mut values = Vec::new();
    for m in declared(trace) {
        match out.metrics.get(m.name) {
            Some(v) if v.is_finite() => values.push((m.name.to_owned(), *v)),
            Some(v) => return Err(format!("metric {} is not a number: {v}", m.name)),
            None if trace => values.push((m.name.to_owned(), 0.0)),
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(values.into_iter())),
    ])
    .to_string())
}

/// Everything the run measured, for the parent of a `--workload all`.
pub fn detail_line(out: &Outcome) -> String {
    Json::obj([
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// Host facts stamped into every results file, so a number stays
/// attributable to the machine and commit that produced it.
pub fn host_stamp() -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("git_commit", Json::str(commit)),
    ])
}

/// Per workload, per metric, the values of every run made (one per
/// seed), in run order.
pub type Collected = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn results_json(seeds: &[u64], seconds: f64, smoke: bool, collected: &Collected) -> Json {
    let workloads = collected
        .iter()
        .map(|(workload, metrics)| {
            let rows = metrics
                .iter()
                .map(|(name, values)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("median", Json::Num(median(values))),
                            ("unit", Json::str(unit_of(name))),
                            (
                                "values",
                                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            (workload.clone(), Json::Obj(rows))
        })
        .collect();
    Json::obj([
        ("benchmark", Json::str("yaskbench")),
        ("host", host_stamp()),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let (len, m) = (data.len(), data.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .map_or(Vec::new(), |vs| {
            vs.iter().filter_map(Json::as_f64).collect()
        })
}

/// The verdict on one end-to-end metric of one workload: `b` against
/// the base `a`.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let bound = spec.bound.unwrap_or(0.0);
    // Noisier than the bound on either side: the comparison cannot tell.
    if [a, b].iter().any(|v| spread(v).is_some_and(|s| s > bound)) {
        return "unresolved";
    }
    let (base, new) = (median(a), median(b));
    let worse = if spec.better == "lower" {
        new - base
    } else {
        base - new
    };
    if worse > bound * base.abs() {
        "regressed"
    } else {
        "ok"
    }
}

/// `yaskbench compare <a.json> <b.json>`: per workload × end-to-end
/// metric, both medians, the ratio with its base, the bound, and the
/// verdict. Returns the process exit code (1 if anything regressed).
pub fn compare(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let commit = |doc: &Json| {
        doc.get("host")
            .and_then(|h| h.get("git_commit"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    println!("a = {} (commit {})", a_path.display(), commit(&a));
    println!("b = {} (commit {})", b_path.display(), commit(&b));
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "spread a", "spread b"
    );
    let mut regressed = 0;
    for (workload, _) in crate::spec::WORKLOADS {
        for spec in &END_TO_END {
            let (va, vb) = (
                values_of(&a, workload, spec.name),
                values_of(&b, workload, spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = verdict(spec, &va, &vb);
            regressed += i32::from(verdict == "regressed");
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>6.0}% {:>9} {:>9}  {verdict}",
                workload,
                spec.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spec.bound.unwrap_or(0.0) * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
            );
        }
    }
    println!("ratios are b/a with a as the base; spread = interquartile distance / median over the file's runs");
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let lower = MetricSpec {
            name: "query_p50_us",
            unit: "us",
            better: "lower",
            bound: Some(0.10),
        };
        let higher = MetricSpec {
            name: "ops_s",
            unit: "1/s",
            better: "higher",
            bound: Some(0.10),
        };
        let steady = |x: f64| vec![x, x * 1.01, x * 0.99, x * 1.005, x * 0.995];
        assert_eq!(verdict(&lower, &steady(100.0), &steady(105.0)), "ok");
        assert_eq!(verdict(&lower, &steady(100.0), &steady(115.0)), "regressed");
        assert_eq!(verdict(&lower, &steady(100.0), &steady(50.0)), "ok");
        assert_eq!(verdict(&higher, &steady(100.0), &steady(85.0)), "regressed");
        assert_eq!(verdict(&higher, &steady(100.0), &steady(130.0)), "ok");
        let noisy = vec![100.0, 60.0, 140.0, 90.0, 120.0];
        assert_eq!(verdict(&lower, &noisy, &steady(100.0)), "unresolved");
        // A single run per side has no spread to judge by.
        assert_eq!(verdict(&lower, &[100.0], &[120.0]), "regressed");
    }
}
