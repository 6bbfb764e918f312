//! `yaskbench` — the one benchmark every speed or simplicity claim about
//! this repository is measured with. See `README.md` beside `Cargo.toml`
//! for the metrics, the workloads and how they interact.
//!
//! ```text
//! yaskbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! yaskbench --workload all [--seed <n>] [--runs <n>] [--seconds <s>] [--smoke] [--out <file>]
//! yaskbench compare <a.json> <b.json>
//! ```

mod client;
mod driver;
mod gen;
mod oracle;
mod report;
mod run;
mod span;
mod spec;
mod system;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use yask_server::Json;

use crate::gen::Workload;
use crate::run::RunConfig;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        args.seconds = if args.smoke { 0.3 } else { DEFAULT_SECONDS };
    }
    if args.workload != "all" && Workload::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

/// Where a run may write: under the build directory of the checkout it
/// was started in (`$CARGO_TARGET_DIR`, else `target`).
fn out_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    std::env::current_dir()
        .unwrap_or_default()
        .join(target)
        .join("yaskbench")
}

/// Runs one workload in this process and prints its metrics; the last
/// line is the result object the driver reads.
fn run_one(args: &Args, root: &Path) -> Result<ExitCode, String> {
    let workload = Workload::from_name(&args.workload).expect("validated by parse_args");
    let scratch = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // The executor's pager puts its page file in the temp directory;
    // keep that inside the checkout too. Set before any thread starts.
    std::env::set_var("TMPDIR", &scratch);
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: scratch.clone(),
    };
    let outcome = run::run(&cfg);
    // Traces outlive the run's scratch directory.
    let trace_name = format!("trace-{}.jsonl", workload.name());
    if args.trace {
        let _ = std::fs::rename(scratch.join(&trace_name), root.join(&trace_name));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    report::print_table(workload.name(), args.trace, &outcome);
    println!("detail: {}", report::detail_line(&outcome));
    println!("{}", report::result_line(args.trace, &outcome)?);
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, untraced then traced, each in a child process
/// of its own (so set-up time and peak memory are per workload), once
/// per seed; prints every metric and writes the stamped results file.
fn run_all(args: &Args, root: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seeds: Vec<u64> = (args.seed..args.seed + args.runs.max(1)).collect();
    let mut collected = report::Collected::new();
    let mut failed = false;
    for &seed in &seeds {
        for workload in Workload::ALL {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                    .stdout(Stdio::piped());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                // The child's table, minus the two machine-read lines.
                let lines: Vec<&str> = stdout.lines().collect();
                for line in lines.iter().take(lines.len().saturating_sub(2)) {
                    println!("{line}");
                }
                failed |= !output.status.success();
                let Some(detail) = lines.iter().find_map(|l| l.strip_prefix("detail: ")) else {
                    return Err(format!(
                        "{} (trace {trace}) printed no result",
                        workload.name()
                    ));
                };
                let detail = Json::parse(detail).map_err(|e| format!("child detail: {e}"))?;
                let into = collected.entry(workload.name().to_owned()).or_default();
                if let Some(Json::Obj(metrics)) = detail.get("metrics") {
                    for (name, value) in metrics {
                        // An untraced run owns the end-to-end names; the
                        // traced pass re-measures them under tracing.
                        let end_to_end = spec::END_TO_END.iter().any(|m| m.name == name);
                        if let (Some(v), true) = (value.as_f64(), end_to_end == (trace == "0")) {
                            into.entry(name.clone()).or_default().push(v);
                        }
                    }
                }
                let share =
                    run::stat(&detail, &["failed"]) / run::stat(&detail, &["attempted"]).max(1.0);
                into.entry(format!("failed_share.trace{trace}"))
                    .or_default()
                    .push(share);
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| root.join(format!("results-seed{}.json", args.seed)));
    let doc = report::results_json(&seeds, args.seconds, args.smoke, &collected);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: yaskbench compare <a.json> <b.json>".to_owned());
        };
        return report::compare(Path::new(a), Path::new(b)).map(|code| ExitCode::from(code as u8));
    }
    let args = parse_args(&argv)?;
    let root = out_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    if args.workload == "all" {
        run_all(&args, &root)
    } else {
        run_one(&args, &root)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("yaskbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole harness at smoke scale (n = 5 000, a fraction of a
    /// second per workload): every workload, untraced and traced, must
    /// pass its oracles and report every metric it declares — so `cargo
    /// test` keeps the benchmark compiling and its output schema honest.
    #[test]
    fn smoke_runs_every_workload_and_reports_every_declared_metric() {
        let root = std::env::temp_dir().join(format!("yaskbench-smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out_dir = root.join(format!("{}-{}", workload.name(), u8::from(trace)));
                std::fs::create_dir_all(&out_dir).unwrap();
                let cfg = RunConfig {
                    workload,
                    seed: 1,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                    out_dir,
                };
                let outcome = run::run(&cfg);
                assert_eq!(
                    outcome.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    outcome.failures
                );
                assert!(outcome.attempted > 0);
                let line = report::result_line(trace, &outcome).expect("a complete result line");
                let doc = Json::parse(&line).expect("the result line is JSON");
                let Json::Obj(top) = &doc else {
                    panic!("result is not an object")
                };
                let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
                for m in report::declared(trace) {
                    let got = doc
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .unwrap_or_else(|| {
                            panic!(
                                "{} trace={trace}: metric {} missing",
                                workload.name(),
                                m.name
                            )
                        });
                    assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
                    let value = got
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("a numeric value");
                    assert!(
                        trace || value > 0.0,
                        "end-to-end metric {} reads {value}",
                        m.name
                    );
                }
                if trace {
                    let spans = span::read_jsonl(
                        &cfg.out_dir.join(format!("trace-{}.jsonl", workload.name())),
                    )
                    .expect("the traced pass leaves a readable trace file");
                    assert!(
                        spans.iter().any(|s| s.name == "http")
                            && spans.iter().any(|s| s.name == "server.handle")
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload read_cold --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("read_cold", 7, 3.0, true, false)
        );
        let all = parse_args(&[]).unwrap();
        assert_eq!(
            (all.workload.as_str(), all.seed, all.seconds),
            ("all", 1, DEFAULT_SECONDS)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
