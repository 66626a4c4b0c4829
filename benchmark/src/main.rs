//! `benchmark` — the repo benchmark's command line.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--trace 1]                every workload, each in its own process
//! benchmark --check-repeat [--runs R] [--seed N] [--seconds S]  two sets of runs, compared against the bounds
//! benchmark --emit-spec                                         print BENCHMARK.json
//! ```
//!
//! A single run prints each metric by name with its unit, then one JSON
//! object as the last line of standard output, and exits non-zero when a
//! correctness check failed.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use benchmark::spec::{self, END_TO_END, WORKLOADS};
use benchmark::{host, run_named, stats, Options};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
    runs: usize,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2014,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        check_repeat: false,
        runs: 3,
        emit_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |s: String| s.parse::<f64>().map_err(|e| format!("{s}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let s = value("a number")?;
                args.seed = s.parse().map_err(|e| format!("{s}: {e}"))?;
            }
            "--seconds" => args.seconds = number(value("a number")?)?,
            "--trace" => args.traced = number(value("0 or 1")?)? != 0.0,
            "--check-repeat" => args.check_repeat = true,
            "--runs" => args.runs = number(value("a count")?)? as usize,
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 0.0 && args.runs >= 2) {
        return Err("need --seconds >= 0 and --runs >= 2".into());
    }
    Ok(args)
}

/// Where traced runs leave their Chrome traces: `benchmark/` beside the
/// build profile directory this executable sits in (`target/benchmark/`).
fn trace_path(workload: &str) -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .unwrap_or(std::path::Path::new("."));
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("{workload}.trace.json")))
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: 1.0,
    };
    let Some(report) = run_named(workload, &opts) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {workload}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "workload {workload} seed {} traced {}",
        args.seed, args.traced
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for error in &report.errors {
        println!("CHECK FAILED: {error}");
    }
    if let Some(trace) = &report.trace_json {
        match trace_path(workload).and_then(|p| std::fs::write(&p, trace).map(|()| p)) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `metric name -> value` from a child's result line, or why it failed.
fn child_metrics(
    workload: &str,
    seed: u64,
    args: &Args,
    traced: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}",
            out.status
        ));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let root = serde_json::parse_value(line).map_err(|e| format!("{e}: {line}"))?;
    let field = |object: &serde_json::Value, key: &str| {
        let entries = object.as_object()?;
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let metrics = field(&root, "metrics").ok_or("result line has no metrics")?;
    Ok(metrics
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), field(m, "value")?.as_f64()?)))
        .collect())
}

/// Every workload once, each in its own process so `peak_rss_mb` is its own.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            match child_metrics(w.name, args.seed, args, traced) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        println!("{:<18} {name:<40} {value:>16.4}", w.name);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set: `runs` untraced runs of every workload at consecutive seeds.
fn run_set(args: &Args) -> Result<BTreeMap<(&'static str, &'static str), Vec<f64>>, String> {
    let mut set = BTreeMap::new();
    for w in &WORKLOADS {
        for r in 0..args.runs {
            let metrics = child_metrics(w.name, args.seed + r as u64, args, false)?;
            for m in &END_TO_END {
                let value = *metrics
                    .get(m.name)
                    .ok_or(format!("{} lacks {}", w.name, m.name))?;
                set.entry((w.name, m.name))
                    .or_insert_with(Vec::new)
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Two sets back to back at the same seeds. A simulated metric must read
/// exactly the same in both, run by run. For a host metric the second
/// median may not be worse than the first by more than the bound, and a
/// spread wider than the bound makes the pair unresolved, not agreed.
fn check_repeat(args: &Args) -> ExitCode {
    let mut calibration = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..2 {
        calibration.push(host::calibration_ns());
        match run_set(args) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "host.calibration_ns: set 1 {:.0}, set 2 {:.0}",
        calibration[0], calibration[1]
    );
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread", "bound"
    );
    let (mut disagreed, mut unresolved) = (Vec::new(), Vec::new());
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (&sets[0][&(w.name, m.name)], &sets[1][&(w.name, m.name)]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = m.better.worsening(ma, mb);
            let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
            let pair = format!("{} on {}", m.name, w.name);
            let verdict = if m.simulated {
                if a == b {
                    "identical"
                } else {
                    disagreed.push(pair);
                    "DIFFERS"
                }
            } else if worse > m.bound {
                disagreed.push(pair);
                "DISAGREE"
            } else if spread > m.bound {
                unresolved.push(pair);
                "unresolved"
            } else {
                "agree"
            };
            println!(
                "{:<18} {:<26} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>5.1}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    let listed = |v: &[String]| {
        if v.is_empty() {
            "none".to_string()
        } else {
            v.join("; ")
        }
    };
    println!(
        "unresolved (spread wider than the bound): {}",
        listed(&unresolved)
    );
    println!("disagreeing: {}", listed(&disagreed));
    if disagreed.is_empty() && unresolved.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        ExitCode::SUCCESS
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else if args.check_repeat {
        check_repeat(&args)
    } else {
        run_all(&args)
    }
}
