//! `benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check]`
//!
//! With `--workload`, runs that workload in this process, prints its
//! report to standard error, and prints one JSON object as the last line
//! of standard output. Without it, re-executes itself once per workload
//! — so `setup_s` and `peak_rss_mb` belong to one workload alone — and
//! prints every metric of every workload; `--check` does that twice and
//! fails when the two sets disagree by more than a metric's bound.

use pimento_perfbench::spec::{
    self, MetricSpec, Sizes, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use pimento_perfbench::stats;
use pimento_perfbench::workloads::{run_workload, Ctx};
use pimento_serve::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn metrics_for(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One workload in this process. The last line of standard output is the
/// result object; the exit code is nonzero when an output check failed.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let clients = spec::clients(name);
    eprintln!(
        "== {name} ({}) ==",
        if args.trace {
            "traced run"
        } else {
            "untraced run"
        }
    );
    for (key, value) in stats::environment(args.seed, args.seconds, clients) {
        eprintln!("  {key}: {value}");
    }
    let sizes = Sizes::full();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: &sizes,
        out_dir: PathBuf::from(".bench_out"),
    };
    let out = match run_workload(name, &ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.report {
        eprintln!("  {line}");
    }
    let mut fields = Vec::new();
    for m in metrics_for(args.trace) {
        let value = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("benchmark: {name}: metric {} is not a number", m.name);
            return ExitCode::FAILURE;
        }
        eprintln!("  {} = {value} {}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// metric name → value, per workload.
type ResultSet = BTreeMap<&'static str, BTreeMap<String, f64>>;

/// Re-execute this binary once per workload and collect the result lines.
fn run_set(args: &Args, trace: bool) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = ResultSet::new();
    for (name, _) in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let result = Value::parse(line).map_err(|e| format!("{name}: no result line: {e}"))?;
        if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true)
        {
            return Err(format!("{name}: output check failed: {line}"));
        }
        let metrics = set.entry(name).or_default();
        for m in metrics_for(trace) {
            let value = result
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: result lacks {}", m.name))?;
            metrics.insert(m.name.to_string(), value);
        }
    }
    Ok(set)
}

fn print_set(set: &ResultSet, specs: &[MetricSpec]) {
    for m in specs {
        let row: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| format!("{w}={}", set[w][m.name]))
            .collect();
        println!("{} [{}]: {}", m.name, m.unit, row.join("  "));
    }
}

/// Two full sets back to back on this build: the relative difference of
/// every (metric, workload), and failure when the second set is worse
/// than the first by more than the metric's bound.
fn check(args: &Args) -> Result<bool, String> {
    let first = run_set(args, false)?;
    let second = run_set(args, false)?;
    let mut ok = true;
    for m in END_TO_END {
        for (w, _) in WORKLOADS {
            let (a, b) = (first[w][m.name], second[w][m.name]);
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse > m.bound {
                "WORSE THAN BOUND"
            } else {
                "ok"
            };
            ok &= worse <= m.bound;
            println!(
                "{} on {w}: {a} then {b} {} ({:+.2}% worse, bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                100.0 * worse,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_one(name, &args);
    }
    let outcome = if args.check {
        check(&args)
    } else {
        run_set(&args, false).and_then(|set| {
            print_set(&set, END_TO_END);
            if args.trace {
                print_set(&run_set(&args, true)?, PER_LAYER);
            }
            Ok(true)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
