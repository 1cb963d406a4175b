//! Command line: the form `BENCHMARK.json` names (one workload, one JSON
//! line), `run` (every workload, tables and a result file), `compare`,
//! and the verbs the harness's own children are started with.

use std::fs;
use std::path::PathBuf;

use crate::harness::{self, Plan, Setup, WorkRoot, WorkloadResult, FORBIDDEN_ENV, SETUP_REPS};
use crate::json::{self, obj, Value};
use crate::sample::{run_sample, SampleArgs};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{verdict, worse_by, Summary, Verdict};
use crate::traced::run_trace;

/// Corpus scale of `run --quick`.
const QUICK_SCALE: f64 = 0.25;
/// Samples per workload of `run --quick`, warm-up included.
const QUICK_SAMPLES: usize = 2;
/// Untraced samples of a `--trace 1` invocation, warm-up included.
const TRACE_SAMPLES: usize = 4;

const USAGE: &str = "usage:
  parabench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
  parabench run [--seed <n>] [--seconds <s>] [--quick] [--out <file>]  every workload, untraced then traced
  parabench compare <a.json> <b.json>                                  apply the bounds to two result files";

/// Dispatches `args` and returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let child = |body: fn(&SampleArgs) -> Value| match SampleArgs::from_argv(&args[1..]) {
        Ok(a) => {
            println!("{}", body(&a).to_json());
            0
        }
        Err(e) => fail(&e),
    };
    match args.first().map(String::as_str) {
        // Internal: one build, one traced run, an idle worker.
        Some("sample") => child(run_sample),
        Some("trace") => child(run_trace),
        Some("noop") => 0,
        // `parabench spec > BENCHMARK.json` keeps the file and `spec.rs`
        // one list (tests/contract.rs fails when they part).
        Some("spec") => {
            print!("{}", benchmark_json());
            0
        }
        Some("run") => run(&args[1..]),
        Some("compare") => match args {
            [_, a, b] => compare(a, b),
            _ => fail(USAGE),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        Some(flag) if flag.starts_with("--") => contract(args),
        _ => fail(USAGE),
    }
}

/// Seconds one invocation measures for, as `BENCHMARK.json` states it.
const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`: the command, the paths, and every
/// workload and metric of `spec.rs`, one per line.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let lines = |items: Vec<Value>| {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.to_json()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
                ("bound", Value::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Value::Arr(command.iter().map(|&c| Value::from(c)).collect()).to_json(),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

fn fail(message: &str) -> i32 {
    eprintln!("parabench: {message}");
    2
}

/// The value after `name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
}

/// Everything one invocation measured.
struct Measured {
    setup: Setup,
    results: Vec<WorkloadResult>,
    host: Value,
}

/// Set-up, untraced samples and (when asked) the traced runs, inside a
/// work root that is gone when this returns.
fn measure(plan: &Plan, trace: bool) -> Result<Measured, String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: the children would measure another program; unset it"
        ));
    }
    let root = WorkRoot::create().map_err(|e| format!("cannot create the work root: {e}"))?;
    let setup = harness::set_up(root.path(), plan).map_err(|e| format!("set-up failed: {e}"))?;
    let host = crate::host::record(plan.seed, plan.scale, root.path(), &setup);
    let mut results = harness::measure(root.path(), &setup, plan);
    if trace {
        harness::trace_workloads(
            root.path(),
            &setup,
            &host,
            &harness::out_dir(),
            &mut results,
        );
    }
    Ok(Measured {
        setup,
        results,
        host,
    })
}

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: the last
/// stdout line is the one JSON object the driver reads.
fn contract(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(&'static Workload, u64, f64, bool), String> {
        let name: String = flag(args, "--workload")?.ok_or(USAGE)?;
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let workload = spec::workload(&name)
            .ok_or_else(|| format!("unknown workload `{name}`; one of {}", names.join(", ")))?;
        let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        Ok((
            workload,
            flag(args, "--seed")?.unwrap_or(14),
            flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64),
            trace,
        ))
    })();
    let (workload, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let plan = Plan {
        workloads: vec![workload],
        seed,
        seconds,
        scale: 1.0,
        // The traced invocation needs the untraced median only to state
        // `trace.overhead_share`.
        max_samples: trace.then_some(TRACE_SAMPLES),
        setup_reps: SETUP_REPS,
    };
    let measured = match measure(&plan, trace) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    println!(
        "{}",
        contract_line(&measured.results[0], &measured.setup, trace).to_json()
    );
    0
}

/// The one JSON object an invocation prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics` — every end-to-end metric with
/// tracing off, every per-layer metric with tracing on.
pub fn contract_line(result: &WorkloadResult, setup: &Setup, trace: bool) -> Value {
    let metrics: Vec<(&str, Value)> = match trace {
        false => harness::end_to_end_metrics(result, setup)
            .into_iter()
            .map(|(name, value, unit)| (name, metric_json(value, unit)))
            .collect(),
        true => PER_LAYER
            .iter()
            .map(|m| (m.name, metric_json(result.layer(m.name), m.unit)))
            .collect(),
    };
    // An end-to-end metric is never 0: a 0 means a reading failed.
    let unread = !trace
        && metrics
            .iter()
            .any(|(_, m)| m.get("value").and_then(Value::as_f64) == Some(0.0));
    obj([
        ("correct", Value::from(result.failed() == 0 && !unread)),
        ("attempted", Value::from(result.samples.len())),
        ("failed", Value::from(result.failed())),
        ("metrics", obj(metrics)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Value {
    obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}

/// `run`: every workload round-robin with tracing off, then one traced
/// run per workload; prints every metric by name with its unit and
/// writes the result file `compare` reads.
fn run(args: &[String]) -> i32 {
    let quick = args.iter().any(|a| a == "--quick");
    let parsed = (|| {
        Ok::<_, String>((
            flag(args, "--seed")?,
            flag(args, "--seconds")?,
            flag::<PathBuf>(args, "--out")?,
        ))
    })();
    let (seed, seconds, out) = match parsed {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let seed: u64 = seed.unwrap_or(14);
    let plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        seed,
        seconds: seconds.unwrap_or(RUN_SECONDS as f64),
        scale: if quick { QUICK_SCALE } else { 1.0 },
        max_samples: quick.then_some(QUICK_SAMPLES),
        setup_reps: if quick { 1 } else { SETUP_REPS },
    };
    let measured = match measure(&plan, true) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    print_tables(&measured, quick);
    let setup_summary = Summary::of(&measured.setup.seconds).expect("set-up ran");
    let file = obj([
        ("host", measured.host.clone()),
        ("quick", Value::from(quick)),
        (
            "setup_s",
            harness::summary_json(&setup_summary, "s", &measured.setup.seconds),
        ),
        (
            "workloads",
            obj(measured
                .results
                .iter()
                .map(|r| (r.workload.name, harness::workload_json(r)))),
        ),
    ]);
    let path = out.unwrap_or_else(|| harness::out_dir().join(format!("run-seed{seed}.json")));
    if let Err(e) = fs::write(&path, file.to_json() + "\n") {
        return fail(&format!("cannot write {}: {e}", path.display()));
    }
    println!("\nresult file: {}", path.display());
    println!(
        "traces: {}/trace-<workload>.json",
        harness::out_dir().display()
    );
    let failed: usize = measured.results.iter().map(WorkloadResult::failed).sum();
    i32::from(failed > 0)
}

fn print_tables(measured: &Measured, quick: bool) {
    println!("host: {}", measured.host.to_json());
    let setup = Summary::of(&measured.setup.seconds).expect("set-up ran");
    println!(
        "\nsetup_s  median {:.3} s  min {:.3}  max {:.3}  n {}",
        setup.median, setup.min, setup.max, setup.n
    );
    println!("\nend to end (tracing off; median [q1 .. q3] min..max over n timed samples)");
    for result in &measured.results {
        println!(
            "\n  {}  ({} samples, {} failed)",
            result.workload.name,
            result.samples.len(),
            result.failed()
        );
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            let Some(s) = Summary::of(&result.values(m.name)) else {
                continue;
            };
            let bound = if quick {
                "no bound".to_owned()
            } else {
                format!("bound {:.0}%", m.bound * 100.0)
            };
            println!(
                "    {:<16} {:>14.4} {:<8} [{:.4} .. {:.4}] {:.4}..{:.4} n {}  spread {:.1}%  {} is better, {bound}",
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                s.spread() * 100.0,
                m.better.as_str(),
            );
        }
    }
    println!("\nper layer (one traced run per workload; 0 = the layer does nothing there)");
    print!("  {:<40} {:<6}", "metric", "unit");
    for result in &measured.results {
        print!(" {:>15}", result.workload.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("  {:<40} {:<6}", m.name, m.unit);
        for result in &measured.results {
            print!(" {:>15}", format_value(result.layer(m.name)));
        }
        println!();
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// One metric's samples out of a result file.
fn summary_in(v: &Value) -> Option<Summary> {
    let values: Vec<f64> = v
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Summary::of(&values)
}

/// Prints one row: both medians, how much worse the candidate is (every
/// ratio with its base), the bound, both spreads and the verdict. `None`
/// when a file lacks the metric.
fn compare_row(
    workload: &str,
    metric: &spec::EndToEnd,
    a: Option<Summary>,
    b: Option<Summary>,
) -> Option<Verdict> {
    let (Some(a), Some(b)) = (a, b) else {
        println!("  {workload:<16} {:<15} missing from one file", metric.name);
        return None;
    };
    let v = verdict(&a, &b, metric.better, metric.bound);
    println!(
        "  {workload:<16} {:<15} {:>14.4} -> {:>14.4} {:<8} {:+6.2}% worse (bound {:.1}%, spreads {:.1}% / {:.1}%)  {}",
        metric.name,
        a.median,
        b.median,
        metric.unit,
        worse_by(&a, &b, metric.better) * 100.0,
        metric.bound * 100.0,
        a.spread() * 100.0,
        b.spread() * 100.0,
        v.as_str(),
    );
    Some(v)
}

/// `compare <a> <b>`: per workload and end-to-end metric, apply the
/// metric's bound to the two sample sets. Exit 1 on any `regressed` or
/// any rise in `failed_samples / samples`.
fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    println!("baseline {a_path}\ncandidate {b_path}");
    let mut bad = 0usize;
    let mut rows = 0usize;
    let mut tally = |v: Option<Verdict>| {
        rows += usize::from(v.is_some());
        bad += usize::from(matches!(v, None | Some(Verdict::Regressed)));
    };
    let setup = spec::end_to_end("setup_s").expect("listed");
    tally(compare_row(
        "(set-up)",
        setup,
        a.get("setup_s").and_then(summary_in),
        b.get("setup_s").and_then(summary_in),
    ));
    for w in &WORKLOADS {
        let section = |file: &Value| file.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (section(&a), section(&b)) else {
            println!("  {:<16} missing from one file", w.name);
            tally(None);
            continue;
        };
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            let of = |file: &Value| {
                file.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(summary_in)
            };
            tally(compare_row(w.name, m, of(&wa), of(&wb)));
        }
        let share = |file: &Value| {
            let n = |key: &str| file.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            (n("failed_samples"), n("samples"))
        };
        let ((fa, na), (fb, nb)) = (share(&wa), share(&wb));
        let rose = fb * na > fa * nb;
        println!(
            "  {:<16} {:<15} {fa} of {na} -> {fb} of {nb}  {}",
            w.name,
            "failed_samples",
            if rose { "regressed" } else { "ok" }
        );
        tally(Some(if rose {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }));
    }
    println!("{rows} rows compared, {bad} regressed or missing");
    i32::from(bad > 0)
}
