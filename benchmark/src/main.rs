//! The repository's benchmark: four served workloads, a closed- and
//! open-loop ledger, and a layer-by-layer latency budget. `README.md` in
//! this directory says what every number means; `BENCHMARK.json` at the
//! repository root is the contract this binary is checked against.
//!
//! ```sh
//! benchmark/run.sh --workload ptile_cold --seed 1 --seconds 18 --trace 0
//! benchmark/run.sh --all            # every workload, both passes
//! benchmark/run.sh --check          # scale model, a few seconds per workload
//! ```

mod alloc;
mod driver;
mod json;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use run::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The contract, compiled in: the binary always knows which metric names
/// and units it owes.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `--seed` when none is given. The hold-out seed `0xD15C0` is never used
/// while a change is being written: a claim must also hold there.
const DEFAULT_SEED: u64 = 1;
/// Requests in the traced sample.
const TRACE_SAMPLE: usize = 2048;

const USAGE: &str = "usage: dds-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]
       dds-benchmark --all [--seed <u64>] [--seconds <n>]
       dds-benchmark --check [--seed <u64>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    all: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        trace_out: None,
        all: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--all" => args.all = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_some() == (args.all || args.check) {
        return Err("give --workload, or --all, or --check".into());
    }
    Ok(args)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn spec_metrics(spec: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    spec.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The result line the contract asks for, checked against the contract
/// before it is printed: exactly the metrics of this pass, each a finite
/// number.
fn result_line(spec: &Json, traced: bool, out: &Outcome) -> Result<String, String> {
    let owed = spec_metrics(spec, if traced { "per_layer" } else { "end_to_end" });
    let mut metrics = Vec::with_capacity(owed.len());
    for (name, unit) in &owed {
        let value = out.metric(name).ok_or(format!(
            "metric {name} is in BENCHMARK.json but was not measured"
        ))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    if let Some((extra, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !owed.iter().any(|(o, _)| o == n))
    {
        return Err(format!(
            "metric {extra} was measured but is not in BENCHMARK.json"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

/// Every metric by name with its unit, then what a reader needs beside
/// the numbers.
fn print_outcome(spec: &Json, w: &Workload, traced: bool, out: &Outcome) {
    let owed = spec_metrics(spec, if traced { "per_layer" } else { "end_to_end" });
    println!(
        "== {} ({})",
        w.name,
        if traced {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    for (name, value) in &out.metrics {
        let unit = owed
            .iter()
            .find(|(n, _)| n == name)
            .map_or("?", |(_, u)| u.as_str());
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for note in &out.notes {
        println!("  . {note}");
    }
    for violation in &out.violations {
        println!("  ! {violation}");
    }
}

struct Plan {
    seed: u64,
    seconds: f64,
    check: bool,
    trace_out: Option<PathBuf>,
}

fn pass(spec: &Json, w: &Workload, traced: bool, plan: &Plan) -> Result<(Outcome, String), String> {
    let w = if plan.check { w.scaled(10) } else { w.clone() };
    let out = if traced {
        let (out, ladder) = trace::traced(
            &w,
            &trace::Config {
                seed: plan.seed,
                seconds: plan.seconds,
                check: plan.check,
                sample: if plan.check {
                    TRACE_SAMPLE / 8
                } else {
                    TRACE_SAMPLE
                },
                trace_out: plan.trace_out.clone(),
            },
        );
        print_outcome(spec, &w, true, &out);
        print!("{ladder}");
        out
    } else {
        let out = run::untraced(
            &w,
            &run::Config {
                seed: plan.seed,
                seconds: plan.seconds,
                check: plan.check,
                setups: if plan.check { 2 } else { 3 },
            },
        );
        print_outcome(spec, &w, false, &out);
        out
    };
    let line = result_line(spec, traced, &out)?;
    Ok((out, line))
}

/// The facts a number is meaningless without. `run.sh` passes the compiler
/// and the revision in through the environment.
fn host_facts(threads: usize, dds_threads: Option<String>) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unrecorded".into());
    println!(
        "host: {threads} core(s) (std::thread::available_parallelism), DDS_THREADS {}, {}, profile {}, git {}",
        dds_threads.map_or("unset".into(), |v| format!("was {v:?} and has been unset for this run")),
        env("DDS_BENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug (numbers are meaningless)" } else { "release" },
        env("DDS_BENCH_GIT_REV"),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    // The engine's pools read DDS_THREADS; a leftover value would make the
    // run measure another configuration than every other run.
    let dds_threads = std::env::var("DDS_THREADS").ok();
    std::env::remove_var("DDS_THREADS");
    host_facts(sut::default_threads(), dds_threads);

    let all = workloads::all();
    let run_seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(18.0);
    let mut plan = Plan {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.check { 1.0 } else { run_seconds }),
        check: args.check,
        trace_out: args.trace_out,
    };
    if let Some(name) = &args.workload {
        let Some(w) = all.iter().find(|w| w.name == name) else {
            eprintln!(
                "unknown workload {name}; BENCHMARK.json lists: {}",
                names(&all)
            );
            return ExitCode::from(2);
        };
        if args.trace && plan.trace_out.is_none() {
            plan.trace_out = Some(PathBuf::from(format!("benchmark/spans/{}.jsonl", w.name)));
        }
        return match pass(&spec, w, args.trace, &plan) {
            Ok((out, line)) => {
                println!("{line}");
                if out.violations.is_empty() && out.failed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    // --all / --check: every workload, both passes, one verdict.
    let listed: Vec<&str> = spec
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let mut problems = Vec::new();
    if listed != all.iter().map(|w| w.name).collect::<Vec<_>>() {
        problems.push(format!(
            "BENCHMARK.json lists workloads {listed:?}, the binary runs {}",
            names(&all)
        ));
    }
    for w in &all {
        for traced in [false, true] {
            plan.trace_out =
                traced.then(|| PathBuf::from(format!("benchmark/spans/{}.jsonl", w.name)));
            match pass(&spec, w, traced, &plan) {
                Ok((out, line)) => {
                    problems.extend(out.violations.iter().map(|v| format!("{}: {v}", w.name)));
                    if out.failed > 0 {
                        problems.push(format!(
                            "{}: {} of {} operations failed",
                            w.name, out.failed, out.attempted
                        ));
                    }
                    if let Err(e) = json::parse(&line) {
                        problems.push(format!("{}: result line is not JSON: {e}", w.name));
                    }
                }
                Err(e) => problems.push(format!("{}: {e}", w.name)),
            }
        }
    }
    if problems.is_empty() {
        println!("ok: every workload correct, every metric of BENCHMARK.json printed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}

fn names(all: &[Workload]) -> String {
    all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        json::parse(SPEC).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let spec = spec();
        assert_eq!(
            spec.keys(),
            vec![
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        for m in spec.get("end_to_end").unwrap().as_arr() {
            assert_eq!(m.keys(), vec!["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
        for m in spec.get("per_layer").unwrap().as_arr() {
            assert_eq!(m.keys(), vec!["name", "unit", "better"]);
        }
        let mut seen: Vec<String> = ["end_to_end", "per_layer", "workloads"]
            .iter()
            .flat_map(|k| spec_metrics(&spec, k))
            .map(|(name, _)| name)
            .collect();
        let total = seen.len();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), total, "a name is used once");
        assert!(spec_metrics(&spec, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let listed: Vec<String> = spec_metrics(&spec(), "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let run: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(listed, run);
    }

    /// `BENCHMARK.json` names ⊆ names the binary prints: a scale-model pass
    /// of one workload must yield every metric of each list, and the line
    /// it prints must parse back with the contract's four keys.
    #[test]
    fn a_pass_prints_every_metric_benchmark_json_names() {
        let spec = spec();
        let w = &workloads::all()[1];
        let plan = Plan {
            seed: 3,
            seconds: 0.9,
            check: true,
            trace_out: None,
        };
        for traced in [false, true] {
            let (_, line) = pass(&spec, w, traced, &plan).expect("every owed metric is measured");
            let parsed = json::parse(&line).expect("the result line is JSON");
            assert_eq!(
                parsed.keys(),
                vec!["correct", "attempted", "failed", "metrics"]
            );
            let owed = spec_metrics(&spec, if traced { "per_layer" } else { "end_to_end" });
            let printed = parsed.get("metrics").unwrap().keys();
            assert_eq!(
                printed,
                owed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
            );
        }
    }
}
