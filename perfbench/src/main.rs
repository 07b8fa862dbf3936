//! The repository's benchmark: one command that generates a workload from a
//! seed, drives it, checks every reply, and prints every metric by name.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_read|serve_write|serve_datalog|provenance> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` lists every workload but `serve_write`, which is too
//! noisy to gate and runs by hand only (see [`gen::Workload`]).
//!
//! Run from the repository root. The service workloads speak the line
//! protocol over loopback TCP (`provsem_server::serve` + `Client`): an
//! open loop at a fixed offered rate gives per-command latency, timed from
//! each request's scheduled send time, then a closed loop with one
//! connection per core gives throughput. The `provenance` workload calls the
//! library's provenance pipeline in a closed loop. Each run has `ROUNDS`
//! rounds; the set-up the run measures is timed, and `SETUPS_BETWEEN_ROUNDS`
//! more are timed (and dropped) between each two rounds. `setup_s` is the
//! median of these.
//!
//! `--trace 0` prints the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` also runs the traced replay and prints its per-layer
//! metrics instead. Every other number (per-command percentiles, the
//! environment, correctness counts) is printed above the last line and
//! written to `.bench_out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero if any reply failed its check.

mod gen;
mod provenance;
mod service;
mod stats;
mod trace;

use gen::{ServiceWorkload, Workload};
use stats::{median, Run, ROUNDS};
use std::path::Path;
use std::time::Instant;

/// Set-ups timed between each two rounds. One set-up is too short (0.05 to
/// 0.4 s) to be steady on a shared machine: on a 2-core virtual machine,
/// set-ups within one run varied by up to 2x, as did a fixed
/// allocation-heavy probe, while a CPU-only loop did not. `setup_s` is the
/// median of `1 + (ROUNDS - 1) * SETUPS_BETWEEN_ROUNDS` set-ups spread over
/// the run.
const SETUPS_BETWEEN_ROUNDS: usize = 3;

/// The end-to-end metrics of `BENCHMARK.json` (the `--trace 0` output).
const END_TO_END: [&str; 4] = ["setup_s", "throughput_qps", "primary_p50_ms", "peak_rss_mb"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
    })
}

/// `src` lines per crate under `crates/` (the ROADMAP's size metric).
fn loc_per_crate() -> Vec<(String, usize)> {
    fn lines(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    lines(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |s| s.lines().count())
                } else {
                    0
                }
            })
            .sum()
    }
    let mut out: Vec<(String, usize)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                lines(&e.path().join("src")),
            )
        })
        .collect();
    out.sort();
    out
}

/// The commit checked out, read from `.git` without running git (the
/// benchmark may run in an export that is not a repository).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs `setup`, pushing the seconds it took onto `times`.
fn timed<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// The measured run and, with `--trace 1`, the traced run after it.
fn run(args: &Args, threads: usize) -> Run {
    let mut setups = Vec::with_capacity(1 + (ROUNDS - 1) * SETUPS_BETWEEN_ROUNDS);
    let (mut run, traced) = match args.workload {
        Workload::Provenance => {
            let setup = || provenance::Inputs::setup(args.seed, threads);
            let inputs = timed(&mut setups, setup);
            let oracles = provenance::Oracles::new(&inputs);
            let (run, call_ms) = provenance::run(&inputs, &oracles, args.seconds, &mut || {
                for _ in 0..SETUPS_BETWEEN_ROUNDS {
                    timed(&mut setups, setup);
                }
            });
            let traced = args
                .trace
                .then(|| trace::provenance_trace(&inputs, &oracles, &call_ms, 5));
            (run, traced)
        }
        _ => {
            let gen = ServiceWorkload::new(args.workload, args.seed);
            let setup = || service::setup(&gen, threads);
            let live = timed(&mut setups, setup);
            let run = service::run(&gen, live, threads, args.seconds, &mut || {
                for _ in 0..SETUPS_BETWEEN_ROUNDS {
                    timed(&mut setups, setup);
                }
            });
            let traced = args.trace.then(|| {
                let n = trace::traced_requests(args.workload);
                trace::service_trace(&gen, threads, &run.report, n)
            });
            (run, traced)
        }
    };
    run.report.note("setup_runs_s", format!("{setups:.3?}"));
    run.report
        .add("setup_s", median(&setups), "s", Some(setups.len()));
    if let Some(traced) = traced {
        write_spans(args, &traced.tracer);
        run.absorb(traced.run);
        trace::fill_unmeasured(&mut run.report);
    }
    run
}

const OUT_DIR: &str = ".bench_out";

fn write_spans(args: &Args, tracer: &trace::Tracer) {
    let path = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| tracer.write(&path)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    for var in ["PROVSEM_EXEC", "PROVSEM_THREADS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("error: {var} is set; unset it so the benchmark measures the default engine and an explicit thread budget");
            std::process::exit(2);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = run(&args, threads);
    let emitted: Vec<&str> = if args.trace {
        trace::PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.to_vec()
    };

    let mut env: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), threads.to_string()),
        (
            "thread_budget".into(),
            format!("ExecContext::with_threads({threads})"),
        ),
        ("rustc".into(), rustc_version()),
        ("git_rev".into(), git_rev()),
    ];
    if args.workload != Workload::Provenance {
        env.push((
            "offered_rate_per_s".into(),
            service::offered_rate(args.workload).to_string(),
        ));
    }
    let loc = loc_per_crate();
    let total: usize = loc.iter().map(|(_, n)| n).sum();
    env.push((
        "src_loc".into(),
        format!(
            "total={total} {}",
            loc.iter()
                .map(|(c, n)| format!("{c}={n}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ));

    for (k, v) in &env {
        println!("env {k} = {v}");
    }
    for (k, v) in &outcome.report.notes {
        println!("note {k} = {v}");
    }
    for m in &outcome.report.metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("metric {} = {} {}{n}", m.name, m.value, m.unit);
    }

    let metric_json = |names: &[&str]| -> String {
        names
            .iter()
            .map(|name| {
                let m = outcome
                    .report
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let all: Vec<&str> = outcome
        .report
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let record = format!(
        "{{\"env\": {{{}}}, \"notes\": {{{}}}, \"metrics\": {{{}}}}}\n",
        env.iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .report
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", "),
        metric_json(&all),
    );
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metric_json(&emitted)
    );
    if !correct {
        std::process::exit(1);
    }
}
