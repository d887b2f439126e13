//! Two-clock benchmark of the DSM-DB simulator: six closed-loop
//! workloads, every number labelled **sim** (virtual time of the
//! modelled cluster) or **host** (wall time of the simulator itself).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed <n>] [--seconds <s>]
//! benchmark compare <a.json> <b.json> [--same-build]
//! benchmark manifest | describe
//! ```
//!
//! The first form is what `BENCHMARK.json` names; see `README.md`.

mod compare;
mod driver;
mod engine;
mod estimate;
mod index_probe;
mod ladder;
mod metrics;
mod ops;
mod report;
mod spans;

use std::process::{Command, ExitCode};

use telemetry::Json;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 6;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    same_build: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        same_build: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&f.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--same-build" => f.same_build = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// One workload, as the driver runs it. The JSON object is the last line.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.workload.as_deref().ok_or("--workload is required")?;
    let result = report::run(workload, flags.seed, flags.seconds, flags.trace)?;
    let detail = report::out_dir().join(format!("run-{workload}-t{}.json", u8::from(flags.trace)));
    std::fs::create_dir_all(report::out_dir())
        .and_then(|()| std::fs::write(&detail, result.detail_json().render_pretty(1)))
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    println!("{}", result.driver_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in its own child process (so `host_rss_mb` is
/// per workload), one after the other: first the end-to-end runs, then
/// the traced runs. Writes `out/results-seed<seed>.json`.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for w in &WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &flags.seed.to_string(),
                    "--seconds",
                    &flags.seconds.to_string(),
                ])
                .status()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", w.name));
            }
            let detail = report::out_dir().join(format!("run-{}-t{trace}.json", w.name));
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{}: {e}", detail.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))?;
            all_correct &= doc.get("failed").and_then(Json::as_u64) == Some(0);
            runs.push(doc);
        }
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let set = Json::obj(vec![
        ("seed", Json::U(flags.seed)),
        ("seconds", Json::U(flags.seconds)),
        ("available_parallelism", Json::U(threads)),
        ("runs", Json::A(runs)),
    ]);
    let path = report::out_dir().join(format!("results-seed{}.json", flags.seed));
    std::fs::write(&path, set.render_pretty(1)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nfull set in {:.0} s on {threads} hardware threads; wrote {}",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(flags: &Flags) -> Result<ExitCode, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json> [--same-build]".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let failed = compare::compare(&load(a)?, &load(b)?, flags.same_build);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `BENCHMARK.json`, from the tables in `metrics.rs`.
fn manifest() -> Json {
    let better = |higher: bool| Json::S(if higher { "higher" } else { "lower" }.to_string());
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
    Json::obj(vec![
        (
            "command",
            Json::A(command.iter().map(|s| Json::S(s.to_string())).collect()),
        ),
        ("paths", Json::A(vec![Json::S("benchmark".into())])),
        ("run_seconds", Json::U(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::A(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::S(w.name.into())),
                            ("why", Json::S(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::A(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::S(m.name.into())),
                            ("unit", Json::S(m.unit.into())),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::F(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::A(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::S(m.name.into())),
                            ("unit", Json::S(m.unit.into())),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The glossary as markdown tables (what `README.md` reproduces).
fn describe() {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    println!("| workload | why it exists |\n|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!(
        "\n| end-to-end metric | unit | clock | better | bound | what |\n|---|---|---|---|---|---|"
    );
    for m in &END_TO_END {
        println!(
            "| `{}` | {} | {} | {} | {}% | {} |",
            m.name,
            m.unit,
            m.clock.name(),
            better(m.higher_is_better),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\n| per-layer metric | unit | clock | better | should move |\n|---|---|---|---|---|");
    for m in &PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.clock.name(),
            better(m.higher_is_better),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            None => run_one(&flags),
            Some("all") => run_all(&flags),
            Some("compare") => run_compare(&flags),
            Some("manifest") => {
                print!("{}", manifest().render_pretty(2));
                Ok(ExitCode::SUCCESS)
            }
            Some("describe") => {
                describe();
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command `{other}`")),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
