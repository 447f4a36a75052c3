//! Experiment driver: regenerates the tables of `EXPERIMENTS.md`, the
//! machine-readable pipeline benchmark and the perf-trend comparison.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p mds_bench --bin experiments -- [--exp e1|...|e10|all]
//! $ cargo run --release -p mds_bench --bin experiments -- --json [path] [--max-n N]
//! $ cargo run --release -p mds_bench --bin experiments -- --compare BASELINE CURRENT
//! ```
//!
//! `--json` runs both composed pipeline routes over the size sweep (the seed
//! sizes 50/100/200, extended by `--max-n` to decade steps — sizes beyond
//! `THEOREM_1_1_MAX_N` run the Theorem 1.2 route only) and writes sizes,
//! measured vs paper-formula round counts, wall times and the per-phase wall
//! breakdown to `BENCH_pipeline.json` (or the given path).
//!
//! `--compare` parses two such files, prints the trend table (Markdown — CI
//! pipes it into `GITHUB_STEP_SUMMARY`) and exits nonzero on any violation:
//! exact drift in rounds/messages/sizes, a wall-time regression beyond the
//! 30% / 100 ms gate, a schema mismatch, or a missing run.
//!
//! Malformed arguments — an unrecognized argument, an unknown or missing
//! `--exp` id, a non-numeric size, `--max-n` without `--json`, or two modes
//! at once — print the usage line and exit with status 2.

const USAGE: &str = "usage: experiments [--exp e1|...|e10|all] | --json [path] [--max-n N] \
                     | --compare BASELINE CURRENT";

/// Reports a command-line error with the usage line and exits with status 2.
fn usage_error(what: &str) -> ! {
    eprintln!("experiments: {what}\n{USAGE}");
    std::process::exit(2);
}

/// What one invocation does.
enum Mode {
    /// Print one experiment table (or all of them).
    Experiment(String),
    /// Write the pipeline benchmark JSON, sweeping up to `max_n` if given.
    Json { path: String, max_n: Option<usize> },
    /// Gate a current benchmark file against a baseline.
    Compare { baseline: String, current: String },
}

/// Parses the arguments after the program name; anything it does not
/// recognize is a usage error.
fn parse_args(args: &[String]) -> Mode {
    let mut mode = None;
    let mut max_n = None;
    let mut args = args.iter().map(String::as_str).peekable();
    let mut set = |m: Mode| {
        if mode.replace(m).is_some() {
            usage_error("--exp, --json and --compare are mutually exclusive");
        }
    };
    while let Some(arg) = args.next() {
        match arg {
            "--exp" => match args.next() {
                Some(id) if mds_bench::EXPERIMENT_IDS.contains(&id) => {
                    set(Mode::Experiment(id.to_owned()))
                }
                Some(id) => usage_error(&format!("unknown experiment id {id:?}")),
                None => usage_error("--exp expects an experiment id"),
            },
            "--json" => {
                let path = args.next_if(|a| !a.starts_with("--"));
                set(Mode::Json {
                    path: path.unwrap_or("BENCH_pipeline.json").to_owned(),
                    max_n: None,
                });
            }
            "--max-n" => {
                let n = args.next().and_then(|a| a.parse().ok());
                max_n = Some(n.unwrap_or_else(|| usage_error("--max-n expects a node count")));
            }
            "--compare" => match (args.next(), args.next()) {
                (Some(baseline), Some(current)) => set(Mode::Compare {
                    baseline: baseline.to_owned(),
                    current: current.to_owned(),
                }),
                _ => usage_error("--compare expects <baseline.json> <current.json>"),
            },
            other => usage_error(&format!("unrecognized argument {other:?}")),
        }
    }
    match (mode, max_n) {
        (Some(Mode::Json { path, .. }), max_n) => Mode::Json { path, max_n },
        (_, Some(_)) => usage_error("--max-n only applies to --json"),
        (mode, None) => mode.unwrap_or_else(|| Mode::Experiment("all".to_owned())),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Mode::Experiment(id) => print!("{}", mds_bench::run_experiment(&id)),
        Mode::Json { path, max_n } => {
            let sizes = max_n.map_or_else(
                || mds_bench::JSON_BENCH_SIZES.to_vec(),
                mds_bench::sweep_sizes,
            );
            mds_bench::write_pipeline_benchmark(&path, &sizes)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote {path} (sizes: {sizes:?})");
        }
        Mode::Compare { baseline, current } => {
            match mds_bench::trend::compare_files(&baseline, &current) {
                Ok(report) => {
                    println!("### Perf trend: {current} vs baseline {baseline}\n");
                    println!("{}", report.table);
                    if report.is_green() {
                        println!(
                            "perf trend: OK ({} runs compared)",
                            report.table.lines().count().saturating_sub(2)
                        );
                    } else {
                        println!("\n**Violations:**\n");
                        for v in &report.violations {
                            println!("- {v}");
                        }
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("perf trend comparison failed: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}
