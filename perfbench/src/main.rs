//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's input from the seed, then runs a closed loop of
//! solves (one client, one solve at a time) for the given number of seconds,
//! certifying every output. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. The run's
//! input identity, samples and (traced) spans go to
//! `.perfbench/<workload>-seed<n>-trace<t>.json`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use congest_sim::{Graph, SyncExecutor};
use perfbench::check::{certify, same_output};
use perfbench::timed::{EngineRun, Layer, TimedExecutor, Totals};
use perfbench::workload::{Input, Solution, Workload};

/// Loop iterations per run even when `--seconds` has already elapsed.
const MIN_ITERATIONS: usize = 3;
/// Where run records are written, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        bad(&format!("unknown workload (one of {})", names.join(", ")))
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad(&"must be in (0, 3600]"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metrics of a run, in report order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, Result<f64, u64>, &'static str)>);

impl Metrics {
    fn real(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, Ok(value), unit));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.0.push((name, Err(value), "count"));
    }

    /// The body of the result's `metrics` object; counts print as integers.
    fn render(&self) -> Result<String, String> {
        let mut out = Vec::new();
        for &(name, value, unit) in &self.0 {
            let shown = match value {
                Ok(v) if v.is_finite() => v.to_string(),
                Ok(v) => return Err(format!("metric {name} is {v}")),
                Err(count) => count.to_string(),
            };
            out.push(format!(
                "\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(out.join(", "))
    }
}

/// Host times of repeated set-ups: input generation plus topology warm-up.
#[derive(Default)]
struct SetupTimes {
    gen_s: Vec<f64>,
    warm_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl SetupTimes {
    /// Generates the workload's input from `seed` and warms its topology,
    /// recording the time of each step.
    fn time(&mut self, workload: Workload, seed: u64) -> Result<Input, String> {
        let t0 = Instant::now();
        let input = workload.input(seed)?;
        let t1 = Instant::now();
        input.graph.warm_topology();
        let t2 = Instant::now();
        self.gen_s.push((t1 - t0).as_secs_f64());
        self.warm_s.push((t2 - t1).as_secs_f64());
        self.total_s.push((t2 - t0).as_secs_f64());
        Ok(input)
    }
}

/// Self times of one traced solve, per layer.
struct TracedSolve {
    solve_s: f64,
    engine_s: [f64; Layer::ALL.len()],
    central_s: f64,
    cds_s: f64,
}

/// A closed-loop run over one input: counts attempts and failures, keeps the
/// first solve as the reference every later one must equal.
struct Bench<'a> {
    workload: Workload,
    graph: &'a Graph,
    seed_used: u64,
    origin: Instant,
    attempted: u64,
    failed: u64,
    reference: Option<(Solution, Vec<EngineRun>)>,
    verify_s: Vec<f64>,
    spans: String,
}

impl Bench<'_> {
    /// Counts one solve and certifies it, also against the run's first
    /// solve. A panicked solve (`None`) is a failure.
    fn settle(&mut self, sol: Option<&Solution>, runs: Option<&[EngineRun]>) {
        self.attempted += 1;
        let errors = match sol {
            None => vec!["the solve panicked".to_owned()],
            Some(sol) => {
                let t = Instant::now();
                let mut errors = certify(self.workload, self.graph, self.seed_used, sol)
                    .err()
                    .unwrap_or_default();
                self.verify_s.push(t.elapsed().as_secs_f64());
                if let Some((reference, ref_runs)) = &self.reference {
                    let counts =
                        |r: &[EngineRun]| r.iter().map(|r| (r.layer, r.counts)).collect::<Vec<_>>();
                    if !same_output(sol, reference) {
                        errors.push("output differs from the run's first solve".to_owned());
                    }
                    if runs.is_some_and(|r| counts(r) != counts(ref_runs)) {
                        errors.push("engine counts differ from the run's first solve".to_owned());
                    }
                }
                errors
            }
        };
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                eprintln!("perfbench: solve #{} failed: {e}", self.attempted);
            }
        }
    }

    /// One untraced solve; its host time unless it panicked.
    fn plain(&mut self) -> Option<f64> {
        let (workload, graph) = (self.workload, self.graph);
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.solve(graph, &SyncExecutor))).ok();
        let solve_s = t.elapsed().as_secs_f64();
        self.settle(outcome.as_ref(), None);
        outcome.map(|_| solve_s)
    }

    /// One solve through the timing adapter, recording its spans; its self
    /// times unless it panicked. The first one becomes the run's reference.
    fn traced(&mut self) -> Option<TracedSolve> {
        let (workload, graph) = (self.workload, self.graph);
        let timed = TimedExecutor::new(&SyncExecutor);
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mds = workload.pipeline(graph, &timed);
            let t1 = Instant::now();
            let cds = workload.connect(graph, &mds);
            (Solution { mds, cds }, t1)
        }))
        .ok();
        let t2 = Instant::now();
        let runs = timed.take_runs();
        let (outcome, t1) = match outcome {
            Some((sol, t1)) => (Some(sol), t1),
            None => (None, t2),
        };
        let solve = self.attempted;
        let mut engine_s = [0.0; Layer::ALL.len()];
        for r in &runs {
            engine_s[r.layer as usize] += r.busy_s();
        }
        let has_cds = workload == Workload::Thm14Udg;
        let traced = TracedSolve {
            solve_s: (t2 - t0).as_secs_f64(),
            central_s: (t1 - t0).as_secs_f64() - engine_s.iter().sum::<f64>(),
            cds_s: if has_cds {
                (t2 - t1).as_secs_f64()
            } else {
                0.0
            },
            engine_s,
        };
        self.settle(outcome.as_ref(), Some(&runs));
        let t3 = Instant::now();
        self.span(solve, "solve", None, t0, t2);
        self.span(solve, "core.pipeline", Some("solve"), t0, t1);
        for r in &runs {
            self.span(solve, r.layer.name(), Some("core.pipeline"), r.start, r.end);
        }
        if has_cds {
            self.span(solve, "cds", Some("solve"), t1, t2);
        }
        self.span(solve, "bench.verify", None, t2, t3);
        let sol = outcome?;
        if self.reference.is_none() {
            self.reference = Some((sol, runs));
        }
        Some(traced)
    }

    fn span(&mut self, solve: u64, name: &str, parent: Option<&str>, start: Instant, end: Instant) {
        let ns = |t: Instant| (t - self.origin).as_nanos();
        let parent = parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        let _ = writeln!(
            self.spans,
            "    {{\"solve\": {solve}, \"name\": \"{name}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}},",
            ns(start),
            ns(end)
        );
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    if k == 0 {
        f64::NAN
    } else if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let workload = args.workload;
    let mut setups = SetupTimes::default();
    let input = setups.time(workload, args.seed)?;
    let graph = &input.graph;
    let input_json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seed_used\": {}, \"attempts\": {}, \"n\": {}, \"m\": {}, \"max_degree\": {}}}",
        workload.name(),
        args.seed,
        input.seed_used,
        input.attempts,
        graph.n(),
        graph.m(),
        graph.max_degree()
    );
    eprintln!("perfbench: input {input_json}");
    let mut bench = Bench {
        workload,
        graph,
        seed_used: input.seed_used,
        origin,
        attempted: 0,
        failed: 0,
        reference: None,
        verify_s: Vec::new(),
        spans: String::new(),
    };

    // Warm-up: one traced solve fills caches, certifies the adapter's output
    // as the reference every later solve must equal, and yields the exact
    // engine counts.
    bench.traced();
    // The loop stops before an iteration that would end past the deadline,
    // so a run measures for at most `--seconds` (after `MIN_ITERATIONS`).
    let deadline = Instant::now() + args.seconds;
    let (mut plain_s, mut traced) = (Vec::new(), Vec::new());
    let (mut iterations, mut last) = (0, Duration::ZERO);
    while iterations < MIN_ITERATIONS || Instant::now() + last < deadline {
        let started = Instant::now();
        iterations += 1;
        plain_s.extend(bench.plain());
        // Set-up is timed between solves, so `setup_s` samples the host over
        // the same span as `solve_s`.
        setups.time(workload, args.seed)?;
        if args.trace {
            traced.extend(bench.traced());
        }
        last = started.elapsed();
    }
    let Some((reference, ref_runs)) = bench.reference.take() else {
        return Err("the warm-up solve panicked".to_owned());
    };
    if plain_s.is_empty() || (args.trace && traced.is_empty()) {
        return Err(format!("every timed solve of {} panicked", bench.attempted));
    }

    let solve_s = median(&plain_s);
    let engine = Totals::of(&ref_runs, &Layer::ALL);
    let mut m = Metrics::default();
    let mut layer_table = String::new();
    if !args.trace {
        m.real("solve_s", solve_s, "s");
        m.real(
            "node_rounds_per_s",
            engine.node_rounds as f64 / solve_s,
            "1/s",
        );
        m.real("setup_s", median(&setups.total_s), "s");
        m.real("peak_rss_mb", peak_rss_mb()?, "MB");
        m.count("rounds", reference.rounds());
        m.count("messages", reference.messages());
        m.real("approx_ratio", reference.approx_ratio(), "ratio");
        m.real("cds_overhead", reference.cds_overhead(), "ratio");
    } else {
        let med =
            |f: &dyn Fn(&TracedSolve) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let layer_s =
            |layers: &[Layer]| med(&|t| layers.iter().map(|&l| t.engine_s[l as usize]).sum());
        let engine_s = layer_s(&Layer::ALL);
        let central_s = med(&|t| t.central_s);
        let cds_s = med(&|t| t.cds_s);
        let traced_solve_s = med(&|t| t.solve_s);
        let mut self_total = central_s + cds_s;
        for l in Layer::ALL {
            self_total += layer_s(&[l]);
            let _ = write!(layer_table, "\"{}\": {}, ", l.name(), layer_s(&[l]));
        }
        let _ = write!(
            layer_table,
            "\"core.pipeline.central\": {central_s}, \"cds\": {cds_s}, \"solve\": {traced_solve_s}"
        );
        eprintln!("perfbench: layer self times (median s) {{{layer_table}}}");

        // Coloring (Theorem 1.2) and netdecomp (Theorem 1.1) never run in the
        // same solve; together they are the one decomposition layer every
        // workload has.
        let decomposition = [Layer::Coloring, Layer::NetDecomp];
        let mwu = Totals::of(&ref_runs, &[Layer::Mwu]);
        let derand = Totals::of(&ref_runs, &[Layer::Derand]);
        let dec = Totals::of(&ref_runs, &decomposition);
        let mwu_s = layer_s(&[Layer::Mwu]);
        let engine_share = med(&|t| t.engine_s.iter().sum::<f64>() / t.solve_s);
        m.real("congest.engine.busy_s", engine_s, "s");
        m.count("congest.engine.runs", engine.runs);
        m.count("congest.engine.node_rounds", engine.node_rounds);
        m.real(
            "congest.engine.ns_per_node_round",
            engine_s * 1e9 / engine.node_rounds as f64,
            "ns",
        );
        m.count("congest.engine.payloads", engine.payloads);
        m.real(
            "congest.engine.fanout",
            engine.messages as f64 / engine.payloads as f64,
            "ratio",
        );
        m.real("congest.engine.share", engine_share, "ratio");
        m.real("fractional.mwu.busy_s", mwu_s, "s");
        m.count("fractional.mwu.rounds", mwu.rounds);
        m.count("fractional.mwu.messages", mwu.messages);
        m.count("fractional.mwu.payloads", mwu.payloads);
        m.real(
            "fractional.mwu.ns_per_msg",
            mwu_s * 1e9 / mwu.messages as f64,
            "ns",
        );
        m.real("rounding.derand.busy_s", layer_s(&[Layer::Derand]), "s");
        m.count("rounding.derand.runs", derand.runs);
        m.count("rounding.derand.rounds", derand.rounds);
        m.count("rounding.derand.node_rounds", derand.node_rounds);
        m.count("rounding.derand.idle_rounds", derand.idle_rounds);
        m.real("rounding.derand.send_frac", derand.send_frac(), "ratio");
        m.real("decomposition.busy_s", layer_s(&decomposition), "s");
        m.count("decomposition.runs", dec.runs);
        m.count("decomposition.rounds", dec.rounds);
        m.count("decomposition.node_rounds", dec.node_rounds);
        m.count("decomposition.messages", dec.messages);
        m.real("decomposition.send_frac", dec.send_frac(), "ratio");
        m.real("core.pipeline.central_s", central_s, "s");
        m.real(
            "core.pipeline.share",
            med(&|t| t.central_s / t.solve_s),
            "ratio",
        );
        m.real("graphs.gen_s", median(&setups.gen_s), "s");
        m.real("congest.topology.warm_s", median(&setups.warm_s), "s");
        m.real("bench.verify_s", median(&bench.verify_s), "s");
        m.real("bench.trace_overhead", traced_solve_s / solve_s, "ratio");
        m.real("bench.residual_s", solve_s - self_total, "s");
    }
    let metrics = m.render()?;
    eprintln!(
        "perfbench: {} solves attempted, {} failed; solve_s median {solve_s} over {} untraced solves",
        bench.attempted,
        bench.failed,
        plain_s.len()
    );

    let record = format!(
        "{{\n  \"input\": {input_json},\n  \"trace\": {},\n  \"solve_s\": {},\n  \"traced_solve_s\": {},\n  \"setup_s\": {},\n  \"layer_self_s\": {{{layer_table}}},\n  \"spans\": [\n{}  ]\n}}\n",
        args.trace,
        list(&plain_s),
        list(&traced.iter().map(|t| t.solve_s).collect::<Vec<_>>()),
        list(&setups.total_s),
        bench.spans.trim_end().trim_end_matches(',').to_owned() + "\n",
    );
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed
    ))
}
