//! The bench-side timing adapter: an [`Executor`] that wraps the real one,
//! times every [`Executor::run`] call and attributes it to a layer by the
//! node-program type it runs.

use std::any::type_name;
use std::cell::RefCell;
use std::time::Instant;

use congest_sim::{ExecutionError, Executor, ExecutorConfig, Graph, NodeProgram, RunReport};
use mds_decomposition::coloring::DistanceTwoColoringProgram;
use mds_decomposition::netdecomp::NetDecompProgram;
use mds_fractional::lp::DistributedLpProgram;
use mds_rounding::derandomize::ScheduledDerandProgram;

/// The layer an engine run belongs to, decided by the node-program type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Part I covering LP (`DistributedLpProgram`).
    Mwu,
    /// GK18 network decomposition (`NetDecompProgram`).
    NetDecomp,
    /// Lemma 3.12 distance-two coloring (`DistanceTwoColoringProgram`).
    Coloring,
    /// Conditional-expectation schedule (`ScheduledDerandProgram`).
    Derand,
    /// Any other node program.
    Other,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Mwu,
        Layer::NetDecomp,
        Layer::Coloring,
        Layer::Derand,
        Layer::Other,
    ];

    /// The layer of node-program type `P`.
    ///
    /// `Executor::run` puts no `'static` bound on `P`, so `TypeId` is out of
    /// reach; the full type paths are compared for equality instead.
    pub fn of<P>() -> Layer {
        let name = type_name::<P>();
        if name == type_name::<DistributedLpProgram>() {
            Layer::Mwu
        } else if name == type_name::<NetDecompProgram>() {
            Layer::NetDecomp
        } else if name == type_name::<DistanceTwoColoringProgram>() {
            Layer::Coloring
        } else if name == type_name::<ScheduledDerandProgram>() {
            Layer::Derand
        } else {
            Layer::Other
        }
    }

    /// The layer's name in traces (the repository module it lives in).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mwu => "fractional.mwu",
            Layer::NetDecomp => "decomposition.netdecomp",
            Layer::Coloring => "decomposition.coloring",
            Layer::Derand => "rounding.derand",
            Layer::Other => "congest.other",
        }
    }
}

/// Simulated counts of engine runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// `Executor::run` calls.
    pub runs: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// CONGEST messages charged.
    pub messages: u64,
    /// Payloads stored (one per broadcast, one per explicit send).
    pub payloads: u64,
    /// Live node-rounds: Σ over rounds of the nodes not yet halted when the
    /// round began.
    pub node_rounds: u64,
    /// Rounds in which no message was sent.
    pub idle_rounds: u64,
}

impl Totals {
    /// Totals over the runs in `runs` whose layer is one of `layers`.
    pub fn of(runs: &[EngineRun], layers: &[Layer]) -> Totals {
        let mut t = Totals::default();
        for c in runs
            .iter()
            .filter(|r| layers.contains(&r.layer))
            .map(|r| r.counts)
        {
            t.runs += c.runs;
            t.rounds += c.rounds;
            t.messages += c.messages;
            t.payloads += c.payloads;
            t.node_rounds += c.node_rounds;
            t.idle_rounds += c.idle_rounds;
        }
        t
    }

    /// Payloads per live node-round: useful sends per node activation.
    pub fn send_frac(&self) -> f64 {
        self.payloads as f64 / self.node_rounds as f64
    }
}

/// Host time and simulated counts of one `Executor::run` call.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// Layer of the node program that ran.
    pub layer: Layer,
    /// Host instant the call started.
    pub start: Instant,
    /// Host instant the call returned.
    pub end: Instant,
    /// The run's counts (`runs == 1`).
    pub counts: Totals,
}

impl EngineRun {
    /// Host seconds spent inside the call.
    pub fn busy_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Wraps `inner` and records an [`EngineRun`] for every successful run.
/// Programs, configuration and report pass through untouched.
#[derive(Debug)]
pub struct TimedExecutor<'a, E> {
    inner: &'a E,
    runs: RefCell<Vec<EngineRun>>,
}

impl<'a, E: Executor> TimedExecutor<'a, E> {
    /// An adapter around `inner` with no runs recorded.
    pub fn new(inner: &'a E) -> Self {
        TimedExecutor {
            inner,
            runs: RefCell::new(Vec::new()),
        }
    }

    /// Returns the runs recorded so far and clears the record.
    pub fn take_runs(&self) -> Vec<EngineRun> {
        self.runs.take()
    }
}

impl<E: Executor> Executor for TimedExecutor<'_, E> {
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        let start = Instant::now();
        let report = self.inner.run(graph, programs, config)?;
        let end = Instant::now();
        let n = graph.n() as u64;
        // `round_stats[0]` covers `init`; round `r` runs the nodes still live
        // after round `r - 1`.
        let node_rounds = report
            .round_stats
            .windows(2)
            .map(|w| n - w[0].halted as u64)
            .sum();
        let idle_rounds = report
            .round_stats
            .iter()
            .skip(1)
            .filter(|s| s.messages == 0)
            .count() as u64;
        self.runs.borrow_mut().push(EngineRun {
            layer: Layer::of::<P>(),
            start,
            end,
            counts: Totals {
                runs: 1,
                rounds: report.rounds,
                messages: report.messages,
                payloads: report.payloads,
                node_rounds,
                idle_rounds,
            },
        });
        Ok(report)
    }
}
