//! The `RoundAction::SleepUntil` wake contract, on every backend.
//!
//! * Edge cases of the engine's wake state — a message, or a neighbor's
//!   broadcast, wakes a sleeper in the round it is delivered, a timer wakes
//!   it in exactly its round, a sleep that ends next round is a `Continue`,
//!   a sleeper nothing wakes runs into the round limit, a panic in a woken
//!   round unwinds, and a woken node's error is the first error — on
//!   `SyncExecutor`, on `PooledExecutor` at `PARALLEL_THREADS` and on both
//!   ends of a loopback socket pair.
//! * Twin properties for the two programs that sleep: each runs as written
//!   and inside [`AlwaysAwake`], a wrapper that turns every `SleepUntil` into
//!   `Continue`. Everything the model charges must agree; only
//!   `RoundStats::active` may differ.
//! * The point of it all: on a Theorem 1.1 run, the derandomization schedule
//!   runs at most a tenth of its live node-rounds, while MWU, which never
//!   sleeps, runs all of them.

use congest_mds::congest::{
    ExecutionError, Executor, ExecutorConfig, Graph, Inbox, NodeContext, NodeId, NodeProgram,
    Outbox, PooledExecutor, RoundAction, RoundStats, RunReport, SyncExecutor,
};
use congest_mds::decomposition::coloring::{
    distance_two_coloring_programs, graph_distance_two_coloring, DistanceTwoColoringProgram,
};
use congest_mds::fractional::lp::{self, DistributedLpProgram};
use congest_mds::graphs::bipartite::BipartiteRepresentation;
use congest_mds::graphs::{analysis, generators};
use congest_mds::mds::pipeline::{problem_bipartite, theorem_1_1_on, MdsConfig};
use congest_mds::rounding::derandomize::{
    scheduled_derand_programs, DerandSchedule, ScheduledDerandProgram,
};
use congest_mds::rounding::one_shot::OneShotRounding;
use congest_mds::rounding::EstimatorKind;
use congest_mds::transport::{Role, SocketListener, SocketSession, TransportError};
use proptest::prelude::*;
use std::any::{type_name, Any};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

/// Worker-thread count: `PARALLEL_THREADS` when CI pins it, else `fallback`.
fn forced_threads(fallback: usize) -> usize {
    std::env::var("PARALLEL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(fallback)
        .max(1)
}

/// One backend's result, named.
type Outcome<O> = (&'static str, Result<RunReport<O>, ExecutionError>);

/// Runs `mk()` on both ends of a loopback socket session and returns the
/// `[leader, follower]` results; a wire-level failure fails the test.
fn socket_pair<P, F>(
    graph: &Graph,
    mk: &F,
    config: &ExecutorConfig,
) -> [Result<RunReport<P::Output>, ExecutionError>; 2]
where
    P: NodeProgram + Send,
    P::Output: Send,
    F: Fn() -> Vec<P> + Sync,
{
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let [leader, follower] = thread::scope(|s| {
        let follower = s.spawn(|| {
            let mut session = SocketSession::connect(addr, Duration::from_secs(30)).unwrap();
            session.set_timeout(Duration::from_secs(120));
            session.run_program(Role::Follower, graph, mk(), config)
        });
        let mut session = listener.accept().unwrap();
        session.set_timeout(Duration::from_secs(120));
        let leader = session.run_program(Role::Leader, graph, mk(), config);
        [leader, follower.join().expect("follower thread")]
    });
    [leader, follower].map(|result| match result {
        Ok(report) => Ok(report),
        Err(TransportError::Execution(e)) => Err(e),
        Err(e) => panic!("socket transport failure: {e}"),
    })
}

/// The run of `mk()` on every backend: sync, the pool at `PARALLEL_THREADS`
/// (default 3) and both ends of a socket pair.
fn on_every_backend<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> Vec<Outcome<P::Output>>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send,
    F: Fn() -> Vec<P> + Sync,
{
    let [leader, follower] = socket_pair(graph, &mk, config);
    vec![
        ("sync", SyncExecutor.run(graph, mk(), config)),
        (
            "pool",
            PooledExecutor::new(forced_threads(3)).run(graph, mk(), config),
        ),
        ("socket leader", leader),
        ("socket follower", follower),
    ]
}

/// Asserts every backend returned the sync result and returns it.
fn agree<O: PartialEq + std::fmt::Debug>(
    results: Vec<Outcome<O>>,
) -> Result<RunReport<O>, ExecutionError> {
    let mut results = results.into_iter();
    let (_, sync) = results.next().expect("sync runs first");
    for (backend, result) in results {
        assert_eq!(result, sync, "{backend} disagrees with sync");
    }
    sync
}

/// A scripted node: records the rounds its `round` ran in, sends one
/// message or broadcasts at a chosen round, and after every round returns
/// what `after` says (`None` = `Continue`) until it halts at `halt`.
#[derive(Clone)]
struct Scripted {
    send: Option<(u64, usize)>,
    broadcast: Option<u64>,
    after: fn(u64) -> Option<u64>,
    panic_at: Option<u64>,
    halt: u64,
    ran: Vec<u64>,
}

impl Scripted {
    fn new(halt: u64, after: fn(u64) -> Option<u64>) -> Self {
        Scripted {
            send: None,
            broadcast: None,
            after,
            panic_at: None,
            halt,
            ran: Vec::new(),
        }
    }
}

impl NodeProgram for Scripted {
    type Message = u64;
    type Output = Vec<u64>;

    fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, u64>) {}

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        _: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> RoundAction<Vec<u64>> {
        self.ran.push(ctx.round);
        if self.panic_at == Some(ctx.round) {
            panic!("node {} panicked in round {}", ctx.id.0, ctx.round);
        }
        if let Some((at, to)) = self.send {
            if at == ctx.round {
                outbox.send(NodeId(to), ctx.round);
            }
        }
        if self.broadcast == Some(ctx.round) {
            outbox.broadcast(ctx.round);
        }
        if ctx.round >= self.halt {
            return RoundAction::Halt(self.ran.clone());
        }
        match (self.after)(ctx.round) {
            Some(at) => RoundAction::SleepUntil(at),
            None => RoundAction::Continue,
        }
    }
}

fn active(report: &RunReport<Vec<u64>>) -> Vec<usize> {
    report.round_stats.iter().map(|s| s.active).collect()
}

#[test]
fn a_message_wakes_a_sleeper_in_the_round_it_is_delivered() {
    // Node 0 sleeps on messages only; node 1 sends to it in round 3, so the
    // message is delivered, and node 0 runs (and halts), in round 4.
    let g = generators::path(2);
    let mk = || {
        let sleeper = Scripted::new(4, |_| Some(u64::MAX));
        let mut sender = Scripted::new(5, |_| None);
        sender.send = Some((3, 0));
        vec![sleeper, sender]
    };
    let report = agree(on_every_backend(&g, mk, &ExecutorConfig::default())).unwrap();
    assert_eq!(report.outputs[0], vec![1, 4]);
    assert_eq!(report.outputs[1], vec![1, 2, 3, 4, 5]);
    assert_eq!(active(&report), vec![2, 2, 1, 1, 2, 1]);
}

#[test]
fn a_broadcast_wakes_the_sleeping_neighbors_in_the_round_it_is_delivered() {
    // Nodes 0 and 2 sleep on messages only, and nothing but node 1's lone
    // broadcast in round 3 reaches them: both run (and halt) in round 4.
    // On the socket, node 0 shares node 1's shard and node 2 is across the
    // split; node 3, a neighbor of node 2 only, keeps running throughout.
    let g = generators::path(4);
    let mk = || {
        let mut broadcaster = Scripted::new(5, |_| None);
        broadcaster.broadcast = Some(3);
        vec![
            Scripted::new(4, |_| Some(u64::MAX)),
            broadcaster,
            Scripted::new(4, |_| Some(u64::MAX)),
            Scripted::new(5, |_| None),
        ]
    };
    let report = agree(on_every_backend(&g, mk, &ExecutorConfig::default())).unwrap();
    assert_eq!(report.outputs[0], vec![1, 4]);
    assert_eq!(report.outputs[2], vec![1, 4]);
    assert_eq!(report.outputs[3], vec![1, 2, 3, 4, 5]);
    assert_eq!(active(&report), vec![4, 4, 2, 2, 4, 2]);
    assert_eq!((report.messages, report.payloads), (2, 1));
}

#[test]
fn a_timer_wakes_a_sleeper_in_exactly_its_round() {
    let g = generators::path(3);
    let mk = || {
        vec![
            Scripted::new(7, |_| Some(7)),
            Scripted::new(2, |_| None),
            Scripted::new(9, |r| Some(r + 4)),
        ]
    };
    let report = agree(on_every_backend(&g, mk, &ExecutorConfig::default())).unwrap();
    assert_eq!(report.outputs[0], vec![1, 7]);
    assert_eq!(report.outputs[2], vec![1, 5, 9]);
    assert_eq!(report.rounds, 9);
    assert_eq!(active(&report), vec![3, 3, 1, 0, 0, 1, 0, 1, 0, 1]);
}

#[test]
fn a_sleep_that_ends_by_next_round_is_a_continue() {
    let g = generators::cycle(7);
    let run = |after: fn(u64) -> Option<u64>| {
        let mk = move || {
            (0..7)
                .map(|v| Scripted::new(3 + v % 3, after))
                .collect::<Vec<_>>()
        };
        agree(on_every_backend(&g, mk, &ExecutorConfig::default())).unwrap()
    };
    let awake = run(|_| None);
    assert_eq!(run(|r| Some(r + 1)), awake);
    assert_eq!(run(Some), awake);
    assert_eq!(run(|_| Some(0)), awake);
}

#[test]
fn a_sleeper_nothing_wakes_runs_into_the_round_limit() {
    let g = generators::path(4);
    for max_rounds in [3u64, 40] {
        let config = ExecutorConfig {
            max_rounds,
            ..ExecutorConfig::default()
        };
        let mk = || {
            let mut programs = vec![Scripted::new(2, |_| None); 4];
            programs[2] = Scripted::new(u64::MAX, |_| Some(u64::MAX));
            programs
        };
        let err = agree(on_every_backend(&g, mk, &config)).unwrap_err();
        assert_eq!(
            err,
            ExecutionError::RoundLimitExceeded { limit: max_rounds }
        );
    }
}

#[test]
fn a_woken_nodes_error_is_the_first_error_on_every_backend() {
    // Nodes 2 and 9 sleep until round 4 (one per socket shard), then both
    // send to a non-neighbor; node 5 is woken by a message in round 4 and
    // misbehaves too. Node 2 is first in node order everywhere.
    let g = generators::path(12);
    let mk = || {
        let mut programs = vec![Scripted::new(6, |_| None); 12];
        for v in [2usize, 5, 9] {
            programs[v] = Scripted::new(6, |r| (r < 4).then_some(4));
            programs[v].send = Some((4, v + 2));
        }
        programs[5].after = |r| (r < 4).then_some(u64::MAX);
        programs[4].send = Some((3, 5));
        programs
    };
    let err = agree(on_every_backend(&g, mk, &ExecutorConfig::default())).unwrap_err();
    assert_eq!(
        err,
        ExecutionError::NotANeighbor {
            from: NodeId(2),
            to: NodeId(4),
        }
    );
}

#[test]
fn a_panic_in_a_woken_round_unwinds_to_the_caller_on_the_pool() {
    let g = generators::path(12);
    for (node, round) in [(0usize, 5u64), (7, 5), (11, 6)] {
        let mk = move || {
            let mut programs = vec![Scripted::new(8, |_| None); 12];
            programs[node] = Scripted::new(8, |r| (r < 5).then_some(5));
            programs[node].panic_at = Some(round);
            programs
        };
        let message = |panic: Box<dyn Any + Send>| *panic.downcast::<String>().unwrap();
        let expected = Err(format!("node {node} panicked in round {round}"));
        let seq = catch_unwind(AssertUnwindSafe(|| {
            SyncExecutor.run(&g, mk(), &ExecutorConfig::default())
        }))
        .map(|_| ())
        .map_err(message);
        assert_eq!(seq, expected);
        for threads in [forced_threads(2).max(2), 3] {
            // A watchdog turns a hung pool into a test failure.
            let (tx, rx) = std::sync::mpsc::channel();
            let g = g.clone();
            thread::spawn(move || {
                let pooled = catch_unwind(AssertUnwindSafe(|| {
                    PooledExecutor::new(threads).run(&g, mk(), &ExecutorConfig::default())
                }));
                tx.send(pooled.map(|_| ()).map_err(message)).unwrap();
            });
            let pooled = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("pool hung: node={node} threads={threads}"));
            assert_eq!(pooled, expected, "node={node} threads={threads}");
        }
    }
}

/// Runs the wrapped program but never sleeps: every
/// [`RoundAction::SleepUntil`] becomes [`RoundAction::Continue`].
struct AlwaysAwake<P>(P);

impl<P: NodeProgram> NodeProgram for AlwaysAwake<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, P::Message>) {
        self.0.init(ctx, outbox);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, P::Message>,
        outbox: &mut Outbox<'_, P::Message>,
    ) -> RoundAction<P::Output> {
        match self.0.round(ctx, inbox, outbox) {
            RoundAction::SleepUntil(_) => RoundAction::Continue,
            action => action,
        }
    }
}

/// Asserts a sleeping run and its always-awake twin agree on everything the
/// model charges, round by round; only who ran may differ, and the twin ran
/// every live node.
fn assert_twins<O: PartialEq + std::fmt::Debug>(
    n: usize,
    sleeping: &RunReport<O>,
    awake: &RunReport<O>,
) {
    assert_eq!(sleeping.outputs, awake.outputs);
    assert_eq!(sleeping.rounds, awake.rounds);
    assert_eq!(sleeping.messages, awake.messages);
    assert_eq!(sleeping.payloads, awake.payloads);
    assert_eq!(sleeping.total_bits, awake.total_bits);
    let charged = |s: &RoundStats| (s.round, s.messages, s.bits, s.halted);
    assert_eq!(
        sleeping.round_stats.iter().map(charged).collect::<Vec<_>>(),
        awake.round_stats.iter().map(charged).collect::<Vec<_>>()
    );
    assert_eq!(live_node_rounds(n, awake), active_node_rounds(awake));
    assert!(active_node_rounds(sleeping) <= active_node_rounds(awake));
}

/// Runs `mk()` as written and inside [`AlwaysAwake`] on every backend and
/// checks the twins.
fn check_twins_on_every_backend<P, F>(graph: &Graph, mk: F)
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P> + Sync,
{
    let config = ExecutorConfig::default();
    let sleeping = agree(on_every_backend(graph, &mk, &config)).unwrap();
    let wrapped = || mk().into_iter().map(AlwaysAwake).collect::<Vec<_>>();
    let awake = agree(on_every_backend(graph, wrapped, &config)).unwrap();
    assert_twins(graph.n(), &sleeping, &awake);
}

/// Graph families with room for idle rounds: paths, cycles, grids, random
/// and unit-disk graphs, and very sparse random graphs whose isolated nodes
/// hear no message all run long and must wake on their timers alone.
fn twin_graph_strategy() -> impl Strategy<Value = Graph> {
    (0usize..6, 2usize..40, 0u64..1000).prop_map(|(family, n, seed)| match family {
        0 => generators::path(n),
        1 => generators::cycle(n.max(3)),
        2 => generators::grid(1 + n / 6, 1 + n % 6),
        3 => generators::gnp(n, 0.12, seed),
        4 => generators::gnp(n, 1.0 / n as f64, seed),
        _ => generators::unit_disk(n, 0.35, seed),
    })
}

/// The derandomization schedule of a one-shot rounding problem: one coin per
/// step in a seed-rotated order (the Lemma 3.4 route) or the distance-two
/// color classes as parallel steps (the coloring route). Dropping every
/// `thin`-th owner's constraint leaves deciders that no owner replies to, so
/// only their decide timer wakes them.
fn derand_programs(
    graph: &Graph,
    parallel: bool,
    rotate: usize,
    thin: usize,
) -> Vec<ScheduledDerandProgram> {
    let x = lp::degree_heuristic(graph);
    let mut problem = OneShotRounding::on_graph(graph, &x).into_problem();
    if thin > 0 {
        problem.constraints.retain(|c| c.original % (thin + 1) != 0);
    }
    let schedule = if parallel {
        let colors = graph_distance_two_coloring(graph);
        let classes = colors.iter().max().map_or(0, |&c| c + 1);
        let groups: Vec<Vec<usize>> = (0..classes)
            .map(|c| (0..graph.n()).filter(|&v| colors[v] == c).collect())
            .collect();
        DerandSchedule::parallel_groups(&groups, &problem)
    } else {
        let mut order = problem.participating_values();
        if !order.is_empty() {
            let k = rotate % order.len();
            order.rotate_left(k);
        }
        DerandSchedule::sequential_groups(&[order], &problem)
    };
    scheduled_derand_programs(graph, &problem, &schedule, EstimatorKind::default()).unwrap()
}

/// The distance-two coloring of the graph's bipartite representation with
/// every node or a seed-picked subset as targets (`split == 0`), or of a
/// degree-reduced rounding problem, where an owner hosts several constraint
/// nodes — the shape the Theorem 1.2 route colors.
fn coloring_programs(
    graph: &Graph,
    selector: u64,
    split: usize,
) -> Vec<DistanceTwoColoringProgram> {
    if split > 0 {
        let x = lp::degree_heuristic(graph);
        let problem = OneShotRounding::degree_reduced(graph, &x, split + 1).into_problem();
        let (b, owners, targets) = problem_bipartite(&problem);
        return distance_two_coloring_programs(graph, &b, &owners, &targets)
            .unwrap()
            .0;
    }
    let rep = BipartiteRepresentation::from_graph(graph);
    let owners: Vec<usize> = (0..graph.n()).collect();
    let targets: Vec<usize> = (0..graph.n())
        .filter(|&v| selector == 0 || !(v as u64 + selector).is_multiple_of(3))
        .collect();
    distance_two_coloring_programs(graph, rep.graph(), &owners, &targets)
        .unwrap()
        .0
}

proptest! {
    // Every case opens two loopback socket sessions per twin.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn derand_schedule_twins_agree_on_every_backend(
        graph in twin_graph_strategy(),
        parallel in 0u8..2,
        rotate in 0usize..50,
        thin in 0usize..3,
    ) {
        check_twins_on_every_backend(&graph, || {
            derand_programs(&graph, parallel == 1, rotate, thin)
        });
    }

    #[test]
    fn distance_two_coloring_twins_agree_on_every_backend(
        graph in twin_graph_strategy(),
        selector in 0u64..3,
        split in 0usize..4,
    ) {
        check_twins_on_every_backend(&graph, || coloring_programs(&graph, selector, split));
    }
}

/// Σ over rounds of the nodes live when the round began (`init` included).
fn live_node_rounds<O>(n: usize, report: &RunReport<O>) -> usize {
    n + report
        .round_stats
        .windows(2)
        .map(|w| n - w[0].halted)
        .sum::<usize>()
}

/// Σ over rounds of the nodes that ran.
fn active_node_rounds<O>(report: &RunReport<O>) -> usize {
    report.round_stats.iter().map(|s| s.active).sum()
}

/// Wraps `SyncExecutor` and records, per run, the program type and the
/// live and active node-rounds.
#[derive(Default)]
struct Recorder {
    runs: RefCell<Vec<(&'static str, usize, usize)>>,
}

impl Executor for Recorder {
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
        let report = SyncExecutor.run(graph, programs, config)?;
        self.runs.borrow_mut().push((
            type_name::<P>(),
            live_node_rounds(graph.n(), &report),
            active_node_rounds(&report),
        ));
        Ok(report)
    }
}

#[test]
fn theorem_1_1_derand_runs_a_tenth_of_its_node_rounds_and_mwu_all() {
    let graph = (0..)
        .map(|seed| generators::unit_disk(300, 0.12, seed))
        .find(analysis::is_connected)
        .unwrap();
    let recorder = Recorder::default();
    let result = theorem_1_1_on(&graph, &MdsConfig::default(), &recorder);
    assert!(congest_mds::mds::verify::is_dominating_set(
        &graph,
        &result.dominating_set
    ));
    let totals = |name: &str| {
        let runs = recorder.runs.borrow();
        let of = runs.iter().filter(|(p, _, _)| *p == name);
        of.fold((0, 0, 0), |(k, live, act), &(_, l, a)| {
            (k + 1, live + l, act + a)
        })
    };
    let (runs, live, active) = totals(type_name::<ScheduledDerandProgram>());
    assert!(runs > 0, "the derandomization schedule ran on the engine");
    assert!(
        active * 10 <= live,
        "derand ran {active} of {live} live node-rounds"
    );
    let (runs, live, active) = totals(type_name::<DistributedLpProgram>());
    assert!(runs > 0, "MWU ran on the engine");
    assert_eq!(active, live, "MWU never sleeps");
}
