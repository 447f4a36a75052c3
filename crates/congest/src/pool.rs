//! The persistent worker-pool executor: node programs run in parallel on
//! workers spawned once per run; everything else is the sequential engine.
//!
//! # Why a pool
//!
//! A measured pipeline runs thousands of short engine rounds (the Theorem 1.2
//! pipeline runs ~1.3k at `n = 10⁵`), so spawning threads per round would
//! dominate any parallel speedup. [`PooledExecutor`] spawns its workers once
//! per [`Executor::run`] and keeps them in lockstep with one reusable
//! [`Barrier`].
//!
//! # Round protocol
//!
//! The nodes are cut into contiguous blocks, one per worker; worker 0 is the
//! calling thread. One round proceeds as:
//!
//! 1. **barrier (start)** — every worker enters the round.
//! 2. **execute** — each worker builds its block's active list in the
//!    block's own `WakeState` and runs `init` (round `0`) or `round` for
//!    those nodes through the engine's `execute_block`, reading inboxes from
//!    the shared arena and staging sends into its block's own outbox tables.
//! 3. **barrier (done)** — every block has executed.
//! 4. **commit** — the calling thread drains the blocks' active outboxes in
//!    block order through the engine's `commit_round`, advances the arena and runs
//!    the shared loop control (halt count, round limit, per-round
//!    [`RoundStats`](crate::engine::RoundStats)).
//!
//! The arena sits in an [`RwLock`] (read by all workers during execute,
//! written by the caller during commit) and each block's outbox tables in
//! their own [`Mutex`]; the barriers keep those phases apart, so no lock is
//! ever contended and the module needs no `unsafe`.
//!
//! # Why the report is bit-identical to [`SyncExecutor`]
//!
//! Execute only touches the block's own programs and outbox tables and reads
//! last round's arena, so its result does not depend on how nodes are cut
//! into blocks or scheduled. Commit, delivery and loop control are the
//! sequential engine's own code, run on one thread in node order: the
//! accounting, the "last message wins" delivery and the first error are
//! those of [`SyncExecutor`] by construction.
//!
//! A node program that panics on any worker is caught there; the caller
//! releases every worker and then resumes the panic of the lowest panicking
//! block — the first in node order — so it unwinds to the caller just as it
//! does on [`SyncExecutor`].
//!
//! [`SyncExecutor`]: crate::engine::SyncExecutor

use crate::engine::{
    arena_sink, commit_round, execute_block, run_engine, ArenaDelivery, Executed, ExecutionError,
    Executor, ExecutorConfig, RoundLoop, RunReport, WakeState,
};
use crate::program::{NodeProgram, Pending};
use crate::{Graph, NodeId};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::thread;

/// The persistent worker-pool executor. See the [module docs](self) for the
/// protocol and why it cannot change a report.
///
/// Like every [`Executor`], it produces [`RunReport`]s bit-identical to
/// [`SyncExecutor`](crate::engine::SyncExecutor) for any thread count — the
/// choice is purely wall-clock.
#[derive(Debug, Clone)]
pub struct PooledExecutor {
    threads: usize,
    min_chunk: usize,
}

impl PooledExecutor {
    /// Minimum nodes per worker under the adaptive policy
    /// ([`PooledExecutor::auto`]): below this, barrier latency beats the
    /// per-round work a block of typical programs performs.
    pub const DEFAULT_MIN_CHUNK: usize = 2048;

    /// Creates an executor using exactly `threads` workers (at least one),
    /// regardless of graph size. With one worker (or a graph smaller than
    /// two nodes) the run degenerates to the sequential engine — same
    /// report, no pool.
    pub fn new(threads: usize) -> Self {
        PooledExecutor {
            threads: threads.max(1),
            min_chunk: 1,
        }
    }

    /// Creates an executor using the available hardware parallelism with
    /// adaptive chunking: a worker is only spawned for every full
    /// [`PooledExecutor::DEFAULT_MIN_CHUNK`] nodes, so small graphs run
    /// sequentially and large graphs use the full width.
    pub fn auto() -> Self {
        PooledExecutor {
            threads: thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1),
            min_chunk: Self::DEFAULT_MIN_CHUNK,
        }
    }

    /// The configured number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for PooledExecutor {
    /// [`PooledExecutor::auto`]: hardware parallelism, adaptive chunking.
    fn default() -> Self {
        PooledExecutor::auto()
    }
}

impl Executor for PooledExecutor {
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
        // Adaptive fan-out: one worker per `min_chunk` nodes, capped at the
        // configured width. Purely a wall-clock decision — block boundaries
        // never influence outputs or accounting. A width of one means the
        // pool cannot pay for itself — run sequentially.
        let width = (graph.n() / self.min_chunk).clamp(1, self.threads);
        if width <= 1 {
            return run_engine(graph, programs, config);
        }
        run_pooled(graph, programs, config, width)
    }
}

/// What one block's execute hands to the commit: the block's wake state
/// (whose active list the commit walks), its nodes' staged outboxes, how
/// many of them ran and halted, and the panic of a node program, if one
/// panicked.
struct Staged<M> {
    wake: WakeState,
    pending: Vec<Pending<M>>,
    invalid: Vec<Option<NodeId>>,
    executed: Executed,
    panic: Option<Box<dyn Any + Send>>,
}

/// One worker's contiguous node block: its slices of the node-indexed tables
/// and its [`Staged`] cell.
struct Block<'a, P: NodeProgram> {
    programs: &'a mut [P],
    outputs: &'a mut [Option<P::Output>],
    staged: &'a Mutex<Staged<P::Message>>,
}

impl<P: NodeProgram> Block<'_, P> {
    /// Executes `round` for the block against the delivered arena, catching a
    /// panicking node program into the block's [`Staged`] cell.
    fn execute(&mut self, graph: &Graph, round: u64, arena: &RwLock<ArenaDelivery<P::Message>>) {
        let arena = arena.read().expect("arena lock");
        let mut staged = self.staged.lock().expect("staged lock");
        let staged = &mut *staged;
        let executed = catch_unwind(AssertUnwindSafe(|| {
            execute_block(
                graph,
                round,
                &arena,
                self.programs,
                &mut staged.wake,
                self.outputs,
                &mut staged.pending,
                &mut staged.invalid,
            )
        }));
        match executed {
            Ok(executed) => staged.executed = executed,
            Err(panic) => staged.panic = Some(panic),
        }
    }
}

/// Runs `programs` on the pool with `width` worker blocks (`width >= 2`,
/// `graph.n() >= width`). See the module docs for the protocol.
fn run_pooled<P>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
    width: usize,
) -> Result<RunReport<P::Output>, ExecutionError>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send,
{
    let mut rounds = RoundLoop::new(graph, programs.len(), config)?;
    let (n, bandwidth) = (graph.n(), rounds.bandwidth());
    let chunk = n.div_ceil(width);
    let mut outputs: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(n).collect();
    // One cell per block; `width <= n` leaves at least two non-empty blocks.
    let staged: Vec<Mutex<Staged<P::Message>>> = (0..n)
        .step_by(chunk)
        .map(|first| {
            let len = chunk.min(n - first);
            Mutex::new(Staged {
                wake: WakeState::new(graph, first..first + len),
                pending: std::iter::repeat_with(Pending::new).take(len).collect(),
                invalid: vec![None; len],
                executed: Executed::default(),
                panic: None,
            })
        })
        .collect();
    let arena = RwLock::new(ArenaDelivery::new(graph));
    let barrier = Barrier::new(staged.len());
    // Set once by the caller before its last start-barrier wait (`Release`);
    // workers read it after that barrier (`Acquire`) and exit.
    let done = AtomicBool::new(false);

    let outcome = thread::scope(|s| {
        let mut blocks = programs
            .chunks_mut(chunk)
            .zip(outputs.chunks_mut(chunk))
            .zip(&staged)
            .map(|((programs, outputs), staged)| Block {
                programs,
                outputs,
                staged,
            });
        let mut own = blocks.next().expect("width >= 2");
        let (arena, barrier, done) = (&arena, &barrier, &done);
        for mut block in blocks {
            s.spawn(move || {
                for round in 0.. {
                    barrier.wait(); // start
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    block.execute(graph, round, arena);
                    barrier.wait(); // done
                }
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rounds.run(|round, acct| -> Result<Executed, ExecutionError> {
                barrier.wait(); // start
                own.execute(graph, round, arena);
                barrier.wait(); // done

                // A panic beats any commit error: sequential execution would
                // have unwound before committing.
                let mut executed = Executed::default();
                for cell in &staged {
                    let mut cell = cell.lock().expect("staged lock");
                    if let Some(panic) = cell.panic.take() {
                        resume_unwind(panic);
                    }
                    executed = executed + cell.executed;
                }
                let mut arena = arena.write().expect("arena lock");
                for cell in &staged {
                    let cell = &mut *cell.lock().expect("staged lock");
                    commit_round(
                        graph,
                        &cell.wake,
                        &mut cell.pending,
                        &cell.invalid,
                        acct,
                        bandwidth,
                        config.enforce_bandwidth,
                        arena_sink(&mut arena),
                    )?;
                }
                arena.advance();
                Ok(executed)
            })
        }));
        // Whether the run completed, failed or unwound, every worker waits
        // at the start barrier: release them into their exit.
        done.store(true, Ordering::Release);
        barrier.wait();
        outcome
    });
    outcome.unwrap_or_else(|panic| resume_unwind(panic))?;
    Ok(rounds.report(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncExecutor;
    use crate::program::{Inbox, NodeContext, Outbox, RoundAction};

    /// Every node floods its identifier and outputs the smallest it heard,
    /// with staggered halting so blocks mix live and halted nodes.
    struct MinId {
        best: usize,
        rounds: u64,
    }

    impl NodeProgram for MinId {
        type Message = NodeId;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, NodeId>) {
            self.best = ctx.id.0;
            outbox.broadcast(NodeId(self.best));
        }

        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, NodeId>,
            outbox: &mut Outbox<'_, NodeId>,
        ) -> RoundAction<usize> {
            for (_, m) in inbox.iter() {
                self.best = self.best.min(m.0);
            }
            if ctx.round >= self.rounds + (ctx.id.0 % 3) as u64 {
                RoundAction::Halt(self.best)
            } else {
                outbox.broadcast(NodeId(self.best));
                RoundAction::Continue
            }
        }
    }

    fn min_id_programs(n: usize, rounds: u64) -> Vec<MinId> {
        (0..n)
            .map(|_| MinId {
                best: usize::MAX,
                rounds,
            })
            .collect()
    }

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    const THREADS: [usize; 6] = [1, 2, 3, 5, 16, 64];

    #[test]
    fn pooled_matches_sequential_bit_for_bit() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    /// Sends to a non-neighbor at a configurable node and round.
    struct BadSender {
        bad_node: usize,
        bad_round: u64,
    }
    impl NodeProgram for BadSender {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.id.0 == self.bad_node && self.bad_round == 0 {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            }
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            outbox: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            if ctx.id.0 == self.bad_node && self.bad_round == ctx.round {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            }
            if ctx.round >= 3 {
                RoundAction::Halt(())
            } else {
                RoundAction::Continue
            }
        }
    }

    #[test]
    fn first_error_matches_sequential_from_any_block() {
        let g = path_graph(12);
        // The offending node sits in the first, a middle, and the last block.
        for bad_node in [0usize, 5, 9] {
            for bad_round in [0u64, 2] {
                let mk = || {
                    (0..12)
                        .map(|_| BadSender {
                            bad_node,
                            bad_round,
                        })
                        .collect::<Vec<_>>()
                };
                let seq = SyncExecutor
                    .run(&g, mk(), &ExecutorConfig::default())
                    .unwrap_err();
                assert_eq!(
                    seq,
                    ExecutionError::NotANeighbor {
                        from: NodeId(bad_node),
                        to: NodeId(bad_node + 2),
                    }
                );
                for threads in THREADS {
                    let pooled = PooledExecutor::new(threads)
                        .run(&g, mk(), &ExecutorConfig::default())
                        .unwrap_err();
                    assert_eq!(seq, pooled, "bad_node={bad_node} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn two_offenders_resolve_in_node_order() {
        // Nodes 2 and 9 both misbehave in the same round; every executor
        // must report node 2 — the first in node order — even when node 9's
        // block is executed by a different worker.
        let g = path_graph(12);
        let mk = || {
            (0..12)
                .map(|id| BadSender {
                    bad_node: if id == 2 || id == 9 { id } else { usize::MAX },
                    bad_round: 1,
                })
                .collect::<Vec<_>>()
        };
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap_err();
        assert_eq!(
            seq,
            ExecutionError::NotANeighbor {
                from: NodeId(2),
                to: NodeId(4),
            }
        );
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    struct NeverHalts;
    impl NodeProgram for NeverHalts {
        type Message = ();
        type Output = ();
        fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ()>) {}
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, ()>,
            _: &mut Outbox<'_, ()>,
        ) -> RoundAction<()> {
            RoundAction::Continue
        }
    }

    #[test]
    fn round_limit_matches_sequential() {
        let g = path_graph(6);
        let config = ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        };
        let mk = || (0..6).map(|_| NeverHalts).collect::<Vec<_>>();
        let seq = SyncExecutor.run(&g, mk(), &config).unwrap_err();
        assert_eq!(seq, ExecutionError::RoundLimitExceeded { limit: 10 });
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &config)
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
            // Only odd nodes violate, so violation *counts* (not just the
            // first error) must line up across executors.
            if ctx.id.0 % 2 == 1 {
                outbox.broadcast(vec![0u64; 64]);
            } else {
                outbox.broadcast(vec![0u64; 1]);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, Vec<u64>>,
            _: &mut Outbox<'_, Vec<u64>>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn bandwidth_counting_and_enforcement_match_sequential() {
        let g = path_graph(8);
        let mk = || (0..8).map(|_| FatMessage).collect::<Vec<_>>();
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        assert!(seq.bandwidth_violations > 0);
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, pooled, "threads={threads}");
        }
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::strict_congest())
            .unwrap_err();
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::strict_congest())
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    /// Duplicate sends in one round: last message wins, both charged.
    struct DoubleSender {
        heard: Option<u32>,
    }
    impl NodeProgram for DoubleSender {
        type Message = u32;
        type Output = Option<u32>;
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
            if ctx.id.0 == 0 {
                outbox.send(NodeId(1), 7);
                outbox.send(NodeId(1), 9);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            inbox: &Inbox<'_, u32>,
            _: &mut Outbox<'_, u32>,
        ) -> RoundAction<Option<u32>> {
            if let Some(&m) = inbox.from(NodeId(0)) {
                self.heard = Some(m);
            }
            RoundAction::Halt(self.heard)
        }
    }

    #[test]
    fn duplicate_sends_keep_the_last_message() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| DoubleSender { heard: None }).collect();
        let report = PooledExecutor::new(2)
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.outputs[1], Some(9));
        assert_eq!(report.messages, 2, "both sends are charged");
    }

    /// Panics at one node and round (`0` = `init`).
    struct Panicker {
        node: usize,
        round: u64,
    }
    impl Panicker {
        fn check(&self, ctx: &NodeContext<'_>) {
            if ctx.id.0 == self.node && ctx.round == self.round {
                panic!("node {} panicked in round {}", self.node, self.round);
            }
        }
    }
    impl NodeProgram for Panicker {
        type Message = u8;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u8>) {
            self.check(ctx);
            outbox.broadcast(0);
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            _: &Inbox<'_, u8>,
            outbox: &mut Outbox<'_, u8>,
        ) -> RoundAction<()> {
            self.check(ctx);
            if ctx.round >= 4 {
                RoundAction::Halt(())
            } else {
                outbox.broadcast(0);
                RoundAction::Continue
            }
        }
    }

    #[test]
    fn node_program_panic_unwinds_to_the_caller() {
        let g = path_graph(12);
        for (node, round) in [(0usize, 2u64), (5, 0), (11, 3)] {
            let mk = move || {
                (0..12)
                    .map(|_| Panicker { node, round })
                    .collect::<Vec<_>>()
            };
            let message = |panic: Box<dyn Any + Send>| *panic.downcast::<String>().unwrap();
            let seq = catch_unwind(AssertUnwindSafe(|| {
                SyncExecutor.run(&g, mk(), &ExecutorConfig::default())
            }))
            .map(|_| ())
            .map_err(message);
            let expected = format!("node {node} panicked in round {round}");
            assert_eq!(seq, Err(expected.clone()));
            for threads in [2usize, 3] {
                // A watchdog thread turns a hung pool into a test failure.
                let (tx, rx) = std::sync::mpsc::channel();
                let g = g.clone();
                thread::spawn(move || {
                    let pooled = catch_unwind(AssertUnwindSafe(|| {
                        PooledExecutor::new(threads).run(&g, mk(), &ExecutorConfig::default())
                    }));
                    tx.send(pooled.map(|_| ()).map_err(message)).unwrap();
                });
                let pooled = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("pool hung: node={node} threads={threads}"));
                assert_eq!(pooled, seq, "node={node} threads={threads}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_fall_back_to_the_sequential_path() {
        let g = Graph::empty(0);
        let report = PooledExecutor::new(8)
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.rounds, 0);
        assert!(report.outputs.is_empty());

        let g = path_graph(3);
        let err = PooledExecutor::new(8)
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
    }

    #[test]
    fn topology_cache_is_shared_across_runs_and_executors() {
        let g = path_graph(11);
        assert!(!g.topology_cached());
        let cold = SyncExecutor
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert!(g.topology_cached(), "first run builds the cache");
        let warm = SyncExecutor
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(cold, warm, "cache reuse changes no reported number");
        let pooled = PooledExecutor::new(3)
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(cold, pooled);
    }

    #[test]
    fn auto_and_builders_expose_their_configuration() {
        assert_eq!(PooledExecutor::new(0).threads(), 1);
        assert_eq!(PooledExecutor::new(3).threads(), 3);
        assert!(PooledExecutor::auto().threads() >= 1);
        assert_eq!(
            PooledExecutor::default().threads(),
            PooledExecutor::auto().threads()
        );
    }
}
