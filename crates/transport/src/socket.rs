//! The socket backend: one run split across two OS processes over loopback
//! TCP, bit-identical to `SyncExecutor` on *both* sides.
//!
//! # Replicated control plane
//!
//! Both processes load the same graph and build all `n` programs, but each
//! *executes* only its own contiguous block: the **leader** owns nodes
//! `[0, split)`, the **follower** owns `[split, n)`, with
//! `split = ceil(n / 2)`. Every round is the engine's own round:
//! [`execute_block`] over the local block, then [`commit_round`] with a sink
//! that queues messages for the local arena slots and every broadcast into
//! the local broadcast table, and stages for the peer what its nodes
//! receive — a per-edge message as a `(slot, message)` entry, a broadcast
//! with a neighbor across the split as one `(sender, payload)` entry, which
//! the peer stores once in its own table. Each side then ships the peer a
//! single checksummed frame (see [`crate::frame`]) carrying everything the peer
//! cannot compute locally: those staged entries, its accounting sub-totals,
//! how many of its nodes ran, its newly-halted nodes' outputs and its first
//! error ([`RoundPayload`]). Each side keeps one [`WakeState`] for its
//! block, so a sleeping node costs neither process anything. Both sides
//! [`Accounting::fold`] the `[leader, follower]` sub-totals into the round's
//! accounting, in the node order the in-process executors commit in, add
//! the two active counts in the same order, and the engine's [`RoundLoop`]
//! does the rest: round limit, halt count, totals, per-round statistics and
//! the report. So both processes assemble the *complete*, identical
//! [`RunReport`] without a separate coordinator process. The round barrier
//! is the exchange itself: neither side can advance past round `r` before
//! holding the peer's round-`r` frame.
//!
//! # Deadlock freedom and failure surface
//!
//! Each session runs a dedicated reader thread that drains the socket into
//! an in-process queue, so the main thread's writes can never deadlock
//! against an unread inbound frame regardless of frame sizes. Every failure
//! mode on the wire — truncation, corruption (checksum), version or
//! topology skew (handshake), round desync, a peer that vanished, a stalled
//! peer (timeout), a peer payload that names nodes or slots the peer does
//! not own or sends one node's broadcast twice or next to its per-edge
//! messages — surfaces as a typed [`TransportError`] from
//! [`SocketSession::run_program`], never a panic. Program misbehavior
//! (non-neighbor send, enforced bandwidth overrun) ends the run with the
//! lowest shard's error, and the round limit is the round loop's own check,
//! so each comes back as [`TransportError::Execution`] on **both** sides,
//! the same error an in-process executor returns.
//!
//! A session persists across runs: a composed pipeline issues one
//! `Executor::run` per phase, and every phase re-handshakes and reuses the
//! same connection, so a full measured Theorem 1.2 pipeline works across
//! two processes (see `examples/socket_pipeline.rs`).
//!
//! [`RunReport`]: congest_sim::RunReport

use crate::frame::{read_frame, write_frame, FrameError, FrameKind};
use crate::proto::{Hello, RoundPayload, PROTOCOL_VERSION};
use crate::TransportError;
use congest_sim::engine::{
    commit_round, execute_block, Accounting, ArenaDelivery, Committed, Executed, ExecutionError,
    Executor, ExecutorConfig, RoundLoop, RunReport, WakeState,
};
use congest_sim::program::{NodeProgram, Pending};
use congest_sim::{Graph, NodeId};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Which block of nodes this process executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owns nodes `[0, split)`; its sub-totals fold first.
    Leader,
    /// Owns nodes `[split, n)`.
    Follower,
}

/// What the reader thread hands the session per frame.
type FrameResult = Result<(FrameKind, Vec<u8>), FrameError>;

/// An established connection to the peer process, plus the reader thread
/// draining it.
pub struct SocketSession {
    writer: TcpStream,
    inbound: Receiver<FrameResult>,
    reader: Option<JoinHandle<()>>,
    timeout: Duration,
}

impl SocketSession {
    /// Default per-frame receive timeout; generous so CI machines under load
    /// do not produce spurious desyncs.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

    fn from_stream(stream: TcpStream) -> Result<SocketSession, TransportError> {
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let mut read_half = stream.try_clone().map_err(FrameError::Io)?;
        let (tx, inbound) = channel();
        let reader = thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(frame) => {
                    if tx.send(Ok(frame)).is_err() {
                        break; // Session dropped; stop reading.
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        Ok(SocketSession {
            writer: stream,
            inbound,
            reader: Some(reader),
            timeout: Self::DEFAULT_TIMEOUT,
        })
    }

    /// Connects to a listening peer, retrying until `retry_for` elapses (the
    /// listener may not be up yet when two processes start concurrently).
    pub fn connect(
        addr: impl ToSocketAddrs,
        retry_for: Duration,
    ) -> Result<SocketSession, TransportError> {
        let deadline = Instant::now() + retry_for;
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => return SocketSession::from_stream(stream),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Frame(FrameError::Io(e)));
                    }
                    thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Overrides the per-frame receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), TransportError> {
        let mut w = &self.writer;
        write_frame(&mut w, kind, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<(FrameKind, Vec<u8>), TransportError> {
        match self.inbound.recv_timeout(self.timeout) {
            Ok(Ok(frame)) => Ok(frame),
            Ok(Err(e)) => Err(TransportError::Frame(e)),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Frame(FrameError::Closed)),
        }
    }

    /// Runs `programs` on `graph` jointly with the peer process; this side
    /// executes the block its `role` names. Both sides return the same
    /// complete [`RunReport`] (or the same [`ExecutionError`] wrapped in
    /// [`TransportError::Execution`]).
    ///
    /// # Errors
    ///
    /// Any wire-level failure — corruption, truncation, handshake or
    /// configuration skew, round desync, timeout, a closed peer — is a typed
    /// [`TransportError`]; the method never panics on peer input.
    pub fn run_program<P: NodeProgram>(
        &mut self,
        role: Role,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, TransportError> {
        run_session(self, role, graph, programs, config)
    }
}

impl Drop for SocketSession {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A bound listener waiting for the peer process; split from
/// [`SocketSession`] so callers can learn an ephemerally-bound port before
/// the blocking accept.
pub struct SocketListener {
    inner: TcpListener,
}

impl SocketListener {
    /// Binds to `addr` (use port `0` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<SocketListener, TransportError> {
        Ok(SocketListener {
            inner: TcpListener::bind(addr).map_err(FrameError::Io)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        Ok(self.inner.local_addr().map_err(FrameError::Io)?)
    }

    /// Blocks until the peer connects and returns the established session.
    pub fn accept(self) -> Result<SocketSession, TransportError> {
        let (stream, _) = self.inner.accept().map_err(FrameError::Io)?;
        SocketSession::from_stream(stream)
    }
}

/// Where a [`SocketExecutor`] gets its connection from.
#[derive(Debug, Clone)]
enum Endpoint {
    /// Bind and accept; this process is usually the [`Role::Leader`].
    Listen(String),
    /// Connect (with retry); this process is usually the [`Role::Follower`].
    Connect(String),
}

/// An [`Executor`] running every `run` jointly with a peer process over a
/// persistent loopback-TCP session.
///
/// The first `run` establishes the connection (bind-and-accept for
/// [`SocketExecutor::listen`], connect-with-retry for
/// [`SocketExecutor::connect`]); later runs — e.g. the phases of a composed
/// pipeline — re-handshake over the same socket. Reports are bit-identical
/// to `SyncExecutor` on both sides.
///
/// Program errors surface as [`ExecutionError`] like any executor. A
/// wire-level failure has no representation in the [`Executor`] contract, so
/// it aborts the process with a panic naming the typed error; callers that
/// need to handle transport faults programmatically use
/// [`SocketSession::run_program`] directly.
pub struct SocketExecutor {
    /// `None` when the executor was built over an already-established session
    /// ([`SocketExecutor::from_session`]): there is nothing to reconnect to.
    endpoint: Option<Endpoint>,
    role: Role,
    timeout: Duration,
    session: Mutex<Option<SocketSession>>,
}

impl SocketExecutor {
    /// A leader executor: binds `addr` and waits for the follower.
    pub fn listen(addr: impl Into<String>) -> SocketExecutor {
        SocketExecutor {
            endpoint: Some(Endpoint::Listen(addr.into())),
            role: Role::Leader,
            timeout: SocketSession::DEFAULT_TIMEOUT,
            session: Mutex::new(None),
        }
    }

    /// A follower executor: connects to the leader at `addr`, retrying while
    /// the leader starts up.
    pub fn connect(addr: impl Into<String>) -> SocketExecutor {
        SocketExecutor {
            endpoint: Some(Endpoint::Connect(addr.into())),
            role: Role::Follower,
            timeout: SocketSession::DEFAULT_TIMEOUT,
            session: Mutex::new(None),
        }
    }

    /// Wraps an already-established session — e.g. one accepted from an
    /// ephemerally-bound [`SocketListener`], whose port the peer learned out
    /// of band. A session lost to a transport failure is not re-established
    /// (the executor has no address to reconnect to); later runs fail with a
    /// typed protocol error.
    pub fn from_session(role: Role, session: SocketSession) -> SocketExecutor {
        SocketExecutor {
            endpoint: None,
            role,
            timeout: session.timeout,
            session: Mutex::new(Some(session)),
        }
    }

    /// Overrides the per-frame receive timeout (and the connect retry
    /// window).
    pub fn with_timeout(mut self, timeout: Duration) -> SocketExecutor {
        self.timeout = timeout;
        if let Some(session) = self.session.get_mut().expect("session lock").as_mut() {
            session.set_timeout(timeout);
        }
        self
    }

    /// This process's role, determined by how the executor was built.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The typed-error twin of [`Executor::run`]: wire-level failures come
    /// back as [`TransportError`] values instead of aborting.
    pub fn run_transport<P: NodeProgram>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, TransportError> {
        let mut guard = self.session.lock().expect("session lock");
        if guard.is_none() {
            let Some(endpoint) = &self.endpoint else {
                return Err(TransportError::Protocol(
                    "the pre-established session was lost to an earlier transport failure"
                        .to_string(),
                ));
            };
            let mut session = match endpoint {
                Endpoint::Listen(addr) => SocketListener::bind(addr.as_str())?.accept()?,
                Endpoint::Connect(addr) => SocketSession::connect(addr.as_str(), self.timeout)?,
            };
            session.set_timeout(self.timeout);
            *guard = Some(session);
        }
        let session = guard.as_mut().expect("session established above");
        let result = session.run_program(self.role(), graph, programs, config);
        if matches!(&result, Err(e) if !matches!(e, TransportError::Execution(_))) {
            // The connection is desynchronized or dead; drop it so a later
            // run re-establishes instead of exchanging garbage.
            *guard = None;
        }
        result
    }
}

impl Executor for SocketExecutor {
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
        match self.run_transport(graph, programs, config) {
            Ok(report) => Ok(report),
            Err(TransportError::Execution(e)) => Err(e),
            Err(e) => panic!("socket transport failure: {e}"),
        }
    }
}

/// Which nodes and arena slots this side of a run owns.
struct Shard<'g> {
    graph: &'g Graph,
    role: Role,
    /// First node of the local block.
    lo: usize,
    /// One past the last node of the local block.
    hi: usize,
    /// First arena slot of the follower's side; slots below it belong to
    /// the leader.
    slot_split: usize,
}

impl Shard<'_> {
    fn owns_slot(&self, slot: usize) -> bool {
        (slot < self.slot_split) == (self.role == Role::Leader)
    }

    fn peer_owns_node(&self, v: usize) -> bool {
        v < self.graph.n() && !(self.lo..self.hi).contains(&v)
    }
}

/// Sends this side's round payload `out`, receives and validates the peer's,
/// applies the peer's halted outputs and cross-shard messages, and returns
/// the peer's sub-totals, active and halt counts and first error. `out`'s
/// halted outputs move into `outputs` and its batches are emptied, keeping
/// their allocations for the next round.
fn exchange<P: NodeProgram>(
    session: &mut SocketSession,
    shard: &Shard<'_>,
    out: &mut RoundPayload<P::Message, P::Output>,
    delivery: &mut ArenaDelivery<P::Message>,
    outputs: &mut [Option<P::Output>],
) -> Result<(Accounting, Executed, Option<ExecutionError>), TransportError> {
    session.send(FrameKind::Round, &out.encode())?;
    for (v, output) in out.newly_halted.drain(..) {
        outputs[v] = Some(output);
    }
    out.batch.clear();
    out.bcast.clear();

    let (kind, peer_bytes) = session.recv()?;
    if kind != FrameKind::Round {
        return Err(TransportError::Protocol(format!(
            "expected a round frame, got {kind:?}"
        )));
    }
    let peer = RoundPayload::<P::Message, P::Output>::decode(&peer_bytes)
        .map_err(TransportError::Frame)?;
    if peer.round != out.round {
        return Err(TransportError::Protocol(format!(
            "round desync: peer is at round {}, local round is {}",
            peer.round, out.round
        )));
    }
    if peer.active > shard.graph.n() - (shard.hi - shard.lo) {
        return Err(TransportError::Protocol(format!(
            "peer reported {} active nodes, more than it owns",
            peer.active
        )));
    }
    let peer_halted = peer.newly_halted.len();
    for (v, output) in peer.newly_halted {
        if !shard.peer_owns_node(v) || outputs[v].is_some() {
            return Err(TransportError::Protocol(format!(
                "peer reported a halt for node {v} it does not own"
            )));
        }
        outputs[v] = Some(output);
    }
    for (sender, msg) in peer.bcast {
        if !shard.peer_owns_node(sender) {
            return Err(TransportError::Protocol(format!(
                "peer broadcast from node {sender} it does not own"
            )));
        }
        if !delivery.queue_broadcast(NodeId(sender), msg) {
            return Err(TransportError::Protocol(format!(
                "peer broadcast twice from node {sender} in one round"
            )));
        }
    }
    // Broadcasts first, so a per-edge message from a node that also
    // broadcast is caught: an inbox holds at most one message per sender.
    for (slot, msg) in peer.batch {
        if slot >= shard.graph.slot_count() || !shard.owns_slot(slot) {
            return Err(TransportError::Protocol(format!(
                "peer delivered to slot {slot} outside this shard"
            )));
        }
        let sender = shard.graph.slot_neighbor(slot);
        if !shard.peer_owns_node(sender.0) || delivery.broadcast_queued(sender) {
            return Err(TransportError::Protocol(format!(
                "peer delivered to slot {slot} a message node {} cannot send",
                sender.0
            )));
        }
        delivery.queue(slot, msg);
    }
    let executed = Executed {
        active: peer.active,
        halted: peer_halted,
    };
    Ok((peer.acct, executed, peer.error))
}

/// Sends this side's [`Hello`] and checks the peer's: protocol version,
/// complementary roles, topology shape and split, and configuration.
fn handshake(
    session: &mut SocketSession,
    role: Role,
    graph: &Graph,
    split: usize,
    bandwidth: usize,
    config: &ExecutorConfig,
) -> Result<(), TransportError> {
    let n = graph.n();
    let hello = Hello {
        version: PROTOCOL_VERSION,
        role: match role {
            Role::Leader => 0,
            Role::Follower => 1,
        },
        n,
        slot_count: graph.slot_count(),
        split,
        max_rounds: config.max_rounds,
        bandwidth_bits: bandwidth,
        enforce_bandwidth: config.enforce_bandwidth,
    };
    session.send(FrameKind::Hello, &hello.encode())?;
    let (kind, peer_bytes) = session.recv()?;
    if kind != FrameKind::Hello {
        return Err(TransportError::Protocol(format!(
            "expected a hello frame, got {kind:?}"
        )));
    }
    let peer = Hello::decode(&peer_bytes).map_err(TransportError::Frame)?;
    if peer.version != PROTOCOL_VERSION {
        return Err(TransportError::Protocol(format!(
            "protocol version skew: local {PROTOCOL_VERSION}, peer {}",
            peer.version
        )));
    }
    if peer.role == hello.role {
        return Err(TransportError::Protocol(format!(
            "both endpoints claim role {} (one must listen, one connect)",
            peer.role
        )));
    }
    if (peer.n, peer.slot_count, peer.split) != (n, hello.slot_count, split) {
        return Err(TransportError::Protocol(format!(
            "topology skew: local (n={n}, slots={}, split={split}), peer (n={}, slots={}, split={})",
            hello.slot_count, peer.n, peer.slot_count, peer.split
        )));
    }
    if (peer.max_rounds, peer.bandwidth_bits, peer.enforce_bandwidth)
        != (
            hello.max_rounds,
            hello.bandwidth_bits,
            hello.enforce_bandwidth,
        )
    {
        return Err(TransportError::Protocol(
            "executor configuration skew between the two processes".to_string(),
        ));
    }
    Ok(())
}

/// The symmetric per-process run: the engine's [`RoundLoop`] drives
/// [`execute_block`] and [`commit_round`] over this side's block, with the
/// exchange as each round's barrier. See the module docs for the protocol.
fn run_session<P: NodeProgram>(
    session: &mut SocketSession,
    role: Role,
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
) -> Result<RunReport<P::Output>, TransportError> {
    let mut rounds = RoundLoop::new(graph, programs.len(), config)?;
    let (n, bandwidth) = (graph.n(), rounds.bandwidth());
    let split = n.div_ceil(2);
    handshake(session, role, graph, split, bandwidth, config)?;

    let (lo, hi) = match role {
        Role::Leader => (0, split),
        Role::Follower => (split, n),
    };
    let shard = Shard {
        graph,
        role,
        lo,
        hi,
        slot_split: if split >= n {
            graph.slot_count()
        } else {
            graph.slot_range(NodeId(split)).start
        },
    };
    // Keep only the local block; the peer executes the rest.
    programs.truncate(hi);
    programs.drain(..lo);
    let len = hi - lo;
    let mut wake = WakeState::new(graph, lo..hi);
    // Outputs of local nodes that halted this round, until the exchange
    // moves them into `outputs`.
    let mut fresh: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(len).collect();
    let mut pending: Vec<Pending<P::Message>> =
        std::iter::repeat_with(Pending::new).take(len).collect();
    let mut invalid: Vec<Option<NodeId>> = vec![None; len];
    let mut outputs: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut delivery = ArenaDelivery::new(graph);
    let mut out = RoundPayload {
        round: 0,
        active: 0,
        acct: Accounting::default(),
        newly_halted: Vec::new(),
        error: None,
        batch: Vec::new(),
        bcast: Vec::new(),
    };

    rounds.run(|round, acct| -> Result<Executed, TransportError> {
        let mine = execute_block(
            graph,
            round,
            &delivery,
            &mut programs,
            &mut wake,
            &mut fresh,
            &mut pending,
            &mut invalid,
        );
        if mine.halted > 0 {
            for v in wake.active() {
                if let Some(output) = fresh[v.0 - lo].take() {
                    out.newly_halted.push((v.0, output));
                }
            }
        }
        // Own slots and every broadcast go straight into the arena; the
        // rest is staged for the peer, a broadcast with a neighbor there as
        // one `(sender, payload)` entry.
        out.round = round;
        out.active = mine.active;
        out.acct = Accounting::default();
        out.error = commit_round(
            graph,
            &wake,
            &mut pending,
            &invalid,
            &mut out.acct,
            bandwidth,
            config.enforce_bandwidth,
            |from, unit| match unit {
                Committed::Edge(slot, msg) => {
                    if shard.owns_slot(slot) {
                        delivery.queue(slot, msg);
                    } else {
                        out.batch.push((slot, msg));
                    }
                }
                Committed::Fan(msg) => {
                    // Neighbor lists are sorted: only the ends can lie
                    // outside the block.
                    let neighbors = graph.neighbors(from);
                    let cross = neighbors.first().is_some_and(|v| v.0 < lo)
                        || neighbors.last().is_some_and(|v| v.0 >= hi);
                    if cross {
                        out.bcast.push((from.0, msg.clone()));
                    }
                    let fresh = delivery.queue_broadcast(from, msg);
                    debug_assert!(fresh, "one broadcast per sender per round");
                }
            },
        )
        .err();
        let (peer_acct, peer_executed, peer_error) =
            exchange::<P>(session, &shard, &mut out, &mut delivery, &mut outputs)?;
        delivery.advance();
        let (mine, peer) = (
            (&out.acct, mine, out.error.take()),
            (&peer_acct, peer_executed, peer_error),
        );
        // `[leader, follower]` is node order.
        let shares = match role {
            Role::Leader => [mine, peer],
            Role::Follower => [peer, mine],
        };
        let (mut executed, mut error) = (Executed::default(), None);
        for (sub, counts, e) in shares {
            acct.fold(sub);
            executed = executed + counts;
            // The lowest shard's error is the first in node order.
            error = error.or(e);
        }
        match error {
            Some(e) => Err(e.into()),
            None => Ok(executed),
        }
    })?;
    Ok(rounds.report(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::engine::SyncExecutor;
    use congest_sim::program::{Inbox, NodeContext, Outbox, RoundAction};
    use std::io::Write;

    /// Min-id flood with staggered halting so both shards mix live and
    /// halted nodes.
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

    /// Runs the same programs on both ends of a loopback session (the peer
    /// on a second thread) and returns both sides' results.
    fn run_both_results<P, F>(
        graph: &Graph,
        mk: F,
        config: &ExecutorConfig,
    ) -> [Result<RunReport<P::Output>, TransportError>; 2]
    where
        P: NodeProgram + Send,
        P::Output: Send,
        F: Fn() -> Vec<P> + Sync,
    {
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            let follower = s.spawn(|| {
                let mut session = SocketSession::connect(addr, Duration::from_secs(10)).unwrap();
                session.set_timeout(Duration::from_secs(30));
                session.run_program(Role::Follower, graph, mk(), config)
            });
            let mut session = listener.accept().unwrap();
            session.set_timeout(Duration::from_secs(30));
            let leader = session.run_program(Role::Leader, graph, mk(), config);
            [leader, follower.join().expect("follower thread")]
        })
    }

    /// [`run_both_results`] for runs that must succeed on both sides.
    fn run_both<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> [RunReport<P::Output>; 2]
    where
        P: NodeProgram + Send,
        P::Output: Send,
        F: Fn() -> Vec<P> + Sync,
    {
        run_both_results(graph, mk, config).map(|r| r.unwrap())
    }

    /// Asserts both sides failed with exactly the sequential `expected` error.
    fn assert_both_fail_with<O: std::fmt::Debug>(
        results: [Result<RunReport<O>, TransportError>; 2],
        expected: &ExecutionError,
    ) {
        for result in results {
            match result {
                Err(TransportError::Execution(e)) => assert_eq!(&e, expected),
                other => panic!("expected the sequential error, got {other:?}"),
            }
        }
    }

    #[test]
    fn socket_matches_sequential_on_both_sides() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for report in run_both(&g, || min_id_programs(17, 20), &ExecutorConfig::default()) {
            assert_eq!(seq, report);
        }
    }

    /// Path lengths move the `ceil(n / 2)` split around, so halting nodes,
    /// the cross-shard edge and odd/even shard sizes all vary.
    #[test]
    fn matches_sequential_bit_for_bit_at_every_split() {
        for n in [2usize, 3, 5, 8, 23] {
            let g = path_graph(n);
            let seq = SyncExecutor
                .run(
                    &g,
                    min_id_programs(n, n as u64 + 2),
                    &ExecutorConfig::default(),
                )
                .unwrap();
            let mk = || min_id_programs(n, n as u64 + 2);
            for report in run_both(&g, mk, &ExecutorConfig::default()) {
                assert_eq!(seq, report, "n={n}");
            }
        }
    }

    #[test]
    fn socket_session_survives_multiple_runs() {
        let g = path_graph(9);
        let config = ExecutorConfig::default();
        let seq1 = SyncExecutor
            .run(&g, min_id_programs(9, 9), &config)
            .unwrap();
        let seq2 = SyncExecutor
            .run(&g, min_id_programs(9, 2), &config)
            .unwrap();

        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            let follower = s.spawn(|| {
                let mut session = SocketSession::connect(addr, Duration::from_secs(10)).unwrap();
                let a = session
                    .run_program(Role::Follower, &g, min_id_programs(9, 9), &config)
                    .unwrap();
                let b = session
                    .run_program(Role::Follower, &g, min_id_programs(9, 2), &config)
                    .unwrap();
                (a, b)
            });
            let mut session = listener.accept().unwrap();
            let a = session
                .run_program(Role::Leader, &g, min_id_programs(9, 9), &config)
                .unwrap();
            let b = session
                .run_program(Role::Leader, &g, min_id_programs(9, 2), &config)
                .unwrap();
            let (fa, fb) = follower.join().expect("follower thread");
            assert_eq!(seq1, a);
            assert_eq!(seq1, fa);
            assert_eq!(seq2, b);
            assert_eq!(seq2, fb);
        });
    }

    /// Sends to a non-neighbor at a configurable node and round: both
    /// processes must fold the same [`ExecutionError`].
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

    fn bad_senders(n: usize, bad_node: usize, bad_round: u64) -> Vec<BadSender> {
        (0..n)
            .map(|_| BadSender {
                bad_node,
                bad_round,
            })
            .collect()
    }

    #[test]
    fn both_sides_fold_the_same_execution_error() {
        let g = path_graph(10);
        // One offender in the leader's block, one in the follower's.
        for bad_node in [1usize, 7] {
            let mk = || bad_senders(10, bad_node, 0);
            let seq = SyncExecutor
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap_err();
            assert_both_fail_with(run_both_results(&g, mk, &ExecutorConfig::default()), &seq);
        }
    }

    #[test]
    fn first_error_matches_sequential_from_any_node_and_round() {
        let g = path_graph(12);
        // Offenders in the leader's block (0, 5) and the follower's (9), in
        // the init round and in a later one.
        for bad_node in [0usize, 5, 9] {
            for bad_round in [0u64, 2] {
                let mk = || bad_senders(12, bad_node, bad_round);
                let seq = SyncExecutor
                    .run(&g, mk(), &ExecutorConfig::default())
                    .unwrap_err();
                assert_both_fail_with(run_both_results(&g, mk, &ExecutorConfig::default()), &seq);
            }
        }
    }

    #[test]
    fn degenerate_inputs_match_sequential() {
        let empty = Graph::empty(0);
        for report in run_both(&empty, Vec::<MinId>::new, &ExecutorConfig::default()) {
            assert_eq!(report.rounds, 0);
            assert!(report.outputs.is_empty());
        }
        let g = path_graph(3);
        let seq = SyncExecutor
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(seq, ExecutionError::ProgramCountMismatch { .. }));
        assert_both_fail_with(
            run_both_results(&g, Vec::<MinId>::new, &ExecutorConfig::default()),
            &seq,
        );
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
        for max_rounds in [0u64, 1, 10] {
            let g = path_graph(6);
            let config = ExecutorConfig {
                max_rounds,
                ..ExecutorConfig::default()
            };
            let mk = || (0..6).map(|_| NeverHalts).collect::<Vec<_>>();
            let seq = SyncExecutor.run(&g, mk(), &config).unwrap_err();
            assert_eq!(
                seq,
                ExecutionError::RoundLimitExceeded { limit: max_rounds }
            );
            assert_both_fail_with(run_both_results(&g, mk, &config), &seq);
        }
    }

    /// Only odd nodes exceed the budget, so violation counts (not just the
    /// first error) must line up across the two shards.
    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
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
        for report in run_both(&g, mk, &ExecutorConfig::default()) {
            assert_eq!(seq, report);
        }
        let strict = ExecutorConfig::strict_congest();
        let seq = SyncExecutor.run(&g, mk(), &strict).unwrap_err();
        assert_both_fail_with(run_both_results(&g, mk, &strict), &seq);
    }

    /// Sends twice to the same neighbor in one round; on a 2-node path the
    /// receiver sits in the other shard, so both copies cross the codec.
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
    fn duplicate_sends_keep_the_last_message_across_the_codec() {
        let g = path_graph(2);
        let mk = || {
            (0..2)
                .map(|_| DoubleSender { heard: None })
                .collect::<Vec<_>>()
        };
        for report in run_both(&g, mk, &ExecutorConfig::default()) {
            assert_eq!(report.outputs[1], Some(9));
            assert_eq!(report.messages, 2, "both sends are charged");
        }
    }

    #[test]
    fn malformed_peer_bytes_surface_as_a_typed_error_not_a_panic() {
        let g = path_graph(4);
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            // A "peer" that speaks garbage instead of the protocol.
            s.spawn(move || {
                let mut raw = TcpStream::connect(addr).unwrap();
                raw.write_all(b"GETX not a frame at all\r\n\r\n").unwrap();
            });
            let mut session = listener.accept().unwrap();
            session.set_timeout(Duration::from_secs(30));
            let err = session
                .run_program(
                    Role::Leader,
                    &g,
                    min_id_programs(4, 4),
                    &ExecutorConfig::default(),
                )
                .unwrap_err();
            assert!(
                matches!(err, TransportError::Frame(FrameError::BadMagic(_))),
                "got {err:?}"
            );
        });
    }

    #[test]
    fn handshake_rejects_topology_skew() {
        let g_leader = path_graph(8);
        let g_follower = path_graph(9);
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            let follower = s.spawn(|| {
                SocketSession::connect(addr, Duration::from_secs(10))
                    .unwrap()
                    .run_program(
                        Role::Follower,
                        &g_follower,
                        min_id_programs(9, 4),
                        &ExecutorConfig::default(),
                    )
            });
            let leader = listener.accept().unwrap().run_program(
                Role::Leader,
                &g_leader,
                min_id_programs(8, 4),
                &ExecutorConfig::default(),
            );
            assert!(
                matches!(leader, Err(TransportError::Protocol(_))),
                "got {leader:?}"
            );
            let follower = follower.join().expect("follower thread");
            assert!(
                matches!(follower, Err(TransportError::Protocol(_))),
                "got {follower:?}"
            );
        });
    }

    /// A raw-TCP peer sends a valid [`Hello`], then one well-formed round-0
    /// payload that breaks one rule of the exchange; the session must end in
    /// a typed protocol error, not a panic or a hang.
    #[test]
    fn peer_payload_breaking_an_exchange_rule_is_a_protocol_error() {
        // On a 4-path the leader owns nodes 0 and 1 and arena slots 0..3;
        // slot 1 is node 1's from node 0, slot 2 node 1's from node 2.
        let g = path_graph(4);
        let config = ExecutorConfig::default();
        let empty = || RoundPayload::<NodeId, usize> {
            round: 0,
            active: 0,
            acct: Default::default(),
            newly_halted: Vec::new(),
            error: None,
            batch: Vec::new(),
            bcast: Vec::new(),
        };
        let cases = [
            (
                "wrong round",
                RoundPayload {
                    round: 1,
                    ..empty()
                },
            ),
            (
                "halt of a leader node",
                RoundPayload {
                    newly_halted: vec![(0, 0)],
                    ..empty()
                },
            ),
            (
                "slot outside the leader's shard",
                RoundPayload {
                    batch: vec![(3, NodeId(2))],
                    ..empty()
                },
            ),
            (
                "more active nodes than the follower owns",
                RoundPayload {
                    active: 3,
                    ..empty()
                },
            ),
            (
                "broadcast from a leader node",
                RoundPayload {
                    bcast: vec![(1, NodeId(1))],
                    ..empty()
                },
            ),
            (
                "two broadcasts from one node",
                RoundPayload {
                    bcast: vec![(2, NodeId(2)), (2, NodeId(0))],
                    ..empty()
                },
            ),
            (
                "per-edge message from a node that broadcast",
                RoundPayload {
                    batch: vec![(2, NodeId(2))],
                    bcast: vec![(2, NodeId(2))],
                    ..empty()
                },
            ),
            (
                "per-edge message from a leader node",
                RoundPayload {
                    batch: vec![(1, NodeId(0))],
                    ..empty()
                },
            ),
        ];
        for (case, payload) in cases {
            let hello = Hello {
                version: PROTOCOL_VERSION,
                role: 1,
                n: 4,
                slot_count: g.slot_count(),
                split: 2,
                max_rounds: config.max_rounds,
                bandwidth_bits: congest_sim::congest_bandwidth_bits(4),
                enforce_bandwidth: config.enforce_bandwidth,
            };
            let listener = SocketListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            thread::scope(|s| {
                s.spawn(move || {
                    let mut raw = TcpStream::connect(addr).unwrap();
                    write_frame(&mut raw, FrameKind::Hello, &hello.encode()).unwrap();
                    write_frame(&mut raw, FrameKind::Round, &payload.encode()).unwrap();
                    // Hold the connection open until the session hangs up.
                    let _ = std::io::Read::read_to_end(&mut raw, &mut Vec::new());
                });
                let mut session = listener.accept().unwrap();
                session.set_timeout(Duration::from_secs(30));
                let result = session.run_program(Role::Leader, &g, min_id_programs(4, 4), &config);
                drop(session);
                assert!(
                    matches!(result, Err(TransportError::Protocol(_))),
                    "{case}: got {result:?}"
                );
            });
        }
    }
}
