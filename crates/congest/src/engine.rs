//! The batched execution engine: drives [`NodeProgram`]s round by round.
//!
//! The engine stores in-flight messages in two double-buffered tables (see
//! [`ArenaDelivery`]). A per-edge message goes into a CSR-indexed arena:
//! directed edge `(u, v)` owns a fixed slot in a flat `Vec<Option<M>>`,
//! located inside receiver `v`'s CSR range at the position of `u` in `v`'s
//! sorted adjacency list, and sending writes through a precomputed mirror
//! index. A broadcast is stored once, in `u`'s entry of a sender-indexed
//! table, and each receiver pulls it through its own neighbor list when it
//! reads its inbox — nothing is written per edge. Delivery is a buffer swap,
//! and inboxes are zero-copy views sorted by sender — the steady-state round
//! loop allocates nothing.
//!
//! Two deterministic [`Executor`]s drive the loop:
//!
//! * [`SyncExecutor`] — runs all nodes on the calling thread.
//! * [`crate::pool::PooledExecutor`] — spawns workers once per run and runs
//!   the node programs of each contiguous block in parallel; the commit,
//!   delivery and loop control are this module's sequential code, so outputs,
//!   round counts, message counts and per-round statistics are bit-identical
//!   to sequential execution for any thread count.
//!
//! Every backend — these two and the two-process socket backend of
//! `congest_transport` — runs one round loop built from four pieces of this
//! module: a [`WakeState`] per block says which of its nodes run,
//! [`execute_block`] runs them, [`commit_round`] drains their outboxes in
//! node order into a sink, and [`RoundLoop`] owns the round counter and
//! limit, halt detection, the totals and the [`RoundStats`]. A backend only
//! chooses where blocks execute and where committed messages go.
//!
//! # Cost proportional to real work
//!
//! A node that returns [`RoundAction::SleepUntil`] leaves its block's
//! node-ordered active list until its timer is due or a message is
//! delivered to it. Execute and commit walk only the active list, and the
//! wake-up scan walks only the slots delivered this round and the block's
//! share of each broadcaster's neighbor list, so a round costs
//! `O(active + delivered)` rather than `O(n)`. A block without sleepers
//! skips the wake-up scan entirely, so all-active programs pay nothing
//! extra. Which nodes run is a function of the programs' own actions and the
//! delivered messages only, so it is the same on every backend and
//! [`RoundStats::active`] is part of the bit-identical report.
//!
//! The per-graph mirror table is built once and cached inside [`Graph`] (see
//! `crate::topology`), so repeated runs and multi-phase compositions share
//! the `O(m log Δ)` setup.
//!
//! Every run produces a [`RunReport`] with per-round [`RoundStats`]. Its
//! rounds, messages and payloads go into the same
//! [`RoundLedger`](crate::RoundLedger) as closed-form charges, through
//! [`RoundLedger::record`](crate::RoundLedger::record), so measured and
//! formula-derived round counts flow through one accounting path.

use crate::message::MessageSize;
use crate::program::{
    Inbox, NodeContext, NodeProgram, OutMsg, Outbox, Pending, RoundAction, INVALID_SLOT,
};
use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Configuration of an [`Executor`] run.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Abort with [`ExecutionError::RoundLimitExceeded`] after this many rounds.
    pub max_rounds: u64,
    /// Bandwidth budget per message in bits; `None` selects
    /// [`crate::congest_bandwidth_bits`] for the graph (CONGEST). Use a huge
    /// budget to simulate the LOCAL model (all charging is saturating, so
    /// `usize::MAX` is safe).
    pub bandwidth_bits: Option<usize>,
    /// If `true`, a message exceeding the budget aborts the run; if `false`
    /// the violation is only counted in the report.
    pub enforce_bandwidth: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_rounds: 1_000_000,
            bandwidth_bits: None,
            enforce_bandwidth: false,
        }
    }
}

impl ExecutorConfig {
    /// A configuration for the LOCAL model: unbounded messages. The engine's
    /// charging path uses saturating arithmetic throughout, so the
    /// `usize::MAX` budget cannot overflow any accumulator.
    pub fn local_model() -> Self {
        ExecutorConfig {
            bandwidth_bits: Some(usize::MAX),
            ..ExecutorConfig::default()
        }
    }

    /// A strict CONGEST configuration: the default bandwidth is enforced.
    pub fn strict_congest() -> Self {
        ExecutorConfig {
            enforce_bandwidth: true,
            ..ExecutorConfig::default()
        }
    }
}

/// Per-round instrumentation: what the network did in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// The round the statistics describe (`0` covers `init`).
    pub round: u64,
    /// Messages sent during the round.
    pub messages: u64,
    /// Total bits sent during the round (saturating).
    pub bits: u64,
    /// Number of nodes that have halted by the end of the round.
    pub halted: usize,
    /// Number of nodes whose `init` (round `0`) or `round` ran in the round:
    /// the live nodes minus those a [`RoundAction::SleepUntil`] skipped.
    pub active: usize,
}

/// Statistics and outputs of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Number of rounds executed until the last node halted.
    pub rounds: u64,
    /// Total number of messages sent.
    pub messages: u64,
    /// Stored payloads committed: an explicit send counts one, a broadcast
    /// counts one *per broadcasting node per round* regardless of degree.
    /// This is the storage/wire-traffic side of the ledger — `messages`
    /// stays the CONGEST charge (`deg(v)` per broadcast), so
    /// `messages / payloads` is the copy factor the broadcast fast path
    /// never materializes: receivers read the one stored payload.
    pub payloads: u64,
    /// Total bits sent across all messages (saturating).
    pub total_bits: u64,
    /// Largest message observed, in bits.
    pub max_message_bits: usize,
    /// Number of messages that exceeded the bandwidth budget.
    pub bandwidth_violations: u64,
    /// The bandwidth budget the run was charged against.
    pub bandwidth_bits: usize,
    /// Per-round statistics: one entry per executed round, `init` included.
    pub round_stats: Vec<RoundStats>,
}

/// Errors produced by [`Executor::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// A node addressed a message to a non-neighbor.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// The round limit was reached before all nodes halted.
    RoundLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The number of supplied programs does not match the number of nodes.
    ProgramCountMismatch {
        /// Programs supplied.
        programs: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A message exceeded the bandwidth budget while enforcement was enabled.
    BandwidthExceeded {
        /// Sender of the offending message.
        from: NodeId,
        /// Size of the offending message in bits.
        bits: usize,
        /// The configured budget in bits.
        budget: usize,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::NotANeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            ExecutionError::RoundLimitExceeded { limit } => {
                write!(f, "round limit of {limit} exceeded before termination")
            }
            ExecutionError::ProgramCountMismatch { programs, nodes } => {
                write!(f, "{programs} programs supplied for {nodes} nodes")
            }
            ExecutionError::BandwidthExceeded { from, bits, budget } => {
                write!(
                    f,
                    "message of {bits} bits from {from} exceeds budget of {budget} bits"
                )
            }
        }
    }
}

impl Error for ExecutionError {}

/// Tagged-union encoding, so multi-process transport backends can ship the
/// run's first error to the peer and both sides fail identically.
impl crate::message::Wire for ExecutionError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExecutionError::NotANeighbor { from, to } => {
                out.push(0);
                from.encode(out);
                to.encode(out);
            }
            ExecutionError::RoundLimitExceeded { limit } => {
                out.push(1);
                limit.encode(out);
            }
            ExecutionError::ProgramCountMismatch { programs, nodes } => {
                out.push(2);
                programs.encode(out);
                nodes.encode(out);
            }
            ExecutionError::BandwidthExceeded { from, bits, budget } => {
                out.push(3);
                from.encode(out);
                bits.encode(out);
                budget.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => ExecutionError::NotANeighbor {
                from: NodeId::decode(buf, pos)?,
                to: NodeId::decode(buf, pos)?,
            },
            1 => ExecutionError::RoundLimitExceeded {
                limit: u64::decode(buf, pos)?,
            },
            2 => ExecutionError::ProgramCountMismatch {
                programs: usize::decode(buf, pos)?,
                nodes: usize::decode(buf, pos)?,
            },
            3 => ExecutionError::BandwidthExceeded {
                from: NodeId::decode(buf, pos)?,
                bits: usize::decode(buf, pos)?,
                budget: usize::decode(buf, pos)?,
            },
            _ => return None,
        })
    }
}

/// A deterministic driver for [`NodeProgram`]s.
///
/// All implementations must produce identical [`RunReport`]s for identical
/// inputs — the choice of executor is purely a wall-clock decision.
pub trait Executor {
    /// Runs `programs[v]` on node `v` of `graph` under `config`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] if a program misbehaves (sends to a
    /// non-neighbor, exceeds an enforced bandwidth budget) or if the round
    /// limit is hit.
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send;
}

/// The sequential executor: drives all node programs on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncExecutor;

impl Executor for SyncExecutor {
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
        run_engine(graph, programs, config)
    }
}

/// Double-buffered delivery tables: how committed messages move between
/// rounds.
///
/// A per-edge message lives in a CSR-indexed slot arena: slot
/// `slot_range(v).start + i` holds the message *received by* `v` from its
/// `i`-th CSR neighbor, and senders write through the [`TopologyCache`]
/// mirror so the write side is the receiver's inbox range. Every send is
/// resolved to its destination slot before it reaches the arena, so the
/// arena only stores, advances and serves slot-indexed batches.
///
/// A broadcast is stored once, in a sender-indexed table of one entry per
/// node, and never copied into the slot arena: a receiver's [`Inbox`] reads
/// neighbor `u`'s message from its own slot or, failing that, from entry
/// `u` of the table. The two never both hold a message from one sender in
/// one round, because a broadcasting sender stages nothing else (see
/// [`Pending`]).
///
/// Within one round, repeated [`ArenaDelivery::queue`] calls for the same
/// slot keep the *last* message (all writes to one slot come from one sender,
/// in that sender's send order), and [`ArenaDelivery::advance`] publishes
/// exactly the queued messages and broadcasts as the next round's
/// [`ArenaDelivery::current`] and [`ArenaDelivery::broadcasts`]. The socket
/// backend of `congest_transport` keeps one per process and queues the
/// peer's decoded batch and broadcasts into it.
///
/// [`TopologyCache`]: crate::topology::TopologyCache
pub struct ArenaDelivery<M> {
    /// Per-edge messages delivered this round (read side).
    cur: Vec<Option<M>>,
    /// Per-edge messages queued for the next round (write side).
    next: Vec<Option<M>>,
    /// Slots occupied on the read side — the ones to clear on the next
    /// [`ArenaDelivery::advance`], so a round pays for the messages it
    /// actually carried instead of an `O(m)` full-arena sweep.
    cur_written: Vec<usize>,
    /// Slots written on the write side this round, each listed exactly once
    /// (duplicate sends to one neighbor overwrite in place).
    next_written: Vec<usize>,
    /// Broadcasts delivered this round, indexed by sender (read side).
    cur_bcast: Vec<Option<M>>,
    /// Broadcasts queued for the next round, indexed by sender (write side).
    next_bcast: Vec<Option<M>>,
    /// Senders with an entry on the read side, each once, in queue order.
    cur_senders: Vec<usize>,
    /// Senders with an entry on the write side, each once, in queue order.
    next_senders: Vec<usize>,
}

impl<M> ArenaDelivery<M> {
    /// Empty tables: one slot per directed edge of `graph` and one
    /// broadcast entry per node.
    pub fn new(graph: &Graph) -> Self {
        let none = |len| std::iter::repeat_with(|| None).take(len).collect();
        ArenaDelivery {
            cur: none(graph.slot_count()),
            next: none(graph.slot_count()),
            cur_written: Vec::new(),
            next_written: Vec::new(),
            cur_bcast: none(graph.n()),
            next_bcast: none(graph.n()),
            cur_senders: Vec::new(),
            next_senders: Vec::new(),
        }
    }

    /// Stages `msg` for delivery into destination arena slot `slot` at the
    /// start of the next round. A later `queue` to the same slot within the
    /// same round replaces the message (one message per edge per round).
    pub fn queue(&mut self, slot: usize, msg: M) {
        // Record the slot in `next_written` only on first occupancy so the
        // sparse clear in `advance` touches each slot once.
        if self.next[slot].replace(msg).is_some() {
            debug_assert!(self.next_written.contains(&slot));
        } else {
            self.next_written.push(slot);
        }
    }

    /// Stages `sender`'s broadcast payload, one copy standing for a message
    /// to every neighbor, for delivery at the start of the next round.
    /// Returns `false`, and stages nothing, if `sender` already has a
    /// broadcast queued this round; the engine never does that, and the
    /// socket backend reports a peer that does as a protocol error.
    #[must_use]
    pub fn queue_broadcast(&mut self, sender: NodeId, msg: M) -> bool {
        let entry = &mut self.next_bcast[sender.0];
        if entry.is_some() {
            return false;
        }
        *entry = Some(msg);
        self.next_senders.push(sender.0);
        true
    }

    /// Whether `sender` has a broadcast queued for the next round.
    pub fn broadcast_queued(&self, sender: NodeId) -> bool {
        self.next_bcast[sender.0].is_some()
    }

    /// Ends the round: queued messages and broadcasts become current and
    /// the write side is emptied, clearing only the slots and senders that
    /// were actually occupied (no allocation).
    pub fn advance(&mut self) {
        for &slot in &self.cur_written {
            self.cur[slot] = None;
        }
        self.cur_written.clear();
        for &sender in &self.cur_senders {
            self.cur_bcast[sender] = None;
        }
        self.cur_senders.clear();
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.cur_written, &mut self.next_written);
        std::mem::swap(&mut self.cur_bcast, &mut self.next_bcast);
        std::mem::swap(&mut self.cur_senders, &mut self.next_senders);
    }

    /// The per-edge messages delivered for the current round, indexed by
    /// arena slot.
    pub fn current(&self) -> &[Option<M>] {
        &self.cur
    }

    /// The occupied slots of [`ArenaDelivery::current`], each once, in
    /// queue order: what a [`WakeState`] scans for sleeping receivers.
    pub fn delivered(&self) -> &[usize] {
        &self.cur_written
    }

    /// The broadcasts delivered for the current round, indexed by sender.
    pub fn broadcasts(&self) -> &[Option<M>] {
        &self.cur_bcast
    }

    /// The senders with an entry in [`ArenaDelivery::broadcasts`], each
    /// once, in queue order: a [`WakeState`] walks their neighbor lists.
    pub fn broadcasters(&self) -> &[usize] {
        &self.cur_senders
    }
}

/// [`WakeState`] entry of a node that runs in the next round.
const AWAKE: u64 = 0;
/// [`WakeState`] entry of a halted node. Sleep targets never collide with
/// either marker: a sleep that ends before round `ctx.round + 2 >= 3` is a
/// `Continue`.
const HALTED: u64 = 1;

/// Which nodes of one contiguous block run in each round.
///
/// Holds the block's node-ordered active list, one wake entry per node —
/// awake, halted, or the round a sleeper's timer is due (`u64::MAX`: only a
/// message wakes it) — and a min-heap of pending timers. Before each round
/// the active list becomes the nodes that returned
/// [`RoundAction::Continue`], the sleepers whose timer is due and the
/// sleepers that receive a message this round, in node order.
///
/// [`SyncExecutor`] keeps one over all nodes, each pooled worker one per
/// block, and each socket process one per shard.
#[derive(Debug, Clone)]
pub struct WakeState {
    /// First node of the block.
    first: usize,
    /// Arena slots received by the block's nodes: the block's CSR ranges
    /// are contiguous, so this is one range.
    slots: std::ops::Range<usize>,
    /// Per node: [`AWAKE`], [`HALTED`] or the round a sleeper wakes at.
    wake: Vec<u64>,
    /// Block-local indices of the nodes that run in the current round, in
    /// node order.
    active: Vec<u32>,
    /// Nodes that stay awake for the next round, in node order.
    next: Vec<u32>,
    /// Sleepers woken for the round being prepared (scratch).
    woken: Vec<u32>,
    /// `(round, node)` timers. An entry whose node has since woken, slept
    /// again or halted no longer matches its wake entry and is dropped when
    /// due, or when the heap outgrows twice the block and is rebuilt.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Nodes currently asleep.
    sleepers: usize,
}

impl WakeState {
    /// The wake state of block `nodes` of `graph`, every node awake for
    /// `init`.
    pub fn new(graph: &Graph, nodes: std::ops::Range<usize>) -> Self {
        assert!(nodes.end < u32::MAX as usize, "block indices fit in u32");
        let slot_start = |v: usize| {
            if v < graph.n() {
                graph.slot_range(NodeId(v)).start
            } else {
                graph.slot_count()
            }
        };
        let len = nodes.len();
        WakeState {
            first: nodes.start,
            slots: slot_start(nodes.start)..slot_start(nodes.end),
            wake: vec![AWAKE; len],
            active: (0..len as u32).collect(),
            next: Vec::with_capacity(len),
            // Sized once for the most they hold (a round pushes at most
            // `len` timers onto at most `2·len` before the trim), so they
            // never reallocate. Untouched capacity costs no resident memory
            // in a run where nobody sleeps, while the growth chain of
            // reallocations raised the peak RSS of runs that do.
            woken: Vec::with_capacity(len),
            timers: BinaryHeap::with_capacity(3 * len),
            sleepers: 0,
        }
    }

    /// The nodes that run in the current round, in node order.
    pub fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active
            .iter()
            .map(move |&i| NodeId(self.first + i as usize))
    }

    /// Makes the active list of `round`: last round's stayers, merged with
    /// the sleepers whose timer is due and those that receive one of the
    /// `delivered` slots or a neighbor's broadcast from `broadcasters`.
    fn prepare(&mut self, graph: &Graph, round: u64, delivered: &[usize], broadcasters: &[usize]) {
        std::mem::swap(&mut self.active, &mut self.next);
        self.next.clear();
        if self.sleepers == 0 {
            return;
        }
        self.woken.clear();
        while let Some(&Reverse((at, i))) = self.timers.peek() {
            if at > round {
                break;
            }
            self.timers.pop();
            if self.wake[i as usize] == at {
                self.rouse(i);
            }
        }
        if self.sleepers > 0 {
            // The receiver of slot `s` is the neighbor stored at its mirror.
            let mirror = &graph.topology().mirror;
            for &s in delivered {
                if self.slots.contains(&s) {
                    let i = (graph.slot_neighbor(mirror[s]).0 - self.first) as u32;
                    if self.wake[i as usize] > HALTED {
                        self.rouse(i);
                    }
                }
            }
            // A broadcast reaches every neighbor; neighbor lists are sorted,
            // so the block's share of each is one contiguous run.
            let block = self.first..self.first + self.wake.len();
            for &u in broadcasters {
                let neighbors = graph.neighbors(NodeId(u));
                let lo = neighbors.partition_point(|v| v.0 < block.start);
                for v in &neighbors[lo..] {
                    if v.0 >= block.end {
                        break;
                    }
                    let i = (v.0 - self.first) as u32;
                    if self.wake[i as usize] > HALTED {
                        self.rouse(i);
                    }
                }
            }
        }
        if self.woken.is_empty() {
            return;
        }
        // Merge the two sorted, disjoint lists into node order.
        self.woken.sort_unstable();
        let (mut a, mut b) = (0, 0);
        while a < self.active.len() && b < self.woken.len() {
            if self.active[a] < self.woken[b] {
                self.next.push(self.active[a]);
                a += 1;
            } else {
                self.next.push(self.woken[b]);
                b += 1;
            }
        }
        self.next.extend_from_slice(&self.active[a..]);
        self.next.extend_from_slice(&self.woken[b..]);
        std::mem::swap(&mut self.active, &mut self.next);
        self.next.clear();
    }

    /// Rebuilds the timer heap from the wake entries once stale entries
    /// make up more than half of it: a node woken by a message that sleeps
    /// on the same timer again pushes a second entry, and without the
    /// rebuild the heap would grow with every such wake. Rebuilding costs
    /// `O(block)` after at least `block` pushes, so `O(1)` per push.
    fn trim_timers(&mut self) {
        if self.timers.len() <= 2 * self.wake.len() {
            return;
        }
        let mut timers = std::mem::take(&mut self.timers).into_vec();
        timers.clear();
        timers.extend(
            (0u32..)
                .zip(&self.wake)
                .filter(|&(_, &at)| at > HALTED && at != u64::MAX)
                .map(|(i, &at)| Reverse((at, i))),
        );
        self.timers = BinaryHeap::from(timers);
    }

    /// Wakes sleeper `i` for the round being prepared.
    fn rouse(&mut self, i: u32) {
        self.wake[i as usize] = AWAKE;
        self.woken.push(i);
        self.sleepers -= 1;
    }
}

/// What one round did: how many nodes ran and how many of them halted.
/// [`execute_block`] returns one per block; a backend sums its blocks' and
/// hands the total to [`RoundLoop::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Executed {
    /// Nodes whose `init` or `round` ran.
    pub active: usize,
    /// Nodes that halted.
    pub halted: usize,
}

impl std::ops::Add for Executed {
    type Output = Executed;
    fn add(self, other: Executed) -> Executed {
        Executed {
            active: self.active + other.active,
            halted: self.halted + other.halted,
        }
    }
}

/// Running totals for the charging path. All accumulation is saturating so a
/// LOCAL-model `usize::MAX` budget (or absurdly long runs) cannot overflow.
/// Saturating `u64` addition is associative (it is ordinary addition clamped
/// at a ceiling none of the partial sums can exceed without the total also
/// exceeding it), which is what lets the socket backend charge each shard
/// separately, [`Accounting::fold`] the sub-totals in shard order and still
/// match the sequential left-to-right accumulation bit for bit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Messages charged.
    pub messages: u64,
    /// Stored payloads committed (one per explicit send, one per broadcast
    /// regardless of degree) — see [`RunReport::payloads`].
    pub payloads: u64,
    /// Bits charged (saturating).
    pub bits: u64,
    /// Largest message observed, in bits.
    pub max_message_bits: usize,
    /// Messages that exceeded the bandwidth budget.
    pub violations: u64,
}

impl Accounting {
    /// Folds `other` into `self`: saturating sums, max of maxima. Because
    /// the merge is associative, folding sub-totals in node order equals
    /// charging every message in node order. [`RoundLoop`] folds each
    /// round into the run totals with it, and the socket backend folds the
    /// `[leader, follower]` shard sub-totals into the round's accounting.
    pub fn fold(&mut self, other: &Accounting) {
        self.messages = self.messages.saturating_add(other.messages);
        self.payloads = self.payloads.saturating_add(other.payloads);
        self.bits = self.bits.saturating_add(other.bits);
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.violations = self.violations.saturating_add(other.violations);
    }
}

/// One committed unit handed to a [`commit_round`] sink: either a single
/// per-edge message already resolved to its destination arena slot, or a
/// broadcast payload the sink stores once for its sender (the storage/wire
/// fast path — the CONGEST charge for all `deg` copies has already been
/// applied by the time the sink sees it).
#[derive(Debug)]
pub enum Committed<M> {
    /// One message for one destination arena slot.
    Edge(usize, M),
    /// One broadcast payload standing for a copy to every neighbor; sinks
    /// store it as the sender's [`ArenaDelivery::queue_broadcast`] entry,
    /// which each neighbor's [`Inbox`] reads through its own neighbor list.
    Fan(M),
}

/// Drains one node's staged output: resolves each send to its destination
/// arena slot through `mirror`, charges it into `acct`, and hands each
/// committed unit to `sink` in send order.
///
/// This is the single per-message commit primitive behind [`commit_round`],
/// which every backend commits through, so the check order —
/// [`INVALID_SLOT`] → [`ExecutionError::NotANeighbor`] first, then
/// the bandwidth charge and (if enforced) [`ExecutionError::BandwidthExceeded`]
/// — is identical everywhere and first-error behavior cannot drift between
/// backends. On an error the remaining queued messages are discarded
/// uncharged, exactly as in sequential execution.
///
/// A pending broadcast (one stored payload — the fast path [`Outbox::broadcast`]
/// takes on an otherwise empty outbox) is charged in one step that is
/// arithmetically identical to committing the `deg` materialized copies the
/// legacy path produced: the max-update is idempotent across identical
/// messages, the per-message violation/message counts become one `+= deg`,
/// and the saturating bit sum `deg × bits` clamps at the same ceiling any
/// sequential partial sum would have clamped at. It then reaches `sink` as a
/// single [`Committed::Fan`]; per-edge sends arrive as [`Committed::Edge`]
/// with the destination slot resolved. `acct.payloads` counts stored
/// payloads — `1` for the whole broadcast versus `deg` for the materialized
/// equivalent — which is the only field where the two paths differ.
///
/// `slot_base` is `graph.slot_range(from).start` and `degree` the length of
/// that range; `invalid_to` is the outbox's recorded first non-neighbor
/// target.
#[allow(clippy::too_many_arguments)]
fn drain_outbox<M: MessageSize>(
    mirror: &[usize],
    slot_base: usize,
    degree: usize,
    from: NodeId,
    pending: &mut Pending<M>,
    invalid_to: Option<NodeId>,
    bandwidth: usize,
    enforce: bool,
    acct: &mut Accounting,
    mut sink: impl FnMut(Committed<M>),
) -> Result<(), ExecutionError> {
    if let Some(msg) = pending.broadcast.take() {
        debug_assert!(pending.sends.is_empty(), "broadcast implies no sends");
        if degree == 0 {
            return Ok(());
        }
        let bits = msg.size_bits();
        acct.max_message_bits = acct.max_message_bits.max(bits);
        if bits > bandwidth {
            if enforce {
                // Sequential execution errors on the first copy: one
                // violation charged, no messages.
                acct.violations += 1;
                return Err(ExecutionError::BandwidthExceeded {
                    from,
                    bits,
                    budget: bandwidth,
                });
            }
            acct.violations += degree as u64;
        }
        acct.messages += degree as u64;
        acct.bits = acct
            .bits
            .saturating_add((bits as u64).saturating_mul(degree as u64));
        acct.payloads += 1;
        sink(Committed::Fan(msg));
        return Ok(());
    }
    for OutMsg { slot: i, msg } in pending.sends.drain(..) {
        if i == INVALID_SLOT {
            // The outbox records the first non-neighbor target, which is
            // exactly the send this first sentinel belongs to.
            let to = invalid_to.expect("invalid slot without recorded target");
            return Err(ExecutionError::NotANeighbor { from, to });
        }
        let bits = msg.size_bits();
        acct.max_message_bits = acct.max_message_bits.max(bits);
        if bits > bandwidth {
            acct.violations += 1;
            if enforce {
                return Err(ExecutionError::BandwidthExceeded {
                    from,
                    bits,
                    budget: bandwidth,
                });
            }
        }
        acct.messages += 1;
        acct.payloads += 1;
        acct.bits = acct.bits.saturating_add(bits as u64);
        sink(Committed::Edge(mirror[slot_base + i as usize], msg));
    }
    Ok(())
}

/// Executes one round for one contiguous node block: the execute half of
/// every backend's round.
///
/// Builds the round's active list in `wake` from `arena`'s delivered slots
/// and broadcasters (see [`WakeState`]), then runs `init` (round `0`) or
/// `round` for exactly those nodes, staging their sends into
/// `pending`/`invalid` for [`commit_round`] and recording each node's
/// [`RoundAction`] in `wake`.
/// The other tables are the block's slices of the node-indexed tables, and
/// a halting node's output lands in `outputs`.
///
/// [`SyncExecutor`] calls this once over all nodes, each pooled worker on its
/// block, and each socket process on its shard.
#[allow(clippy::too_many_arguments)]
pub fn execute_block<P: NodeProgram>(
    graph: &Graph,
    round: u64,
    arena: &ArenaDelivery<P::Message>,
    programs: &mut [P],
    wake: &mut WakeState,
    outputs: &mut [Option<P::Output>],
    pending: &mut [Pending<P::Message>],
    invalid: &mut [Option<NodeId>],
) -> Executed {
    if round > 0 {
        wake.prepare(graph, round, arena.delivered(), arena.broadcasters());
    }
    // An empty source is handed on as an empty slice, so a round of only
    // broadcasts never reads the slot arena and a round without broadcasts
    // never reads the table.
    let slots = if arena.delivered().is_empty() {
        &[]
    } else {
        arena.current()
    };
    let bcast = if arena.broadcasters().is_empty() {
        &[]
    } else {
        arena.broadcasts()
    };
    let WakeState {
        first,
        wake: state,
        active,
        next,
        timers,
        sleepers,
        ..
    } = wake;
    let mut halted = 0;
    for &i in active.iter() {
        let k = i as usize;
        let id = NodeId(*first + k);
        let ctx = NodeContext { id, graph, round };
        pending[k].clear();
        invalid[k] = None;
        let mut outbox = Outbox::over(graph.neighbors(id), &mut pending[k], &mut invalid[k]);
        if round == 0 {
            programs[k].init(&ctx, &mut outbox);
            next.push(i);
            continue;
        }
        let own = if slots.is_empty() {
            &[]
        } else {
            &slots[graph.slot_range(id)]
        };
        let inbox = Inbox::over(graph.neighbors(id), own, bcast);
        match programs[k].round(&ctx, &inbox, &mut outbox) {
            RoundAction::Continue => next.push(i),
            RoundAction::SleepUntil(at) if at <= round + 1 => next.push(i),
            RoundAction::SleepUntil(at) => {
                state[k] = at;
                if at != u64::MAX {
                    timers.push(Reverse((at, i)));
                }
                *sleepers += 1;
            }
            RoundAction::Halt(out) => {
                outputs[k] = Some(out);
                state[k] = HALTED;
                halted += 1;
                pending[k].clear();
            }
        }
    }
    let active = active.len();
    wake.trim_timers();
    Executed { active, halted }
}

/// Commits the staged outputs of the nodes that ran in `wake`'s block this
/// round, in node order: the commit half of every backend's round.
///
/// Each message is charged into `acct` against `bandwidth` and handed to
/// `sink` with its sender, in send order (see [`Committed`]). The first send
/// to a non-neighbor, or over an enforced budget, fails the commit with
/// [`ExecutionError::NotANeighbor`] or [`ExecutionError::BandwidthExceeded`];
/// nothing after it is charged or handed on, exactly as in sequential
/// execution. Nodes that did not run staged nothing, so walking only the
/// active list commits exactly what a walk over the whole block would.
///
/// Committing blocks in block order is committing all nodes in node order,
/// so every backend shares this path and only the sink differs: the
/// in-process executors queue into their arena, the socket backend queues
/// its own slots and stages the rest for its peer.
#[allow(clippy::too_many_arguments)]
pub fn commit_round<M: MessageSize>(
    graph: &Graph,
    wake: &WakeState,
    pending: &mut [Pending<M>],
    invalid: &[Option<NodeId>],
    acct: &mut Accounting,
    bandwidth: usize,
    enforce: bool,
    mut sink: impl FnMut(NodeId, Committed<M>),
) -> Result<(), ExecutionError> {
    let mirror = &graph.topology().mirror;
    for &i in &wake.active {
        let (k, from) = (i as usize, NodeId(wake.first + i as usize));
        let range = graph.slot_range(from);
        drain_outbox(
            mirror,
            range.start,
            range.len(),
            from,
            &mut pending[k],
            invalid[k],
            bandwidth,
            enforce,
            acct,
            |unit| sink(from, unit),
        )?;
    }
    Ok(())
}

/// The [`commit_round`] sink of the in-process executors: queues a per-edge
/// message into its arena slot and a broadcast as its sender's one table
/// entry, which every neighbor's [`Inbox`] reads the same value from that
/// the materialized per-edge copies would have carried.
pub(crate) fn arena_sink<M>(
    delivery: &mut ArenaDelivery<M>,
) -> impl FnMut(NodeId, Committed<M>) + '_ {
    move |from, unit| match unit {
        Committed::Edge(slot, msg) => delivery.queue(slot, msg),
        Committed::Fan(msg) => {
            let fresh = delivery.queue_broadcast(from, msg);
            debug_assert!(fresh, "one broadcast per sender per round");
        }
    }
}

/// Loop control shared by every backend: the program-count check, the
/// bandwidth budget, the round counter and limit, halt detection, the run
/// totals and the per-round [`RoundStats`].
///
/// A backend builds one per run, drives its rounds through
/// [`RoundLoop::run`] and assembles the report with [`RoundLoop::report`].
pub struct RoundLoop<'c> {
    config: &'c ExecutorConfig,
    n: usize,
    bandwidth: usize,
    rounds: u64,
    acct: Accounting,
    round_stats: Vec<RoundStats>,
}

impl<'c> RoundLoop<'c> {
    /// Checks that `programs` programs fit `graph` and resolves the budget.
    ///
    /// # Errors
    ///
    /// [`ExecutionError::ProgramCountMismatch`] if `programs` is not the
    /// graph's node count.
    pub fn new(
        graph: &Graph,
        programs: usize,
        config: &'c ExecutorConfig,
    ) -> Result<Self, ExecutionError> {
        let n = graph.n();
        if programs != n {
            return Err(ExecutionError::ProgramCountMismatch { programs, nodes: n });
        }
        Ok(RoundLoop {
            config,
            n,
            bandwidth: config
                .bandwidth_bits
                .unwrap_or_else(|| crate::congest_bandwidth_bits(n)),
            rounds: 0,
            acct: Accounting::default(),
            round_stats: Vec::new(),
        })
    }

    /// The budget every message of the run is charged against: the
    /// configured `bandwidth_bits`, or [`crate::congest_bandwidth_bits`] of
    /// the graph.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Calls `step(round, acct)` for round `0` (`init`) and then for every
    /// further round until all nodes have halted. `step` executes the round,
    /// commits it into `acct` (fresh each round) and advances the arena; it
    /// returns how many nodes ran and halted in the round.
    ///
    /// # Errors
    ///
    /// The first error `step` returns, or
    /// [`ExecutionError::RoundLimitExceeded`] once `max_rounds` rounds have
    /// run and a node is still live — sleeping or not.
    pub fn run<E, F>(&mut self, mut step: F) -> Result<(), E>
    where
        E: From<ExecutionError>,
        F: FnMut(u64, &mut Accounting) -> Result<Executed, E>,
    {
        let mut halted = 0;
        loop {
            let mut round = Accounting::default();
            let executed = step(self.rounds, &mut round)?;
            halted += executed.halted;
            self.acct.fold(&round);
            self.round_stats.push(RoundStats {
                round: self.rounds,
                messages: round.messages,
                bits: round.bits,
                halted,
                active: executed.active,
            });
            if halted == self.n {
                return Ok(());
            }
            if self.rounds >= self.config.max_rounds {
                return Err(ExecutionError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                }
                .into());
            }
            self.rounds += 1;
        }
    }

    /// The report of a completed [`RoundLoop::run`]; `outputs` is indexed by
    /// node id.
    ///
    /// # Panics
    ///
    /// If a node has no output, i.e. the run did not complete.
    pub fn report<O>(self, outputs: Vec<Option<O>>) -> RunReport<O> {
        RunReport {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("halted node has output"))
                .collect(),
            rounds: self.rounds,
            messages: self.acct.messages,
            payloads: self.acct.payloads,
            total_bits: self.acct.bits,
            max_message_bits: self.acct.max_message_bits,
            bandwidth_violations: self.acct.violations,
            bandwidth_bits: self.bandwidth,
            round_stats: self.round_stats,
        }
    }
}

/// The sequential round loop over an [`ArenaDelivery`]. [`SyncExecutor`]
/// runs it directly; the pool falls back to it when a graph is too small to
/// split.
pub(crate) fn run_engine<P: NodeProgram>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
) -> Result<RunReport<P::Output>, ExecutionError> {
    let mut rounds = RoundLoop::new(graph, programs.len(), config)?;
    let (n, bandwidth) = (graph.n(), rounds.bandwidth());
    let mut delivery = ArenaDelivery::new(graph);
    let mut outputs: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut wake = WakeState::new(graph, 0..n);
    // Outboxes start empty: a lone broadcast stores one payload (no per-edge
    // materialization), and mixed send patterns grow their vec once and keep
    // the capacity across rounds.
    let mut pending: Vec<Pending<P::Message>> =
        std::iter::repeat_with(Pending::new).take(n).collect();
    let mut invalid: Vec<Option<NodeId>> = vec![None; n];

    rounds.run(|round, acct| -> Result<Executed, ExecutionError> {
        let executed = execute_block(
            graph,
            round,
            &delivery,
            &mut programs,
            &mut wake,
            &mut outputs,
            &mut pending,
            &mut invalid,
        );
        commit_round(
            graph,
            &wake,
            &mut pending,
            &invalid,
            acct,
            bandwidth,
            config.enforce_bandwidth,
            arena_sink(&mut delivery),
        )?;
        delivery.advance();
        Ok(executed)
    })?;
    Ok(rounds.report(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PooledExecutor;
    use crate::program::{Inbox, NodeContext, Outbox, RoundAction};
    use crate::RoundLedger;

    /// Every node floods its identifier for `k` rounds and outputs the
    /// smallest identifier it has heard of — after `diameter` rounds every
    /// node knows the global minimum.
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
            if ctx.round >= self.rounds {
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

    #[test]
    fn min_id_flood_converges_on_a_path() {
        let g = path_graph(6);
        let report = SyncExecutor
            .run(&g, min_id_programs(6, 6), &ExecutorConfig::default())
            .unwrap();
        assert!(report.outputs.iter().all(|&o| o == 0));
        assert_eq!(report.rounds, 6);
        assert!(report.messages > 0);
        assert!(report.max_message_bits <= report.bandwidth_bits);
        assert_eq!(report.bandwidth_violations, 0);
        // init + 6 executed rounds of statistics.
        assert_eq!(report.round_stats.len(), 7);
        assert_eq!(report.round_stats[0].round, 0);
        assert_eq!(
            report.round_stats.iter().map(|r| r.messages).sum::<u64>(),
            report.messages
        );
        assert_eq!(report.round_stats.last().unwrap().halted, 6);
        assert!(report.total_bits > 0);
    }

    #[test]
    fn broadcast_charges_per_edge_but_stores_one_payload_per_node() {
        let g = path_graph(6);
        let report = SyncExecutor
            .run(&g, min_id_programs(6, 6), &ExecutorConfig::default())
            .unwrap();
        // Every node broadcasts in init and rounds 1–5: 6 node-rounds × 6
        // nodes store one payload each, while the CONGEST charge stays one
        // message per edge copy (sum of degrees = 10 per broadcasting round).
        assert_eq!(report.payloads, 36);
        assert_eq!(report.messages, 60);
    }

    #[test]
    fn explicit_sends_charge_one_payload_per_message() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| DoubleSender { heard: None }).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.messages, 2);
        assert_eq!(report.payloads, 2, "per-edge sends store per-edge payloads");
    }

    #[test]
    fn too_few_rounds_does_not_converge() {
        let g = path_graph(8);
        let report = SyncExecutor
            .run(&g, min_id_programs(8, 2), &ExecutorConfig::default())
            .unwrap();
        // Node 7 is at distance 7 from node 0; after 2 rounds it cannot know 0.
        assert_ne!(report.outputs[7], 0);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for threads in [1usize, 2, 3, 5, 16, 64] {
            let par = PooledExecutor::new(threads)
                .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn program_count_mismatch_is_an_error() {
        let g = path_graph(3);
        let programs: Vec<MinId> = vec![];
        let err = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
    }

    struct BadSender;
    impl NodeProgram for BadSender {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.id.0 == 0 {
                // Node 2 is not a neighbor of node 0 on a path.
                outbox.send(NodeId(2), 1);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            _: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn sending_to_non_neighbor_is_an_error() {
        let g = path_graph(3);
        let programs: Vec<_> = (0..3).map(|_| BadSender).collect();
        let seq = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(seq, ExecutionError::NotANeighbor { .. }));
        let programs: Vec<_> = (0..3).map(|_| BadSender).collect();
        let par = PooledExecutor::new(4)
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert_eq!(seq, par, "executors agree on the first error");
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
    fn round_limit_is_enforced() {
        for max_rounds in [0u64, 1, 10] {
            let g = path_graph(2);
            let programs: Vec<_> = (0..2).map(|_| NeverHalts).collect();
            let config = ExecutorConfig {
                max_rounds,
                ..ExecutorConfig::default()
            };
            let err = SyncExecutor.run(&g, programs, &config).unwrap_err();
            assert_eq!(
                err,
                ExecutionError::RoundLimitExceeded { limit: max_rounds }
            );
        }
    }

    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, _: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
            outbox.broadcast(vec![0u64; 64]);
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
    fn bandwidth_violations_counted_and_enforced() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert!(report.bandwidth_violations > 0);

        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let err = SyncExecutor
            .run(&g, programs, &ExecutorConfig::strict_congest())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::BandwidthExceeded { .. }));

        // The same messages are fine in the LOCAL model, and the saturating
        // charging path digests the usize::MAX budget without overflow.
        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::local_model())
            .unwrap();
        assert_eq!(report.bandwidth_violations, 0);
        assert_eq!(report.bandwidth_bits, usize::MAX);
        assert!(report.total_bits > 0);
    }

    /// Sends twice to the same neighbor in one round: the engine charges both
    /// but delivers only the last (one message per edge per round).
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
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.outputs[1], Some(9));
        assert_eq!(report.messages, 2, "both sends are charged");
    }

    /// Triple-sends every round: the arena delivers one message per edge per
    /// round (the last one), every send is charged, the deduped written-slot
    /// list keeps the sparse clear linear in *slots*, and executors agree.
    struct TripleSender {
        limit: u64,
        last: Option<u32>,
    }
    impl NodeProgram for TripleSender {
        type Message = u32;
        type Output = Option<u32>;
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
            if ctx.id.0 == 0 {
                for k in 0..3 {
                    outbox.send(NodeId(1), k);
                }
            }
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, u32>,
        ) -> RoundAction<Option<u32>> {
            if let Some(&m) = inbox.from(NodeId(0)) {
                self.last = Some(m);
            }
            if ctx.round >= self.limit {
                return RoundAction::Halt(self.last);
            }
            if ctx.id.0 == 0 {
                for k in 0..3 {
                    outbox.send(NodeId(1), 100 * ctx.round as u32 + k);
                }
            }
            RoundAction::Continue
        }
    }

    #[test]
    fn duplicate_sends_across_rounds_stay_deduped_and_fully_charged() {
        let g = path_graph(2);
        let mk = || {
            (0..2)
                .map(|_| TripleSender {
                    limit: 3,
                    last: None,
                })
                .collect::<Vec<_>>()
        };
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        // Last of round 2's batch survives; init + rounds 1–2 charge 3 each.
        assert_eq!(seq.outputs[1], Some(202));
        assert_eq!(seq.messages, 9, "every duplicate send is charged");
        assert_eq!(seq.rounds, 3);
        let par = PooledExecutor::new(3)
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_graph_runs_zero_rounds() {
        let g = Graph::empty(0);
        let report = SyncExecutor
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.rounds, 0);
        assert!(report.outputs.is_empty());
    }

    #[test]
    fn report_charges_ledger_through_unified_path() {
        let g = path_graph(5);
        let report = SyncExecutor
            .run(&g, min_id_programs(5, 5), &ExecutorConfig::default())
            .unwrap();
        let mut ledger = RoundLedger::new();
        let (rounds, messages, payloads) = (report.rounds, report.messages, report.payloads);
        ledger.record("min-id flood", rounds, None, messages, payloads);
        ledger.record("min-id flood vs bound", rounds, Some(5), messages, payloads);
        assert_eq!(ledger.total_simulated_rounds(), 2 * report.rounds);
        assert_eq!(ledger.total_messages(), 2 * report.messages);
        assert_eq!(ledger.phases()[1].formula_rounds, Some(5));
    }
}
