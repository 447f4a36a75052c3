//! The benchmark workloads: how each builds its input from the seed and which
//! public pipeline calls make up one solve.

use congest_sim::{Executor, Graph};
use mds_cds::build::{connect_dominating_set, CdsConfig, CdsResult};
use mds_core::pipeline::{theorem_1_1_on, theorem_1_2_on, MdsConfig, MdsResult};
use mds_graphs::{analysis, generators};

/// Nodes of the `thm12-gnm` input.
pub const GNM_N: usize = 10_000;
/// Edges of the `thm12-gnm` input.
pub const GNM_M: usize = 40_000;
/// Nodes of the unit-disk workload.
pub const UDG_N: usize = 3_000;
/// Radius of the unit-disk workload.
pub const UDG_R: f64 = 0.04;
/// How many seeds the unit-disk workload tries for a connected instance.
pub const UDG_MAX_ATTEMPTS: u64 = 1_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.2 on `SyncExecutor` over `gnm(10⁴, 4·10⁴)`.
    Thm12Gnm,
    /// Theorem 1.1 plus `connect_dominating_set` (Theorem 1.4) on
    /// `SyncExecutor` over a connected `unit_disk(3000, 0.04)`.
    Thm14Udg,
}

/// A workload's generated input and how it was found.
#[derive(Debug)]
pub struct Input {
    /// The graph every solve of the run receives.
    pub graph: Graph,
    /// The generator seed that produced `graph`.
    pub seed_used: u64,
    /// Generator calls made to find it (the unit-disk search for a
    /// connected instance may need more than one).
    pub attempts: u64,
}

/// The output of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The pipeline result.
    pub mds: MdsResult,
    /// The connected dominating set built from it (`thm14-udg` only).
    pub cds: Option<CdsResult>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Thm12Gnm, Workload::Thm14Udg];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm12Gnm => "thm12-gnm",
            Workload::Thm14Udg => "thm14-udg",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's input from `seed`; the same seed always
    /// gives the same graph. The unit-disk workload takes the first
    /// connected instance at or after `seed`.
    pub fn input(self, seed: u64) -> Result<Input, String> {
        match self {
            Workload::Thm12Gnm => Ok(Input {
                graph: generators::gnm(GNM_N, GNM_M, seed),
                seed_used: seed,
                attempts: 1,
            }),
            Workload::Thm14Udg => {
                for attempt in 0..UDG_MAX_ATTEMPTS {
                    let s = seed.wrapping_add(attempt);
                    let graph = generators::unit_disk(UDG_N, UDG_R, s);
                    if analysis::is_connected(&graph) {
                        return Ok(Input {
                            graph,
                            seed_used: s,
                            attempts: attempt + 1,
                        });
                    }
                }
                Err(format!(
                    "no connected unit_disk({UDG_N}, {UDG_R}) in seeds {seed}..+{UDG_MAX_ATTEMPTS}"
                ))
            }
        }
    }

    /// The pipeline part of a solve.
    pub fn pipeline<E: Executor>(self, graph: &Graph, executor: &E) -> MdsResult {
        let config = MdsConfig::default();
        match self {
            Workload::Thm12Gnm => theorem_1_2_on(graph, &config, executor),
            Workload::Thm14Udg => theorem_1_1_on(graph, &config, executor),
        }
    }

    /// The post-pipeline part of a solve: the Theorem 1.4 connection step on
    /// `thm14-udg`, nothing elsewhere.
    pub fn connect(self, graph: &Graph, mds: &MdsResult) -> Option<CdsResult> {
        match self {
            Workload::Thm14Udg => Some(connect_dominating_set(
                graph,
                &mds.dominating_set,
                &CdsConfig::default(),
            )),
            Workload::Thm12Gnm => None,
        }
    }

    /// One full solve.
    pub fn solve<E: Executor>(self, graph: &Graph, executor: &E) -> Solution {
        let mds = self.pipeline(graph, executor);
        let cds = self.connect(graph, &mds);
        Solution { mds, cds }
    }
}

impl Solution {
    /// Ledger total of CONGEST rounds, measured plus charged, including the
    /// CDS ledger.
    pub fn rounds(&self) -> u64 {
        self.mds.ledger.total_simulated_rounds()
            + self
                .cds
                .as_ref()
                .map_or(0, |c| c.ledger.total_simulated_rounds())
    }

    /// Ledger total of charged CONGEST messages, including the CDS ledger.
    pub fn messages(&self) -> u64 {
        self.mds.ledger.total_messages()
            + self.cds.as_ref().map_or(0, |c| c.ledger.total_messages())
    }

    /// Ledger total of stored payloads, including the CDS ledger.
    pub fn payloads(&self) -> u64 {
        self.mds.ledger.total_payloads()
            + self.cds.as_ref().map_or(0, |c| c.ledger.total_payloads())
    }

    /// |D| / LP lower bound.
    pub fn approx_ratio(&self) -> f64 {
        self.mds.size() as f64 / self.mds.lp_lower_bound
    }

    /// Size of the delivered set over |D|: the CDS on `thm14-udg`, and D
    /// itself (exactly 1) where no CDS is built.
    pub fn cds_overhead(&self) -> f64 {
        self.cds.as_ref().map_or(self.mds.size(), |c| c.size()) as f64 / self.mds.size() as f64
    }
}
