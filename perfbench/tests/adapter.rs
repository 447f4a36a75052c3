//! The timing adapter is transparent, attributes engine runs by node-program
//! type, and the certification rejects what it should.

use congest_sim::{Executor, Graph, PhaseMode, PooledExecutor, SyncExecutor};
use mds_core::pipeline::{central_oracle, run_on, DerandRoute, MdsConfig, MdsResult};
use mds_decomposition::coloring::DistanceTwoColoringProgram;
use mds_decomposition::netdecomp::NetDecompProgram;
use mds_fractional::lp::DistributedLpProgram;
use mds_graphs::{analysis, generators};
use mds_rounding::derandomize::ScheduledDerandProgram;
use perfbench::check::{certify, reference, same_output, GNM_SEED3};
use perfbench::timed::{EngineRun, Layer, TimedExecutor, Totals};
use perfbench::workload::{Solution, Workload};

const ROUTES: [DerandRoute; 2] = [
    DerandRoute::NetworkDecomposition { k: 2 },
    DerandRoute::Coloring,
];

fn small_graphs() -> Vec<Graph> {
    let mut graphs: Vec<Graph> = (0..4).map(|s| generators::gnp(40, 0.12, s)).collect();
    let udg = (0..100)
        .map(|s| generators::unit_disk(60, 0.3, s))
        .find(analysis::is_connected)
        .expect("a connected small unit-disk graph");
    graphs.push(udg);
    graphs
}

fn config(route: &DerandRoute) -> MdsConfig {
    MdsConfig {
        route: route.clone(),
        ..MdsConfig::default()
    }
}

fn wrapped<E: Executor>(
    graph: &Graph,
    config: &MdsConfig,
    inner: &E,
) -> (MdsResult, Vec<EngineRun>) {
    let timed = TimedExecutor::new(inner);
    let result = run_on(graph, config, &timed);
    (result, timed.take_runs())
}

fn solution(mds: MdsResult) -> Solution {
    Solution { mds, cds: None }
}

#[test]
fn wrapped_solve_equals_plain_solve_and_central_oracle() {
    for graph in small_graphs() {
        for route in &ROUTES {
            let config = config(route);
            let plain = run_on(&graph, &config, &SyncExecutor);
            let oracle = central_oracle(&graph, &config);
            for (result, _) in [
                wrapped(&graph, &config, &SyncExecutor),
                wrapped(&graph, &config, &PooledExecutor::new(2)),
            ] {
                assert!(same_output(
                    &solution(result.clone()),
                    &solution(plain.clone())
                ));
                assert_eq!(result.ledger, plain.ledger);
                // The oracle charges closed-form costs where the engine
                // measures, so only its decisions are compared.
                assert_eq!(result.dominating_set, oracle.dominating_set);
                assert_eq!(result.assignment, oracle.assignment);
                assert_eq!(result.stages, oracle.stages);
            }
        }
    }
}

#[test]
fn every_measured_phase_is_one_recorded_run_with_its_counts() {
    for graph in small_graphs() {
        for route in &ROUTES {
            let (result, runs) = wrapped(&graph, &config(route), &SyncExecutor);
            let measured: Vec<_> = result
                .phases
                .iter()
                .filter(|p| p.mode == PhaseMode::Measured)
                .collect();
            assert_eq!(runs.len(), measured.len());
            for (run, phase) in runs.iter().zip(&measured) {
                assert_eq!(
                    (run.counts.rounds, run.counts.messages),
                    (phase.rounds, phase.messages)
                );
                assert!(run.end >= run.start);
                assert!(run.counts.node_rounds <= run.counts.rounds * graph.n() as u64);
                assert!(run.counts.idle_rounds <= run.counts.rounds);
            }
        }
    }
}

#[test]
fn runs_are_attributed_by_program_type_never_netdecomp_to_derand() {
    let of = |runs: &[EngineRun], layers: &[Layer]| Totals::of(runs, layers);
    for graph in small_graphs() {
        let (nd, runs) = wrapped(&graph, &config(&ROUTES[0]), &SyncExecutor);
        assert_eq!(of(&runs, &[Layer::Mwu]).runs, 1);
        assert_eq!(of(&runs, &[Layer::NetDecomp]).runs, 1);
        assert_eq!(of(&runs, &[Layer::Coloring, Layer::Other]).runs, 0);
        assert_eq!(
            of(&runs, &[Layer::NetDecomp]).rounds,
            nd.measured_netdecomp_rounds()
        );
        assert_eq!(of(&runs, &Layer::ALL).rounds, nd.measured_engine_rounds());

        let (col, runs) = wrapped(&graph, &config(&ROUTES[1]), &SyncExecutor);
        assert_eq!(of(&runs, &[Layer::Mwu]).runs, 1);
        assert_eq!(of(&runs, &[Layer::NetDecomp, Layer::Other]).runs, 0);
        assert_eq!(
            of(&runs, &[Layer::Coloring]).rounds,
            col.measured_coloring_rounds()
        );
        assert_eq!(of(&runs, &Layer::ALL).rounds, col.measured_engine_rounds());
    }
}

#[test]
fn layer_of_matches_exact_program_types() {
    assert_eq!(Layer::of::<DistributedLpProgram>(), Layer::Mwu);
    assert_eq!(Layer::of::<NetDecompProgram>(), Layer::NetDecomp);
    assert_eq!(Layer::of::<DistanceTwoColoringProgram>(), Layer::Coloring);
    assert_eq!(Layer::of::<ScheduledDerandProgram>(), Layer::Derand);
    assert_eq!(Layer::of::<Vec<ScheduledDerandProgram>>(), Layer::Other);
    assert_eq!(Layer::of::<u32>(), Layer::Other);
}

#[test]
fn certification_accepts_solves_and_rejects_broken_outputs() {
    let graph = small_graphs().remove(0);
    let good = solution(run_on(&graph, &config(&ROUTES[1]), &SyncExecutor));
    assert_eq!(certify(Workload::Thm12Gnm, &graph, 0, &good), Ok(()));

    // Dropping a dominator breaks feasibility and the support check.
    let mut broken = good.clone();
    let v = broken.mds.dominating_set.remove(0);
    broken.mds.assignment.set(v, 0.0);
    assert!(certify(Workload::Thm12Gnm, &graph, 0, &broken).is_err());
    assert!(!same_output(&broken, &good));

    // A fractional value is not integral.
    let mut fractional = good.clone();
    fractional.mds.assignment.set(v, 0.5);
    assert!(certify(Workload::Thm12Gnm, &graph, 0, &fractional).is_err());

    // The unit-disk workload demands a CDS.
    assert!(certify(Workload::Thm14Udg, &graph, 0, &good).is_err());
}

#[test]
fn thm14_solve_is_a_certified_connected_dominating_set() {
    let graph = small_graphs().pop().expect("the connected unit-disk graph");
    let sol = Workload::Thm14Udg.solve(&graph, &SyncExecutor);
    assert!(sol.cds.is_some());
    assert_eq!(certify(Workload::Thm14Udg, &graph, 0, &sol), Ok(()));
    assert!(sol.cds_overhead() >= 1.0);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        let a = w.input(11).expect("input");
        let b = w.input(11).expect("input");
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.seed_used, b.seed_used);
        assert!(a.seed_used >= 11);
        assert!(analysis::is_connected(&a.graph) || w != Workload::Thm14Udg);
    }
    assert_eq!(
        Workload::Thm12Gnm.input(3).expect("input").graph.m(),
        40_000
    );
    assert_eq!(reference(Workload::Thm12Gnm, 3), Some(GNM_SEED3));
    assert_eq!(reference(Workload::Thm12Gnm, 4), None);
    assert_eq!(reference(Workload::Thm14Udg, 3), None);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("thm12"), None);
}
