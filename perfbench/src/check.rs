//! Certification of every solve, in release builds where the pipeline's own
//! `debug_assert!`s are compiled out.

use congest_sim::{Graph, RoundLedger};
use mds_cds::verify::is_connected_dominating_set;
use mds_core::verify::is_dominating_set;

use crate::workload::{Solution, Workload};

/// The old `experiments --json` sweep's n = 10⁴ sync row: what `thm12-gnm`
/// must reproduce exactly on seed 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// |D|.
    pub size: usize,
    /// Ledger rounds.
    pub rounds: u64,
    /// Ledger messages.
    pub messages: u64,
    /// Ledger payloads.
    pub payloads: u64,
}

/// Seed of the recorded `gnm` reference row.
pub const REFERENCE_SEED: u64 = 3;

/// The recorded `gnm(10⁴, 4·10⁴)` Theorem 1.2 row of seed 3.
pub const GNM_SEED3: Reference = Reference {
    size: 2016,
    rounds: 1251,
    messages: 74_640_740,
    payloads: 9_462_848,
};

/// The reference a solve of `workload` on generator seed `seed` must match.
pub fn reference(workload: Workload, seed: u64) -> Option<Reference> {
    match workload {
        Workload::Thm12Gnm if seed == REFERENCE_SEED => Some(GNM_SEED3),
        _ => None,
    }
}

/// Checks one solve of `workload` on `graph`. Returns every reason it fails.
///
/// A solve fails if D is not an integral, feasible dominating set, if |D|
/// exceeds `guarantee(g) · lp_lower_bound`, if any ledger phase with a
/// formula measured more rounds than it charges, if (on `thm14-udg`) the
/// delivered set is not a connected dominating set containing D, or if it
/// differs from the recorded reference row.
pub fn certify(
    workload: Workload,
    graph: &Graph,
    seed_used: u64,
    sol: &Solution,
) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let mds = &sol.mds;
    if !mds.assignment.is_integral() {
        errors.push("assignment is not integral".to_owned());
    }
    if !mds.assignment.is_feasible_dominating_set(graph) {
        errors.push("assignment is not a feasible dominating set".to_owned());
    }
    if mds.dominating_set != mds.assignment.selected_nodes() {
        errors.push("dominating set differs from the assignment's support".to_owned());
    }
    if !is_dominating_set(graph, &mds.dominating_set) {
        errors.push("output is not a dominating set".to_owned());
    }
    let bound = mds.guarantee(graph) * mds.lp_lower_bound;
    if !bound.is_finite() || mds.size() as f64 > bound {
        errors.push(format!(
            "|D| = {} exceeds guarantee · LP bound = {bound}",
            mds.size()
        ));
    }
    check_ledger(&mds.ledger, &mut errors);
    match (&sol.cds, workload) {
        (Some(cds), Workload::Thm14Udg) => {
            check_ledger(&cds.ledger, &mut errors);
            if !is_connected_dominating_set(graph, &cds.cds) {
                errors.push("output is not a connected dominating set".to_owned());
            }
            let mut in_cds = vec![false; graph.n()];
            for v in &cds.cds {
                in_cds[v.0] = true;
            }
            if !mds.dominating_set.iter().all(|v| in_cds[v.0]) {
                errors.push("CDS does not contain D".to_owned());
            }
        }
        (None, Workload::Thm12Gnm) => {}
        _ => errors.push("CDS present exactly on thm14-udg violated".to_owned()),
    }
    if let Some(want) = reference(workload, seed_used) {
        let got = Reference {
            size: mds.size(),
            rounds: sol.rounds(),
            messages: sol.messages(),
            payloads: sol.payloads(),
        };
        if got != want {
            errors.push(format!("seed {seed_used}: {got:?} differs from {want:?}"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Flags every phase whose measured (or simulated) rounds exceed its charge.
fn check_ledger(ledger: &RoundLedger, errors: &mut Vec<String>) {
    for p in ledger.phases() {
        if let Some(formula) = p.formula_rounds {
            if p.simulated_rounds > formula {
                errors.push(format!(
                    "phase '{}' ran {} rounds, above its charge {formula}",
                    p.name, p.simulated_rounds
                ));
            }
        }
    }
}

/// Whether two solves of the same input delivered the same output: dominating
/// set, assignment, ledger, stages, LP bound and CDS. The phase trace is
/// compared without its host wall stamps.
pub fn same_output(a: &Solution, b: &Solution) -> bool {
    let phases = |s: &Solution| {
        s.mds
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.mode, p.rounds, p.messages))
            .collect::<Vec<_>>()
    };
    a.mds.dominating_set == b.mds.dominating_set
        && a.mds.assignment == b.mds.assignment
        && a.mds.ledger == b.mds.ledger
        && a.mds.stages == b.mds.stages
        && a.mds.lp_lower_bound.to_bits() == b.mds.lp_lower_bound.to_bits()
        && a.mds.epsilon.to_bits() == b.mds.epsilon.to_bits()
        && phases(a) == phases(b)
        && a.cds == b.cds
}
