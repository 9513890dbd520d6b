//! Cross-measure axioms and diagnostics over catalogue data: identity,
//! symmetry, and the tightness ordering the paper establishes
//! (`Dist_LB ≤ Dist_PAR ≲ Dist ≲ Dist_AE` on average).

use sapla_baselines::{all_reducers, Reducer, SaplaReducer};
use sapla_core::Representation;
use sapla_data::{catalogue, Protocol};
use sapla_distance::{dist_ae, dist_lb, dist_par, euclidean, rep_distance};

fn protocol() -> Protocol {
    Protocol { series_len: 96, series_per_dataset: 6, queries_per_dataset: 2 }
}

#[test]
fn rep_distance_identity_and_symmetry_for_every_method() {
    let ds = catalogue()[4].load(&protocol());
    for reducer in all_reducers() {
        let reps: Vec<Representation> =
            ds.series.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        for (i, a) in reps.iter().enumerate() {
            // Identity: d(x, x) = 0.
            assert!(rep_distance(a, a).unwrap() < 1e-9, "{}: d(x,x) != 0", reducer.name());
            for b in &reps[i + 1..] {
                let ab = rep_distance(a, b).unwrap();
                let ba = rep_distance(b, a).unwrap();
                assert!((ab - ba).abs() < 1e-9, "{}: asymmetric", reducer.name());
                assert!(ab >= 0.0 && ab.is_finite());
            }
        }
    }
}

#[test]
fn rep_distance_triangle_inequality_holds_for_linear_reps() {
    // Dist_PAR is the Euclidean distance between reconstructions, so it is
    // a true metric on representations — the property the DBCH triangle
    // rule relies on.
    let ds = catalogue()[8].load(&protocol());
    let reducer = SaplaReducer::new();
    let reps: Vec<Representation> =
        ds.series.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
    for a in 0..reps.len() {
        for b in 0..reps.len() {
            for c in 0..reps.len() {
                let ab =
                    dist_par(reps[a].as_linear().unwrap(), reps[b].as_linear().unwrap()).unwrap();
                let bc =
                    dist_par(reps[b].as_linear().unwrap(), reps[c].as_linear().unwrap()).unwrap();
                let ac =
                    dist_par(reps[a].as_linear().unwrap(), reps[c].as_linear().unwrap()).unwrap();
                assert!(ac <= ab + bc + 1e-9, "triangle violated: {ac} > {ab} + {bc}");
            }
        }
    }
}

#[test]
fn tightness_ordering_on_average() {
    let reducer = SaplaReducer::new();
    let (mut lb_sum, mut par_sum, mut exact_sum, mut ae_sum) = (0.0, 0.0, 0.0, 0.0);
    for spec in catalogue().iter().take(12) {
        let ds = spec.load(&protocol());
        let q = &ds.queries[0];
        let q_sums = q.prefix_sums();
        for s in &ds.series {
            let c_rep = reducer.reduce(s, 12).unwrap();
            let c_lin = c_rep.as_linear().unwrap();
            let q_rep = reducer.reduce(q, 12).unwrap();
            lb_sum += dist_lb(&q_sums, c_lin).unwrap();
            par_sum += dist_par(q_rep.as_linear().unwrap(), c_lin).unwrap();
            exact_sum += euclidean(q, s).unwrap();
            ae_sum += dist_ae(q, c_lin).unwrap();
        }
    }
    assert!(lb_sum < par_sum, "LB should be loosest");
    assert!(par_sum < ae_sum, "AE should exceed PAR on average");
    assert!(par_sum < exact_sum * 1.05, "PAR tracks the exact distance");
    assert!((0.9..1.25).contains(&(ae_sum / exact_sum)), "AE tracks the exact distance");
}

#[test]
fn reduced_space_distances_shrink_with_budget() {
    // More coefficients → reconstructions approach the originals → the
    // Dist_AE estimate converges toward the exact distance.
    let ds = catalogue()[0].load(&protocol());
    let reducer = SaplaReducer::new();
    let (q, s) = (&ds.queries[0], &ds.series[0]);
    let exact = euclidean(q, s).unwrap();
    let mut last_err = f64::INFINITY;
    for m in [6usize, 12, 24, 48] {
        let c_rep = reducer.reduce(s, m).unwrap();
        let ae = dist_ae(q, c_rep.as_linear().unwrap()).unwrap();
        let err = (ae - exact).abs();
        assert!(
            err <= last_err + 0.35 * exact,
            "M={m}: error {err} regressed far beyond {last_err}"
        );
        last_err = last_err.min(err);
    }
    assert!(last_err < 0.35 * exact, "residual error {last_err} vs exact {exact}");
}
