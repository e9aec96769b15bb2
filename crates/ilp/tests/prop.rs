//! Differential property tests: the knapsack engine against the frozen
//! seed ILP solver (the oracle) and, on tiny instances, brute force.
//!
//! The objective must be bit-identical to the oracle's. The selection
//! must be identical too, except at an exact tie, where the engine's
//! written tie-break (the lexicographically smallest selection of
//! maximum value) may pick a different, equal-valued selection.

use ilp::{seed, solve_multiple_choice_knapsack, McItem, McSelection};
use proptest::prelude::*;

type Instance = (Vec<Vec<McItem>>, Option<i64>, usize);

/// Random multiple-choice knapsacks with negative weights, about one in
/// four without a capacity, and up to three binding cuts.
fn arb_mckp() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(
            proptest::collection::vec((-5.0f64..15.0, -4i64..9), 1..5),
            1..6,
        ),
        -3i64..20,
        0u8..4,
        0usize..4,
    )
        .prop_map(|(groups, cap, uncapped, cuts)| {
            let groups = groups
                .into_iter()
                .map(|g| {
                    g.into_iter()
                        .map(|(value, weight)| McItem { value, weight })
                        .collect()
                })
                .collect();
            (groups, (uncapped != 0).then_some(cap), cuts)
        })
}

/// Tiny instances with coarse values, where exact ties are common.
fn arb_tiny_ties() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(proptest::collection::vec((0u8..9, -4i64..9), 1..4), 1..4),
        -3i64..20,
        0u8..4,
        0usize..3,
    )
        .prop_map(|(groups, cap, uncapped, cuts)| {
            let groups = groups
                .into_iter()
                .map(|g| {
                    g.into_iter()
                        .map(|(v, weight)| McItem {
                            value: f64::from(v) * 0.25 - 0.5,
                            weight,
                        })
                        .collect()
                })
                .collect();
            (groups, (uncapped != 0).then_some(cap), cuts)
        })
}

/// Cuts that bind: each forbids the engine's previous answer, the way
/// the exploration loop forbids every configuration it visits.
fn binding_cuts(groups: &[Vec<McItem>], capacity: Option<i64>, cuts: usize) -> Vec<Vec<usize>> {
    let mut forbidden = Vec::new();
    for _ in 0..cuts {
        match solve_multiple_choice_knapsack(groups, capacity, &forbidden) {
            Some(best) => forbidden.push(best.choices),
            None => break,
        }
    }
    forbidden
}

/// The value of a selection, folded in group order as the engine does.
fn value_of(groups: &[Vec<McItem>], choices: &[usize]) -> f64 {
    choices
        .iter()
        .zip(groups)
        .fold(0.0, |acc, (&c, g)| acc + g[c].value)
}

/// Brute force over every choice vector in lexicographic order, keeping
/// the first maximum: the engine's written tie rule.
fn brute(
    groups: &[Vec<McItem>],
    capacity: Option<i64>,
    forbidden: &[Vec<usize>],
) -> Option<McSelection> {
    let mut best: Option<McSelection> = None;
    let mut choices = vec![0usize; groups.len()];
    loop {
        let weight: i64 = choices.iter().zip(groups).map(|(&c, g)| g[c].weight).sum();
        let value = value_of(groups, &choices);
        if capacity.is_none_or(|cap| weight <= cap)
            && !forbidden.contains(&choices)
            && best.as_ref().is_none_or(|b| value > b.value)
        {
            best = Some(McSelection {
                choices: choices.clone(),
                value,
            });
        }
        // Odometer step, last group fastest.
        let mut g = groups.len();
        loop {
            if g == 0 {
                return best;
            }
            g -= 1;
            choices[g] += 1;
            if choices[g] < groups[g].len() {
                break;
            }
            choices[g] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine agrees with the seed oracle on the equivalent 0/1 ILP:
    /// same feasibility, same objective bits, and the same selection or
    /// an equal-valued one that the tie-break ranks first.
    #[test]
    fn engine_matches_seed_oracle((groups, cap, cuts) in arb_mckp()) {
        let forbidden = binding_cuts(&groups, cap, cuts);
        let engine = solve_multiple_choice_knapsack(&groups, cap, &forbidden);
        let oracle = seed::solve_multiple_choice(&groups, cap, &forbidden)
            .expect("oracle solves");
        match (engine, oracle) {
            (None, None) => {}
            (Some(e), Some(o)) => {
                prop_assert_eq!(e.value.to_bits(), o.value.to_bits(),
                    "engine {:?} vs oracle {:?}", e, o);
                if e.choices != o.choices {
                    prop_assert!(e.choices < o.choices, "engine {:?} vs oracle {:?}", e, o);
                    prop_assert_eq!(value_of(&groups, &o.choices).to_bits(), e.value.to_bits());
                }
            }
            (e, o) => prop_assert!(false, "feasibility divergence: engine {e:?} vs oracle {o:?}"),
        }
    }

    /// On tiny tie-heavy instances — too small for the near-tie cap to
    /// bind — the engine returns exactly brute force's first maximum.
    #[test]
    fn tie_rule_matches_brute_force((groups, cap, cuts) in arb_tiny_ties()) {
        let forbidden = binding_cuts(&groups, cap, cuts);
        prop_assert_eq!(
            solve_multiple_choice_knapsack(&groups, cap, &forbidden),
            brute(&groups, cap, &forbidden)
        );
    }

    /// The oracle's LP relaxation upper-bounds the engine's optimum.
    #[test]
    fn relaxation_bounds_integer_optimum((groups, cap, cuts) in arb_mckp()) {
        let forbidden = binding_cuts(&groups, cap, cuts);
        let p = seed::multiple_choice_problem(&groups, cap, &forbidden);
        if let (Ok(lp), Some(int)) = (
            seed::solve_relaxation(&p),
            solve_multiple_choice_knapsack(&groups, cap, &forbidden),
        ) {
            prop_assert!(lp.objective >= int.value - 1e-6,
                "relaxation {} below integer {}", lp.objective, int.value);
        }
    }

    /// The oracle's relaxation values stay within the unit box.
    #[test]
    fn relaxation_respects_bounds((groups, cap, cuts) in arb_mckp()) {
        let forbidden = binding_cuts(&groups, cap, cuts);
        let p = seed::multiple_choice_problem(&groups, cap, &forbidden);
        if let Ok(lp) = seed::solve_relaxation(&p) {
            for &v in &lp.values {
                prop_assert!((-1e-7..=1.0 + 1e-7).contains(&v), "value {v} out of box");
            }
        }
    }

    /// The engine's selections pick one item per group, fit the
    /// capacity, avoid every cut, and report their own folded value.
    #[test]
    fn integer_solutions_are_feasible((groups, cap, cuts) in arb_mckp()) {
        let forbidden = binding_cuts(&groups, cap, cuts);
        if let Some(s) = solve_multiple_choice_knapsack(&groups, cap, &forbidden) {
            prop_assert_eq!(s.choices.len(), groups.len());
            for (&c, g) in s.choices.iter().zip(&groups) {
                prop_assert!(c < g.len());
            }
            let weight: i64 = s.choices.iter().zip(&groups).map(|(&c, g)| g[c].weight).sum();
            prop_assert!(cap.is_none_or(|cap| weight <= cap));
            prop_assert!(!forbidden.contains(&s.choices));
            prop_assert_eq!(s.value.to_bits(), value_of(&groups, &s.choices).to_bits());
        }
    }
}
