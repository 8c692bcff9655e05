//! Property tests for deadline precision and budget hygiene, across all
//! four uncertain representations (TID, c-, pc-, pcc-instances):
//!
//! * an already-expired deadline trips as a typed
//!   [`StucError::DeadlineExceeded`] naming the stage, with bounded
//!   overshoot — the engine notices at its first checkpoint instead of
//!   finishing the work anyway;
//! * a random *tiny* deadline either completes exactly or trips typed —
//!   never anything in between (panic, hang, wrong answer);
//! * after any tripped run, an identical re-run on the **same** engine
//!   without a deadline is bit-identical to a fresh, never-deadlined
//!   engine — tripped runs publish nothing to the caches;
//! * a pre-raised cancel flag surfaces as [`StucError::Cancelled`] with
//!   the same no-pollution guarantee.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::data::pcc::PccInstance;
use stuc::data::tid::TidInstance;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{CancelHandle, Engine, EvalBudget, Representation, StucError};

/// Generous bound on how long a deadline-tripped evaluation may keep
/// running past its deadline: checkpoints are bounded-interval polls, not
/// preemption, so some overshoot is inherent — but it must stay within
/// one checkpoint interval's worth of work, far below a second on these
/// tiny workloads even in debug builds.
const MAX_OVERSHOOT: Duration = Duration::from_secs(2);

fn chain() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap()
}

fn cinstance_path(n: usize) -> CInstance {
    let mut ci = CInstance::new();
    for i in 0..n {
        // Cycle a small event pool with some negation so annotations are
        // correlated and non-trivial.
        let condition = match i % 3 {
            0 => format!("e{}", i % 4),
            1 => format!("e{} & !e{}", i % 4, (i + 1) % 4),
            _ => format!("e{} & e{}", i % 4, (i + 2) % 4),
        };
        ci.add_fact_with_condition("R", &[&format!("v{i}"), &format!("v{}", i + 1)], &condition)
            .unwrap();
    }
    ci
}

/// Exercises the full deadline contract for one representation + query on
/// a fresh engine. `deadline_us` of 0 means "already expired".
fn check_deadline_contract<R>(representation: &R, query: &R::Query, deadline_us: u64)
where
    R: Representation + ?Sized,
{
    let reference = Engine::new()
        .evaluate(representation, query)
        .expect("undeadlined evaluation succeeds")
        .probability;

    let engine = Engine::new();

    // 1. An already-expired deadline must trip, typed, naming a stage,
    //    with bounded overshoot.
    let started = Instant::now();
    let expired = engine.with_budget(&EvalBudget::with_deadline(Duration::ZERO), || {
        engine.evaluate(representation, query)
    });
    let overshoot = started.elapsed();
    match expired {
        Err(StucError::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty(), "trip must name the stage");
            assert!(
                overshoot < MAX_OVERSHOOT,
                "expired deadline took {overshoot:?} to surface"
            );
        }
        other => panic!("expired deadline must trip typed, got {other:?}"),
    }

    // 2. A tiny random deadline either completes exactly or trips typed.
    let budget = EvalBudget::with_deadline(Duration::from_micros(deadline_us));
    match engine.with_budget(&budget, || engine.evaluate(representation, query)) {
        Ok(report) => assert_eq!(
            report.probability.to_bits(),
            reference.to_bits(),
            "a completed deadlined run must be exact"
        ),
        Err(StucError::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty());
        }
        Err(other) => panic!("only DeadlineExceeded is acceptable, got {other}"),
    }

    // 3. A pre-raised cancel flag trips as Cancelled, not DeadlineExceeded.
    let cancel = CancelHandle::new();
    cancel.cancel();
    match engine.with_budget(&EvalBudget::unlimited().cancelled_by(&cancel), || {
        engine.evaluate(representation, query)
    }) {
        Err(StucError::Cancelled { stage }) => assert!(!stage.is_empty()),
        other => panic!("raised cancel flag must trip typed, got {other:?}"),
    }

    // 4. No cache pollution: the same engine, with the budget lifted, is
    //    bit-identical to the never-deadlined reference.
    let recovered = engine
        .evaluate(representation, query)
        .expect("undeadlined re-run succeeds")
        .probability;
    assert_eq!(
        recovered.to_bits(),
        reference.to_bits(),
        "tripped runs must not pollute the caches"
    );

    // 5. And the caches now being warm does not change that.
    let warm = engine
        .evaluate(representation, query)
        .expect("warm re-run succeeds")
        .probability;
    assert_eq!(warm.to_bits(), reference.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tid_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        seed in 0u64..1000,
        deadline_us in 0u64..500,
    ) {
        let tid: TidInstance = workloads::path_tid(n, 0.5, seed);
        check_deadline_contract(&tid, &chain(), deadline_us);
    }

    #[test]
    fn cinstance_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        deadline_us in 0u64..500,
    ) {
        let ci = cinstance_path(n);
        check_deadline_contract(&ci, &chain(), deadline_us);
    }

    #[test]
    fn pcinstance_deadlines_are_precise_and_cache_clean(
        n in 3usize..9,
        deadline_us in 0u64..500,
        prob in 0.1f64..0.9,
    ) {
        let ci = cinstance_path(n);
        let vars: Vec<_> = ci.events().variables().collect();
        let pc = ci.with_probabilities(stuc::circuit::weights::Weights::uniform(vars, prob));
        check_deadline_contract(&pc, &chain(), deadline_us);
    }

    #[test]
    fn pcc_deadlines_are_precise_and_cache_clean(
        claims in 3usize..8,
        contributors in 2usize..4,
        seed in 0u64..1000,
        deadline_us in 0u64..500,
    ) {
        let pcc: PccInstance =
            workloads::contributor_pcc(claims, contributors, 0.8, 0.7, seed);
        let query = ConjunctiveQuery::parse("Claim(x, y), Claim(x, z)").unwrap();
        check_deadline_contract(&pcc, &query, deadline_us);
    }
}
