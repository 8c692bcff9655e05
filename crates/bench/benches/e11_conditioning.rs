//! E11 — §4 conditioning: conditioning on an event is cheap, conditioning on
//! a fact (an arbitrary annotation) goes through Bayes over lineage circuits;
//! iterative crowd question selection reduces the entropy of a target query
//! fastest when picking the maximum-information question.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use stuc_bench::{criterion_config, report_value};
use stuc_circuit::circuit::VarId;
use stuc_circuit::compiled::one_shot_probability;
use stuc_circuit::weights::Weights;
use stuc_cond::conditioning::{condition_on_event, conditioned_query_probability};
use stuc_cond::crowd::{entropy, interactive_conditioning, CrowdOracle};
use stuc_core::workloads::contributor_pcc;
use stuc_data::cinstance::CInstance;
use stuc_data::instance::FactId;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::lineage::pcc_lineage;

fn main() {
    let mut criterion = criterion_config();

    // Event- vs fact-conditioning on the Table 1 pc-instance.
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);
    let pc = ci.with_probabilities(weights);
    let query = ConjunctiveQuery::parse("Trip(x, \"Portland_PDX\")").unwrap();

    let conditioned = conditioned_query_probability(&pc, &query, FactId(4), true).unwrap();
    report_value(
        "E11",
        "p_portland_given_pdx_cdg_booked",
        format!("{conditioned:.4}"),
    );

    let mut group = criterion.benchmark_group("e11_conditioning_modes");
    group.bench_function("condition_on_event", |b| {
        b.iter(|| {
            let mut copy = pc.clone();
            condition_on_event(&mut copy, pods, true);
            copy.probabilities().get(pods)
        })
    });
    group.bench_function("condition_on_fact_via_bayes", |b| {
        b.iter(|| conditioned_query_probability(&pc, &query, FactId(4), true).unwrap())
    });
    group.finish();

    // Iterative crowd loop: informed selection vs asking in a fixed order.
    let pcc = contributor_pcc(8, 3, 0.7, 0.6, 99);
    let target = ConjunctiveQuery::parse("Claim(\"entity0\", x), Claim(\"entity1\", y)").unwrap();
    let lineage = pcc_lineage(&pcc, &target);
    let prior = one_shot_probability(&lineage, pcc.probabilities()).unwrap();
    report_value(
        "E11",
        "prior_entropy_bits",
        format!("{:.4}", entropy(prior)),
    );
    let oracle = CrowdOracle::perfect(BTreeMap::from([
        (VarId(0), true),
        (VarId(1), true),
        (VarId(2), false),
    ]));
    let candidates: Vec<VarId> = (0..3).map(VarId).collect();
    let mut rng = StdRng::seed_from_u64(4);
    let (asked, posterior) = interactive_conditioning(
        &lineage,
        pcc.probabilities(),
        &candidates,
        &oracle,
        0.1,
        5,
        &mut rng,
    )
    .unwrap();
    report_value(
        "E11",
        "informed_selection",
        format!(
            "questions={} posterior_entropy={:.4}",
            asked.len(),
            entropy(posterior)
        ),
    );

    let mut group = criterion.benchmark_group("e11_crowd_loop");
    group.bench_function("interactive_conditioning_budget5", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            interactive_conditioning(
                &lineage,
                pcc.probabilities(),
                &candidates,
                &oracle,
                0.1,
                5,
                &mut rng,
            )
            .unwrap()
            .1
        })
    });
    group.finish();
    criterion.final_summary();
}
