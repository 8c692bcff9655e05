//! Experiment E11 flavour — conditioning uncertain data with crowd answers
//! (Section 4 of the paper).
//!
//! A pc-instance models claims attributed to contributors of unknown
//! trustworthiness. We want to know whether a target query holds; each round
//! we pick the event whose answer is expected to reduce the query's entropy
//! the most, ask a (simulated, imperfect) crowd, and condition the instance
//! on the answer.
//!
//! Run with: `cargo run --example crowd_conditioning`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use stuc::circuit::circuit::VarId;
use stuc::circuit::compiled::one_shot_probability;
use stuc::cond::crowd::{entropy, interactive_conditioning, CrowdOracle, QuestionSelector};
use stuc::core::workloads::contributor_pcc;
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::lineage::pcc_lineage;

fn main() {
    // Claims attributed to 3 contributors; a claim is present when its
    // contributor is trustworthy and its extraction succeeded.
    let pcc = contributor_pcc(8, 3, 0.7, 0.6, 2024);
    let query = ConjunctiveQuery::parse("Claim(\"entity0\", x), Claim(\"entity1\", y)").unwrap();
    let lineage = pcc_lineage(&pcc, &query);

    let prior = one_shot_probability(&lineage, pcc.probabilities()).expect("tractable lineage");
    println!(
        "prior P[query] = {prior:.4}, entropy = {:.4} bits",
        entropy(prior)
    );

    // Candidate questions: the contributor trust events.
    let candidates: Vec<VarId> = (0..3).map(VarId).collect();
    let ranked = QuestionSelector
        .rank_questions(&lineage, pcc.probabilities(), &candidates)
        .expect("tractable lineage");
    println!("\nquestion ranking (lower expected posterior entropy is better):");
    for q in &ranked {
        println!(
            "  ask about contributor event {:?}: expected entropy {:.4}",
            q.event, q.expected_entropy
        );
    }

    // Ground truth (unknown to the system): contributors 0 and 1 are
    // trustworthy, contributor 2 is a vandal. The crowd answers correctly
    // 85% of the time.
    let oracle = CrowdOracle {
        ground_truth: BTreeMap::from([(VarId(0), true), (VarId(1), true), (VarId(2), false)]),
        reliability: 0.85,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let (asked, posterior) = interactive_conditioning(
        &lineage,
        pcc.probabilities(),
        &candidates,
        &oracle,
        0.2,
        5,
        &mut rng,
    )
    .expect("tractable lineage");
    println!(
        "\nafter asking {} question(s) ({:?}): P[query] = {posterior:.4}, entropy = {:.4} bits",
        asked.len(),
        asked,
        entropy(posterior)
    );
}
