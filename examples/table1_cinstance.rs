//! Experiment E2 — the paper's Table 1, reproduced end to end.
//!
//! The c-instance lists which trips to book depending on which conferences
//! the researcher attends (PODS in Melbourne, STOC in Portland). We list the
//! possible worlds, then compute possibility / certainty / probability for
//! natural booking queries, attaching probabilities to the events.
//!
//! Run with: `cargo run --example table1_cinstance`

use stuc::circuit::compiled::one_shot_probability;
use stuc::circuit::weights::Weights;
use stuc::data::cinstance::CInstance;
use stuc::data::worlds;
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::lineage::cinstance_lineage;

fn main() {
    let ci = CInstance::table1_example();
    println!(
        "Table 1 c-instance: {} facts over events pods, stoc\n",
        ci.instance().fact_count()
    );
    for (id, _) in ci.instance().facts() {
        println!(
            "  {:<45} [{}]",
            ci.instance().render_fact(id),
            ci.annotation(id)
        );
    }

    println!("\nPossible worlds (by event valuation):");
    for world in worlds::enumerate_worlds(&ci).expect("two events only") {
        let trips: Vec<String> = world
            .facts
            .iter()
            .map(|&f| ci.instance().render_fact(f))
            .collect();
        println!(
            "  {:?} -> {} trips: {}",
            world.valuation,
            trips.len(),
            trips.join("; ")
        );
    }

    // Attach probabilities: the researcher attends PODS with 0.8, STOC with 0.3.
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);

    let queries = [
        ("some trip leaves Paris CDG", "Trip(\"Paris_CDG\", x)"),
        (
            "a round trip CDG ⇄ Melbourne exists",
            "Trip(\"Paris_CDG\", \"Melbourne_MEL\"), Trip(\"Melbourne_MEL\", \"Paris_CDG\")",
        ),
        ("some trip reaches Portland", "Trip(x, \"Portland_PDX\")"),
        ("some trip exists at all", "Trip(x, y)"),
    ];
    println!("\nQuery probabilities with P(pods)=0.8, P(stoc)=0.3:");
    for (description, text) in queries {
        let query = ConjunctiveQuery::parse(text).unwrap();
        let lineage = cinstance_lineage(&ci, &query);
        let probability = one_shot_probability(&lineage, &weights).unwrap();
        // With event probabilities strictly inside (0, 1), the query is
        // possible iff its probability is non-zero and certain iff it is one.
        println!(
            "  P[{description}] = {probability:.4}   (possible: {}, certain: {})",
            probability > 1e-12,
            (probability - 1.0).abs() < 1e-9
        );
    }
}
