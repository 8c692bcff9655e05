//! Datalog provenance over an uncertain flight network (paper §2.2 / §2.3).
//!
//! The trips of the paper's Table 1 become an uncertain flight graph; a
//! recursive Datalog program computes reachability, and the provenance
//! circuits of the derived facts give exact probabilities of multi-hop
//! connections — the "circuits for Datalog provenance" construction the
//! paper relates its lineages to.
//!
//! Run with: `cargo run --example datalog_reachability`

use stuc::circuit::compiled::one_shot_probability;
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::data::tid::TidInstance;
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::datalog::DatalogProgram;
use stuc::query::datalog_provenance::DatalogProvenance;

fn main() {
    // An uncertain flight network: each leg is bookable with some probability
    // (seat availability, schedule reliability, ...).
    let mut flights = TidInstance::new();
    for (from, to, probability) in [
        ("CDG", "MEL", 0.9),
        ("MEL", "PDX", 0.6),
        ("CDG", "JFK", 0.8),
        ("JFK", "PDX", 0.7),
        ("PDX", "CDG", 0.5),
    ] {
        flights.add_fact_named("Flight", &[from, to], probability);
    }

    // Reachability as a recursive Datalog program.
    let program = DatalogProgram::parse(
        "Reach(x, y) :- Flight(x, y)\n\
         Reach(x, z) :- Reach(x, y), Flight(y, z)",
    )
    .expect("valid program");
    println!(
        "program: {} rules, recursive: {}, monadic: {}",
        program.rules().len(),
        program.is_recursive(),
        program.is_monadic()
    );

    let provenance = DatalogProvenance::from_tid(&flights, &program).expect("fixpoint fits");
    println!(
        "saturated instance: {} facts ({} extensional)",
        provenance.saturated_instance().fact_count(),
        flights.fact_count()
    );

    // Probability of every interesting connection, by two back-ends.
    let weights = flights.fact_weights();
    for (from, to) in [
        ("CDG", "PDX"),
        ("CDG", "MEL"),
        ("MEL", "CDG"),
        ("PDX", "MEL"),
    ] {
        match provenance.fact_lineage("Reach", &[from, to]) {
            Some(lineage) => {
                let exact = one_shot_probability(&lineage, &weights).expect("small circuit");
                let gates = lineage.len();
                println!("P[reach {from} → {to}] = {exact:.4}   (lineage: {gates} gates)");
            }
            None => println!("P[reach {from} → {to}] = 0.0000   (underivable)"),
        }
    }

    // A query mixing extensional and derived relations: "some city reaches
    // PDX via a direct flight into PDX".
    let query = ConjunctiveQuery::parse("Reach(x, y), Flight(y, \"PDX\")").expect("valid query");
    let lineage = provenance.query_lineage(&query);
    let p = probability_by_enumeration(&lineage, &weights).expect("few variables");
    println!("P[∃ connection ending with a direct flight into PDX] = {p:.4}");
}
