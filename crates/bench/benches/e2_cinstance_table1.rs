//! E2 — Table 1: possibility, certainty and probability of booking queries
//! on the paper's c-instance of conference trips.

use stuc_bench::{criterion_config, report_value};
use stuc_circuit::compiled::one_shot_probability;
use stuc_circuit::weights::Weights;
use stuc_data::cinstance::CInstance;
use stuc_data::worlds;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::lineage::cinstance_lineage;

fn main() {
    let mut criterion = criterion_config();
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);

    let queries = [
        ("trip_from_cdg", "Trip(\"Paris_CDG\", x)"),
        (
            "round_trip_melbourne",
            "Trip(\"Paris_CDG\", \"Melbourne_MEL\"), Trip(\"Melbourne_MEL\", \"Paris_CDG\")",
        ),
        ("reaches_portland", "Trip(x, \"Portland_PDX\")"),
        ("any_trip", "Trip(x, y)"),
    ];
    let parsed: Vec<(&str, ConjunctiveQuery)> = queries
        .iter()
        .map(|(n, t)| (*n, ConjunctiveQuery::parse(t).unwrap()))
        .collect();

    for (name, query) in &parsed {
        let lineage = cinstance_lineage(&ci, query);
        let p = one_shot_probability(&lineage, &weights).unwrap();
        report_value(
            "E2",
            name,
            format!(
                "p={p:.4} possible={} certain={}",
                p > 1e-12,
                (p - 1.0).abs() < 1e-9
            ),
        );
    }
    report_value(
        "E2",
        "possible_worlds",
        worlds::enumerate_worlds(&ci).unwrap().len(),
    );

    let mut group = criterion.benchmark_group("e2_cinstance_table1");
    group.bench_function("lineage_plus_wmc", |b| {
        b.iter(|| {
            parsed
                .iter()
                .map(|(_, q)| {
                    let lineage = cinstance_lineage(&ci, q);
                    one_shot_probability(&lineage, &weights).unwrap()
                })
                .sum::<f64>()
        })
    });
    group.bench_function("world_enumeration", |b| {
        b.iter(|| {
            let pc = ci.clone().with_probabilities(weights.clone());
            worlds::query_probability(&pc, |facts| !facts.is_empty()).unwrap()
        })
    });
    group.finish();
    criterion.final_summary();
}
