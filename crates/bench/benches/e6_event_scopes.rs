//! E6 — §2.1 / [7]: PrXML documents whose *event scopes* are bounded stay
//! tractable; the lineage-circuit width (and evaluation cost) tracks the
//! maximum node scope, which the generator controls through the nesting
//! depth of contributor-conditioned sections.

use criterion::BenchmarkId;
use std::sync::Arc;
use stuc_bench::{criterion_config, report_value};
use stuc_circuit::compiled::CompiledCircuit;
use stuc_prxml::generator::{wikidata_style_document, WikidataStyleConfig};
use stuc_prxml::queries::{query_lineage, query_probability, PrxmlQuery};
use stuc_prxml::scope::analyze_scopes;

fn main() {
    let mut criterion = criterion_config();
    let query = PrxmlQuery::LabelExists("value_e0_p0".into());

    // Scope sweep at fixed size.
    let mut group = criterion.benchmark_group("e6_scope_sweep");
    for &depth in &[0usize, 1, 2, 3, 4] {
        let config = WikidataStyleConfig {
            scope_depth: depth,
            entities: 8,
            properties_per_entity: 4,
            ..Default::default()
        };
        let doc = wikidata_style_document(&config);
        let scope = analyze_scopes(&doc).max_node_scope();
        let lineage = query_lineage(&doc, &query);
        let width = CompiledCircuit::compile(Arc::new(lineage.clone()), Default::default())
            .unwrap()
            .width();
        report_value(
            "E6",
            &format!("depth{depth}"),
            format!("max_node_scope={scope} lineage_width={width}"),
        );
        group.bench_with_input(
            BenchmarkId::new("query_probability", depth),
            &depth,
            |b, _| b.iter(|| query_probability(&doc, &query).unwrap()),
        );
    }
    group.finish();

    // Document-size sweep at fixed (bounded) scope: linear-ish scaling.
    let mut group = criterion.benchmark_group("e6_size_sweep_bounded_scope");
    for &entities in &[10usize, 40, 160] {
        let config = WikidataStyleConfig {
            scope_depth: 1,
            entities,
            properties_per_entity: 5,
            ..Default::default()
        };
        let doc = wikidata_style_document(&config);
        report_value("E6", &format!("entities{entities}_nodes"), doc.len());
        group.bench_with_input(
            BenchmarkId::new("query_probability", entities),
            &entities,
            |b, _| b.iter(|| query_probability(&doc, &query).unwrap()),
        );
    }
    group.finish();
    criterion.final_summary();
}
