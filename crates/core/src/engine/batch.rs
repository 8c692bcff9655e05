//! Batched parallel evaluation: many queries, one instance, one engine.
//!
//! The paper's pipeline amortizes beautifully across queries on the same
//! instance: the structure decomposition is shared by every query, and each
//! compiled lineage is shared by every later re-evaluation. U-relations
//! (Antova et al., "Fast and Simple Relational Processing of Uncertain
//! Data") and the challenges survey (Amarilli, Maniu & Monet) both point at
//! batch/shared evaluation as the practical route to throughput on
//! structured probabilistic data — this module is that route:
//! [`Engine::evaluate_batch`] partitions a query batch across scoped worker
//! threads (std only, no extra dependencies) that all hammer the shared
//! engine directly; the engine's [sharded, clone-on-read
//! caches](super::cache) make that contention-free (hits take one shard
//! read lock, misses compile without holding any lock and publish
//! first-writer-wins).
//!
//! Work is distributed by an atomic cursor, so long-running queries do not
//! stall the rest of the batch behind a static partition. Per-query errors
//! stay per-query: one unsupported query does not poison the batch.

use super::metrics::engine_metrics;
use super::report::BatchReport;
use super::{Engine, EvaluationReport, Representation, StucError};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use stuc_obs::timer::Stopwatch;

impl Engine {
    /// Evaluates a batch of Boolean queries on one instance, in parallel.
    ///
    /// The batch is spread over a scoped-thread worker pool (size: the
    /// builder's [`batch_threads`](super::EngineBuilder::batch_threads)
    /// setting, defaulting to [`std::thread::available_parallelism`], always
    /// capped by the batch size). All workers share `self`'s caches, so the
    /// instance is decomposed at most once for the whole batch and repeated
    /// queries are answered from the compiled-lineage cache.
    ///
    /// Results come back in input order, one per query; a query that fails
    /// carries its error in its slot while the rest of the batch completes.
    /// Identical queries are evaluated once — duplicate slots receive a
    /// copy of the result, flagged as lineage-cache hits. The
    /// [`BatchReport`] also records the worker count and aggregate
    /// cache-hit statistics.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(8, 0.5, 13);
    /// let queries: Vec<ConjunctiveQuery> = [
    ///     "R(x, y)",
    ///     "R(x, y), R(y, z)",
    ///     "R(x, y), R(y, z), R(z, w)",
    /// ]
    /// .iter()
    /// .map(|q| ConjunctiveQuery::parse(q).unwrap())
    /// .collect();
    ///
    /// let engine = Engine::new();
    /// let batch = engine.evaluate_batch(&tid, &queries);
    /// assert_eq!(batch.len(), 3);
    /// assert_eq!(batch.succeeded(), 3);
    /// for report in batch.successes() {
    ///     assert!(report.probability > 0.0);
    /// }
    /// ```
    ///
    /// A panic inside one evaluation is caught at the per-query boundary
    /// and surfaces as [`StucError::Internal`] in that query's slot — the
    /// worker, the rest of the batch, and the engine's caches all survive.
    pub fn evaluate_batch<R>(&self, representation: &R, queries: &[R::Query]) -> BatchReport
    where
        R: Representation + Sync + ?Sized,
        R::Query: Sync,
    {
        // A batch never fails as a whole: one call is counted, and timed,
        // regardless of per-query errors (which evaluate() already counted).
        let Ok(batch) = engine_metrics().evaluate_batch.instrument(
            "evaluate_batch",
            || Ok::<_, Infallible>(self.batch_inner(representation, queries)),
            |_, _| {},
        );
        batch
    }

    fn batch_inner<R>(&self, representation: &R, queries: &[R::Query]) -> BatchReport
    where
        R: Representation + Sync + ?Sized,
        R::Query: Sync,
    {
        let started = Stopwatch::start();

        // Deduplicate identical queries up front (by their `Debug`
        // rendering, the same identity the lineage cache uses): each
        // distinct query is evaluated exactly once, and duplicate slots
        // receive a copy of its report — without this, duplicates racing on
        // different workers would all miss the lineage cache at the same
        // moment and compile the same lineage once per worker.
        let mut unique_of: HashMap<String, usize> = HashMap::new();
        let mut unique: Vec<&R::Query> = Vec::new();
        let slot_to_unique: Vec<usize> = queries
            .iter()
            .map(|query| {
                *unique_of.entry(format!("{query:?}")).or_insert_with(|| {
                    unique.push(query);
                    unique.len() - 1
                })
            })
            .collect();

        let threads = self.batch_worker_count(unique.len());
        // The ambient budget (if any) is captured here and re-installed in
        // every worker, so a deadline on the batch bounds all of its lanes.
        let ambient = stuc_fault::budget::current();
        let unique_reports: Vec<Result<EvaluationReport, StucError>> = if threads <= 1 {
            unique
                .iter()
                .map(|query| super::catch_panic(|| self.evaluate(representation, query)))
                .collect()
        } else {
            // No pre-warm: workers that race on the same fingerprint publish
            // their decompositions first-writer-wins and converge on one
            // shared Arc, so the worst case is a bounded handful of
            // duplicate decompositions instead of a serial warm-up pass
            // blocking the whole pool.
            let cursor = AtomicUsize::new(0);
            let mut indexed = Vec::with_capacity(unique.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let work = || {
                                let mut local = Vec::new();
                                loop {
                                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                                    if index >= unique.len() {
                                        break;
                                    }
                                    // Panic isolation per query: a panicking
                                    // evaluation fills its own slot with
                                    // `StucError::Internal` and the worker
                                    // moves on to the next query.
                                    local.push((
                                        index,
                                        super::catch_panic(|| {
                                            self.evaluate(representation, unique[index])
                                        }),
                                    ));
                                }
                                local
                            };
                            match ambient.clone() {
                                Some(budget) => stuc_fault::budget::scope(budget, work),
                                None => work(),
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    // Workers cannot panic on the evaluation path (caught
                    // above); this only guards allocation failure.
                    indexed.extend(handle.join().expect("batch worker panicked"));
                }
            });
            indexed.sort_by_key(|(index, _)| *index);
            indexed.into_iter().map(|(_, report)| report).collect()
        };

        // Fan the unique results back out to the input slots. A duplicate
        // slot reused the representative's compiled lineage, and its report
        // says so.
        let mut first_use = vec![true; unique.len()];
        let reports = slot_to_unique
            .into_iter()
            .map(|u| {
                let mut report = unique_reports[u].clone();
                if std::mem::replace(&mut first_use[u], false) {
                    return report;
                }
                if let Ok(r) = report.as_mut() {
                    r.lineage_cached = true;
                    r.decomposition_cached = true;
                }
                report
            })
            .collect();
        BatchReport::assemble(reports, threads, started.elapsed())
    }

    /// How many workers a batch of `batch_size` queries runs on.
    fn batch_worker_count(&self, batch_size: usize) -> usize {
        let configured = match self.config.batch_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        configured.clamp(1, batch_size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BackendKind, Engine};
    use crate::workloads;
    use stuc_query::cq::ConjunctiveQuery;

    fn queries(texts: &[&str]) -> Vec<ConjunctiveQuery> {
        texts
            .iter()
            .map(|t| ConjunctiveQuery::parse(t).unwrap())
            .collect()
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let tid = workloads::path_tid(10, 0.5, 3);
        let qs = queries(&[
            "R(x, y)",
            "R(x, y), R(y, z)",
            "R(x, y), R(y, z), R(z, w)",
            "R(x, y), R(y, z)", // duplicate: exercises the lineage cache
        ]);
        let engine = Engine::builder().batch_threads(3).build();
        let batch = engine.evaluate_batch(&tid, &qs);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.succeeded(), 4);
        assert_eq!(batch.failed(), 0);

        let sequential = Engine::new();
        for (query, result) in qs.iter().zip(&batch.reports) {
            let expected = sequential.evaluate(&tid, query).unwrap();
            let got = result.as_ref().unwrap();
            assert!(
                (expected.probability - got.probability).abs() < 1e-9,
                "{query:?}: {} vs {}",
                expected.probability,
                got.probability
            );
            assert_eq!(expected.backend, got.backend);
        }
    }

    #[test]
    fn batch_reports_lineage_cache_hits_for_repeated_queries() {
        let tid = workloads::path_tid(8, 0.5, 5);
        let q = "R(x, y), R(y, z)";
        let qs = queries(&[q, q, q, q]);
        // Duplicates are deduplicated up front, so the hit count is
        // deterministic at any worker count: one compile, three reuses.
        for threads in [1, 4] {
            let engine = Engine::builder().batch_threads(threads).build();
            let batch = engine.evaluate_batch(&tid, &qs);
            assert_eq!(batch.succeeded(), 4);
            assert_eq!(batch.lineage_cache_hits, 3);
            assert_eq!(engine.cached_lineages(), 1);
            let probabilities = batch.probabilities();
            for p in &probabilities {
                assert_eq!(*p, probabilities[0]);
            }
        }
    }

    #[test]
    fn engine_caches_stay_within_capacity() {
        let engine = Engine::builder().cache_capacity(3).build();
        for seed in 0..10 {
            let tid = workloads::path_tid(5, 0.5, seed);
            let q = queries(&["R(x, y), R(y, z)"]);
            let batch = engine.evaluate_batch(&tid, &q);
            assert_eq!(batch.succeeded(), 1);
            assert!(engine.cached_lineages() <= 3);
            assert!(engine.cached_decompositions() <= 3);
        }
        // Capacity 0 disables caching entirely.
        let uncached = Engine::builder().cache_capacity(0).build();
        let tid = workloads::path_tid(5, 0.5, 1);
        let q = queries(&["R(x, y), R(y, z)"]);
        uncached.evaluate(&tid, &q[0]).unwrap();
        assert_eq!(uncached.cached_lineages(), 0);
        assert_eq!(uncached.cached_decompositions(), 0);
    }

    #[test]
    fn batch_keeps_per_query_errors_isolated() {
        let tid = workloads::rst_path_tid(4, 0.5, 5);
        let qs = queries(&["R(x)", "R(x), S(x, y), T(y)", "R(x), S(x, y)"]);
        // Pinned safe plan: the middle query is not hierarchical and fails,
        // the others succeed.
        let engine = Engine::builder()
            .backend(BackendKind::SafePlan)
            .batch_threads(2)
            .build();
        let batch = engine.evaluate_batch(&tid, &qs);
        assert_eq!(batch.succeeded(), 2);
        assert_eq!(batch.failed(), 1);
        assert!(batch.reports[0].is_ok());
        assert!(batch.reports[1].is_err());
        assert!(batch.reports[2].is_ok());
        let probabilities = batch.probabilities();
        assert!(probabilities[0].is_some());
        assert!(probabilities[1].is_none());
    }

    #[test]
    fn empty_batch_is_fine() {
        let tid = workloads::path_tid(4, 0.5, 5);
        let engine = Engine::new();
        let batch = engine.evaluate_batch(&tid, &[]);
        assert!(batch.is_empty());
        assert_eq!(batch.succeeded(), 0);
    }

    #[test]
    fn worker_count_respects_configuration_and_batch_size() {
        let engine = Engine::builder().batch_threads(8).build();
        assert_eq!(engine.batch_worker_count(3), 3);
        assert_eq!(engine.batch_worker_count(100), 8);
        assert_eq!(engine.batch_worker_count(0), 1);
        let auto = Engine::new();
        assert!(auto.batch_worker_count(64) >= 1);
    }

    #[test]
    fn batch_works_on_non_relational_representations() {
        use stuc_prxml::document::PrXmlDocument;
        use stuc_prxml::queries::PrxmlQuery;
        let doc = PrXmlDocument::figure1_example();
        let qs = vec![
            PrxmlQuery::LabelExists("musician".into()),
            PrxmlQuery::LabelExists("painter".into()),
            PrxmlQuery::LabelExists("no-such-label".into()),
        ];
        let engine = Engine::builder().batch_threads(2).build();
        let batch = engine.evaluate_batch(&doc, &qs);
        assert_eq!(batch.succeeded(), 3);
        let sequential = Engine::new();
        for (query, result) in qs.iter().zip(&batch.reports) {
            let expected = sequential.evaluate(&doc, query).unwrap().probability;
            assert!((expected - result.as_ref().unwrap().probability).abs() < 1e-9);
        }
    }
}
