//! Incremental updates: patch the caches, rebuild only what an insert
//! changed.
//!
//! [`Engine::apply_update`] is the write path of the engine. It applies a
//! typed [`Delta`] to the instance and then *maintains* both engine caches
//! across the mutation instead of evicting them:
//!
//! * the **decomposition cache** entry is rekeyed verbatim when the
//!   structure graph did not grow (weight changes, deletions), repaired
//!   locally through [`stuc_graph::repair`] when it grew by fact cliques,
//!   and rebuilt from scratch only when the repair would exceed the
//!   engine's width budget or the representation reports an opaque change;
//! * every **compiled-lineage cache** entry for the instance is maintained
//!   according to the representation's [`LineagePatch`]: reused verbatim
//!   for weight-only deltas, input-rewired for deletions (pin + renumber,
//!   no recompilation), and for insertions left as is when the inserted
//!   facts add no match (an O(delta) check) or else rebuilt inside the
//!   write with the very build a cache miss runs, over the maintained
//!   structure decomposition — so a rebuilt circuit is exactly what a cold
//!   build gives, and its width cannot drift; rebuilds the patch model does
//!   not cover drop the entry for a lazy rebuild.
//!
//! The returned [`UpdateReport`] says exactly what was reused, rebuilt and
//! dropped, so operational dashboards (and the `a5_incremental_updates`
//! bench) can watch the write path.

use super::metrics::engine_metrics;
use super::{CompiledLineage, Engine, Representation, StucError, HEURISTIC};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stuc_graph::elimination::decompose_with_heuristic;
use stuc_graph::repair::repair_decomposition;
use stuc_graph::TreeDecomposition;
use stuc_incr::{Delta, LineagePatch, LineagePatchStep, StructureImpact, Updatable};
use stuc_obs::slowlog;
use stuc_obs::timer::Stopwatch;

/// What one [`Engine::apply_update`] call reused, patched and rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateReport {
    /// Facts inserted by the delta.
    pub inserted: usize,
    /// Facts deleted by the delta.
    pub deleted: usize,
    /// Probabilities overwritten by the delta.
    pub reweighted: usize,
    /// Structure-decomposition bags grown or added by its repair. A rebuilt
    /// lineage adds none: its circuit-graph decomposition is built afresh,
    /// not repaired.
    pub bags_touched: usize,
    /// Lineage gates rewired by deletions plus the gates of every rebuilt
    /// circuit; 0 for a weights-only update.
    pub gates_rebuilt: usize,
    /// Width of the cached structure decomposition before the update (when
    /// one was cached).
    pub width_before: Option<usize>,
    /// Width after patching / rebuilding (when a decomposition is cached
    /// again). The difference is the update's width drift.
    pub width_after: Option<usize>,
    /// True when any patch was abandoned for a full rebuild (repair over
    /// the width budget, opaque structural change, unpatchable lineage).
    pub fell_back: bool,
    /// Compiled lineages reused or rewired and kept warm.
    pub lineages_patched: usize,
    /// Compiled lineages an insert gave new matches, rebuilt inside the
    /// write (and planned when the replaced circuit was) and kept warm.
    pub lineages_rebuilt: usize,
    /// Compiled lineages dropped; they rebuild lazily on the next query.
    pub lineages_dropped: usize,
    /// Wall-clock time of the whole update, mutation included.
    pub wall_time: Duration,
    /// Human-readable trace of the patch decisions.
    pub notes: Vec<String>,
}

impl UpdateReport {
    /// Width drift of the structure decomposition in this update:
    /// `width_after - width_before`, when both are known. Cached lineage
    /// circuits do not drift: an insert rebuilds them over the maintained
    /// decomposition, and a deletion keeps their topology.
    pub fn width_drift(&self) -> Option<isize> {
        match (self.width_before, self.width_after) {
            (Some(before), Some(after)) => Some(after as isize - before as isize),
            _ => None,
        }
    }
}

impl Engine {
    /// Applies a [`Delta`] to the instance **and** incrementally maintains
    /// the engine's caches across the mutation: the decomposition and every
    /// compiled lineage of the instance are patched (or, for lineages an
    /// insert gave new matches, rebuilt) and rekeyed from the old
    /// fingerprint to the new one, falling back to targeted eviction (see
    /// [`Engine::evict_instance`]) plus lazy rebuild only where a patch is
    /// impossible or would exceed the width budget.
    ///
    /// Fact identifiers in the delta refer to the pre-update instance; see
    /// [`Delta`] for the in-transaction application order. A rejected delta
    /// (unknown fact, NaN probability, unsupported op) leaves the instance
    /// and the caches untouched.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_incr::Delta;
    /// use stuc_data::instance::FactId;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let mut tid = workloads::path_tid(8, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // caches decomposition + lineage
    ///
    /// let delta = Delta::new().set_probability(FactId(0), 0.95);
    /// let report = engine.apply_update(&mut tid, &delta).unwrap();
    /// assert_eq!(report.gates_rebuilt, 0); // weights-only: everything reused
    /// assert!(!report.fell_back);
    ///
    /// // The very next evaluation is served from the patched caches.
    /// let after = engine.evaluate(&tid, &query).unwrap();
    /// assert!(after.lineage_cached);
    /// ```
    pub fn apply_update<R>(
        &self,
        representation: &mut R,
        delta: &Delta,
    ) -> Result<UpdateReport, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        engine_metrics().apply_update.instrument(
            "apply_update",
            || self.apply_update_inner(representation, delta),
            |result, _| {
                if let Ok(report) = result {
                    slowlog::global().note("apply_update", report.wall_time, 0, || {
                        format!(
                            "+{} -{} ~{} patched={} rebuilt={} dropped={}",
                            report.inserted,
                            report.deleted,
                            report.reweighted,
                            report.lineages_patched,
                            report.lineages_rebuilt,
                            report.lineages_dropped
                        )
                    });
                }
            },
        )
    }

    fn apply_update_inner<R>(
        &self,
        representation: &mut R,
        delta: &Delta,
    ) -> Result<UpdateReport, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        let watch = Stopwatch::start();
        let mut report = UpdateReport::default();

        // The built-in representations memoise their identity, so the old
        // one is usually free; the mutation resets the memo, and the new
        // one costs one hashing pass over the instance.
        let old_fingerprint = representation.fingerprint();
        let (old_lineage_fp, old_check) = representation.identity();
        let application = representation.apply_delta(delta)?;
        let new_fingerprint = representation.fingerprint();
        let (new_lineage_fp, new_check) = representation.identity();
        report.inserted = application.inserted.len();
        report.deleted = application.deleted;
        report.reweighted = application.reweighted;

        // Pull the instance's stale lineage entries out first — targeted
        // eviction below must not throw them away before they are patched.
        // The drain matches on the primary hash only, so entries that merely
        // *collide* with this instance (different secondary check hash) are
        // put back untouched: rekeying validates against the same dual-hash
        // discipline as a cold lookup.
        let mut stale_lineages = self
            .lineage_cache
            .drain_matching(|key| key.0 == old_lineage_fp);
        let colliding: Vec<_> = {
            let (ours, theirs) = stale_lineages
                .into_iter()
                .partition(|(_, entry)| entry.instance_check == old_check);
            stale_lineages = ours;
            theirs
        };
        let old_decomposition = self.cache.get(&old_fingerprint);
        // Everything still keyed by the old fingerprint is now stale
        // (collision leftovers): evict it in one targeted sweep —
        // and only then restore the colliding strangers it must not touch.
        self.evict_instance(old_fingerprint);
        for (key, entry) in colliding {
            self.lineage_cache.insert_replacing(key, entry);
        }

        // --- decomposition maintenance -------------------------------------
        // The mutation is committed and the stale entries are already pulled
        // out: from here on a budget trip only costs cache warmth (dropped
        // entries rebuild lazily), never consistency.
        stuc_fault::budget::check("update: decomposition maintenance")?;
        if let Some((old, known_graph)) = old_decomposition {
            report.width_before = Some(old.width());
            // Each arm also says which structure graph the decomposition is
            // known to be valid for: the next cold goal skips validation
            // when that is the graph the representation hands out.
            let (patched, graph): (Arc<TreeDecomposition>, _) = match &application.structure {
                StructureImpact::Unchanged | StructureImpact::Shrunk => {
                    report
                        .notes
                        .push("structure decomposition rekeyed unchanged".into());
                    // Shared, not copied: the cached value is immutable. A
                    // weight change keeps the graph; a deletion leaves it
                    // unknown, so the next cold goal validates once.
                    let unchanged = matches!(application.structure, StructureImpact::Unchanged);
                    (Arc::clone(&old), known_graph.filter(|_| unchanged))
                }
                StructureImpact::Grown {
                    vertex_remap,
                    new_cliques,
                } => {
                    let graph = representation.structure_graph();
                    let base = match vertex_remap {
                        Some(map) => old.remap_vertices(map),
                        None => (*old).clone(),
                    };
                    let rebuilt = match repair_decomposition(
                        base,
                        &graph,
                        new_cliques,
                        self.config.width_budget,
                    ) {
                        Ok((patched, stats)) => {
                            report.bags_touched += stats.bags_touched + stats.bags_added;
                            report.notes.push(format!(
                                "structure decomposition repaired in place ({} bags touched, {} added)",
                                stats.bags_touched, stats.bags_added
                            ));
                            patched
                        }
                        Err(refusal) => {
                            report.fell_back = true;
                            report.notes.push(format!(
                                "decomposition repair refused ({refusal}); re-decomposed from scratch"
                            ));
                            decompose_with_heuristic(&graph, HEURISTIC)
                        }
                    };
                    (Arc::new(rebuilt), Some(graph))
                }
                StructureImpact::Opaque => {
                    report.fell_back = true;
                    report.notes.push(
                        "structural change is opaque for this representation; re-decomposed".into(),
                    );
                    let graph = representation.structure_graph();
                    let rebuilt = decompose_with_heuristic(&graph, HEURISTIC);
                    (Arc::new(rebuilt), Some(graph))
                }
            };
            report.width_after = Some(patched.width());
            self.cache
                .insert_replacing(new_fingerprint, (patched, graph));
        }

        // --- compiled-lineage maintenance ----------------------------------
        let structure_width = report.width_after;
        let mut budget_gate = stuc_fault::budget::Gate::every(4);
        for (key, entry) in stale_lineages {
            budget_gate.check("update: lineage maintenance")?;
            let maintained = match &application.lineage {
                LineagePatch::Rebuild => Maintained::Dropped,
                // An update that left the lineage intact: only the
                // secondary instance hash changes, and the entry keeps the
                // very same circuit (with its plan and warm arena).
                LineagePatch::Reusable => Maintained::Patched(entry.with_patched_circuit(
                    Arc::clone(&entry.compiled),
                    new_check,
                    None,
                )),
                LineagePatch::Steps(steps) => self.apply_steps(
                    representation,
                    &entry,
                    steps,
                    (new_check, structure_width),
                    &mut report,
                )?,
            };
            let fresh = match maintained {
                Maintained::Patched(fresh) => {
                    report.lineages_patched += 1;
                    fresh
                }
                Maintained::Rebuilt(fresh) => {
                    report.lineages_rebuilt += 1;
                    fresh
                }
                Maintained::Dropped => {
                    report.lineages_dropped += 1;
                    continue;
                }
            };
            self.lineage_cache
                .insert_replacing((new_lineage_fp, key.1), Arc::new(fresh));
        }
        if report.lineages_dropped > 0 && matches!(application.lineage, LineagePatch::Rebuild) {
            report.notes.push(format!(
                "{} compiled lineage(s) dropped: this update class rebuilds lineage",
                report.lineages_dropped
            ));
            report.fell_back = true;
        }

        report.wall_time = watch.elapsed();
        Ok(report)
    }

    /// Applies one delta's patch steps to a cached lineage. A deletion
    /// rewires the circuit's inputs (its plan carried over). An insertion
    /// keeps the circuit when the inserted facts add no match to it (the
    /// O(delta) test of [`Updatable::adds_match`]), and otherwise
    /// rebuilds the lineage with the build a cache miss runs, over the
    /// structure decomposition the engine now holds, planning it inside
    /// the write when the replaced circuit was planned.
    ///
    /// A rebuild the budget interrupts fails the write (the mutation and
    /// the entries maintained so far stand; this one is dropped and
    /// rebuilds on its next read); any other failed rebuild drops the
    /// entry.
    ///
    /// `(instance_check, structure_width)` are the changed instance's
    /// secondary hash and its structure-decomposition width, when known.
    fn apply_steps<R>(
        &self,
        representation: &R,
        entry: &CompiledLineage,
        steps: &[LineagePatchStep],
        (instance_check, structure_width): (u64, Option<usize>),
        report: &mut UpdateReport,
    ) -> Result<Maintained, StucError>
    where
        R: Representation + Updatable<Query = <R as Representation>::Query> + ?Sized,
    {
        let mut compiled = Arc::clone(&entry.compiled);
        let mut rebuild_for = None;
        for step in steps {
            match step {
                LineagePatchStep::RewireInputs { pin_false, remap } => {
                    let (rewired, gates) = compiled.rewire_inputs(pin_false, remap);
                    compiled = Arc::new(rewired);
                    report.gates_rebuilt += gates;
                }
                LineagePatchStep::RebuildOnNewMatches { inserted } => {
                    let Some(query) = entry.query.downcast_ref::<<R as Representation>::Query>()
                    else {
                        return Ok(Maintained::Dropped);
                    };
                    if representation.adds_match(query, inserted) {
                        rebuild_for = Some(query);
                    }
                }
            }
        }
        let Some(query) = rebuild_for else {
            return Ok(Maintained::Patched(entry.with_patched_circuit(
                compiled,
                instance_check,
                structure_width,
            )));
        };
        let (decomposition, _) = self.decomposition_for(representation);
        match self.build_lineage(representation, query, &decomposition) {
            Ok((rebuilt, build_notes)) => {
                // A transient planning failure leaves the planning to the
                // next read.
                if entry.compiled.is_planned() {
                    let _ = rebuilt.try_sweep_plan();
                }
                report.gates_rebuilt += rebuilt.len();
                Ok(Maintained::Rebuilt(CompiledLineage {
                    compiled: Arc::new(rebuilt),
                    decomposition_width: Some(decomposition.width()),
                    build_notes,
                    query_repr: entry.query_repr.clone(),
                    instance_check,
                    query: Arc::clone(&entry.query),
                    answer: OnceLock::new(),
                }))
            }
            Err(err) if stuc_fault::budget::tripped() => Err(err),
            Err(err) => {
                report.fell_back = true;
                report.notes.push(format!(
                    "lineage rebuild failed ({err}); dropped for lazy rebuild"
                ));
                Ok(Maintained::Dropped)
            }
        }
    }
}

/// What became of one cached lineage in a write.
enum Maintained {
    /// Reused or rewired.
    Patched(CompiledLineage),
    /// Rebuilt for new matches.
    Rebuilt(CompiledLineage),
    /// Dropped; it rebuilds on its next read.
    Dropped,
}
