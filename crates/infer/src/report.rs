//! How an inference result was computed: the [`InferenceReport`] attached
//! to every marginal table, sample batch and most-probable-world answer.

use std::time::Duration;

/// Provenance of one posterior-inference computation.
///
/// The interesting trade-off the numbers expose: the backward sweep answers
/// *all* marginals in `sweeps_run = 2` dense passes, where the naive
/// approach pays one conditioned counting sweep per fact — at the price of
/// `tables_retained` node tables held live instead of the sweep's usual
/// peak-live arena.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InferenceReport {
    /// Dense sweeps over the decomposition this task ran: 2 for marginals
    /// (up + down), 1 for a sampler or max-product setup (the descents
    /// replay stored tables and are not sweeps).
    pub sweeps_run: usize,
    /// Dense node tables retained alive for backward passes and descents.
    pub tables_retained: usize,
    /// Total `f64` entries across the retained tables — the memory cost of
    /// retention, in units of 8 bytes.
    pub table_entries: usize,
    /// True when the engine served the compiled lineage from its cache (set
    /// by `stuc-core`; always false when calling `stuc-infer` directly).
    pub lineage_cached: bool,
    /// Wall-clock time of the whole task, sweeps and decoding included.
    pub wall_time: Duration,
}
