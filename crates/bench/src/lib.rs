//! Shared configuration and helpers for the STUC benchmark harness.
//!
//! Every table/figure/claim of the paper maps to one Criterion bench target
//! in `benches/` (see DESIGN.md §4 and EXPERIMENTS.md). All benches use the
//! same short measurement settings so that `cargo bench --workspace`
//! completes in minutes while still showing the asymptotic *shape* of each
//! comparison (who wins, by what factor, where the crossover happens) —
//! absolute numbers are not the point, as the paper itself reports no
//! absolute performance figures.

use criterion::Criterion;
use std::time::Duration;
use stuc_core::serve::http::escape_json;

pub mod benchdiff;

/// The Criterion configuration shared by every STUC bench: few samples,
/// short measurement windows, no plots.
pub fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .without_plots()
}

/// Prints a labelled scalar result alongside the timing benchmarks, so that
/// the harness output also records the *values* the paper's examples imply
/// (probabilities, widths, counts). `cargo bench` output is the record.
pub fn report_value(experiment: &str, label: &str, value: impl std::fmt::Display) {
    println!("[{experiment}] {label} = {value}");
}

/// Best-of-N wall time of a closure — the measurement the `[A*]` report
/// lines and [`BenchSummary`] records are built from. Shared by the a2/a4/a5
/// suites and the release perf-smoke test so all of them time the same way.
pub fn timed<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let started = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(started.elapsed());
    }
    best
}

/// The latency percentiles [`BenchSummary::record_percentile`] can log,
/// each mapped to its row key in the `BENCH_*.json` schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// Median — `"p50_ns"`.
    P50,
    /// 90th percentile — `"p90_ns"`.
    P90,
    /// 99th percentile — `"p99_ns"`.
    P99,
}

impl Quantile {
    /// The JSON key this quantile is written under.
    pub fn key(self) -> &'static str {
        match self {
            Quantile::P50 => "p50_ns",
            Quantile::P90 => "p90_ns",
            Quantile::P99 => "p99_ns",
        }
    }
}

/// Machine-readable benchmark summary, appended to `BENCH_<suite>.json` so
/// the performance trajectory of the hot paths is tracked *across PRs*
/// rather than living only in scrollback. One JSON object per line
/// (JSON-lines): `{"suite", "case", "best_ns", "speedup_vs_baseline"?}` —
/// `best_ns` is a best-of-N measurement (see [`timed`]), not a median.
///
/// The file lands in the workspace root (override with the
/// `STUC_BENCH_DIR` environment variable). Writing is best-effort: an
/// unwritable directory only prints a warning, benches never fail over
/// bookkeeping.
#[derive(Debug)]
pub struct BenchSummary {
    suite: String,
    lines: Vec<String>,
}

impl BenchSummary {
    /// Starts a summary for one bench suite (e.g. `"a2"`).
    pub fn new(suite: &str) -> Self {
        BenchSummary {
            suite: suite.to_string(),
            lines: Vec::new(),
        }
    }

    /// Records a case's best-of-N wall time (see [`timed`]).
    pub fn record(&mut self, case: &str, best: Duration) {
        self.push(case, best, None);
    }

    /// Records a case together with its speedup over a baseline measurement
    /// (`baseline / best`, >1 means the case is faster).
    pub fn record_speedup(&mut self, case: &str, best: Duration, baseline: Duration) {
        let speedup = baseline.as_secs_f64() / best.as_secs_f64().max(f64::MIN_POSITIVE);
        self.push(case, best, Some(speedup));
    }

    /// Records a throughput case: `count` completions over `elapsed`,
    /// written as `best_ns` (the elapsed wall time) plus a
    /// `"rate_per_sec"` field. Used by the `stuc-loadgen` service bench
    /// for queries/sec.
    pub fn record_rate(&mut self, case: &str, count: u64, elapsed: Duration) {
        let rate = count as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        self.lines.push(format!(
            "{{\"suite\":\"{}\",\"case\":\"{}\",\"best_ns\":{},\"rate_per_sec\":{rate:.2}}}",
            escape_json(&self.suite),
            escape_json(case),
            elapsed.as_nanos()
        ));
    }

    /// Records a full latency distribution from a [`stuc_obs`] histogram:
    /// `{"suite","case","count","p50_ns","p90_ns","p99_ns","buckets":[…]}`
    /// with cumulative `{"le_ns","count"}` buckets (Prometheus-style,
    /// truncated after the first bucket that holds every observation — the
    /// rest repeat the total). Used by `stuc-loadgen` so the *shape* of
    /// service latency is tracked across PRs, not just two quantiles.
    pub fn record_histogram(&mut self, case: &str, histogram: &stuc_obs::metrics::Histogram) {
        let nanos = |secs: f64| (secs * 1e9).round() as u64;
        let total = histogram.count();
        let mut buckets = Vec::new();
        for (bound, cum) in histogram.cumulative_buckets() {
            if bound.is_infinite() {
                break;
            }
            buckets.push(format!("{{\"le_ns\":{},\"count\":{cum}}}", nanos(bound)));
            if cum == total {
                break;
            }
        }
        self.lines.push(format!(
            "{{\"suite\":\"{}\",\"case\":\"{}\",\"count\":{total},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}",
            escape_json(&self.suite),
            escape_json(case),
            nanos(histogram.quantile(0.50)),
            nanos(histogram.quantile(0.90)),
            nanos(histogram.quantile(0.99)),
            buckets.join(",")
        ));
    }

    /// Records one exact latency percentile (`{"suite","case","p90_ns"}`).
    /// Distinct from [`record`](Self::record): a tail percentile under load
    /// is a distribution statistic, not a best-of-N time, so `stuc-benchdiff`
    /// tracks it without gating it — shared-runner tail noise routinely
    /// exceeds any tolerance tight enough to catch real regressions.
    pub fn record_percentile(&mut self, case: &str, quantile: Quantile, value: Duration) {
        self.lines.push(format!(
            "{{\"suite\":\"{}\",\"case\":\"{}\",\"{}\":{}}}",
            escape_json(&self.suite),
            escape_json(case),
            quantile.key(),
            value.as_nanos()
        ));
    }

    /// Records a bare counter case (`{"suite","case","count"}`), e.g. how
    /// many typed overload rejections the admission-control probe saw.
    pub fn record_count(&mut self, case: &str, count: u64) {
        self.lines.push(format!(
            "{{\"suite\":\"{}\",\"case\":\"{}\",\"count\":{count}}}",
            escape_json(&self.suite),
            escape_json(case)
        ));
    }

    fn push(&mut self, case: &str, best: Duration, speedup: Option<f64>) {
        let mut line = format!(
            "{{\"suite\":\"{}\",\"case\":\"{}\",\"best_ns\":{}",
            escape_json(&self.suite),
            escape_json(case),
            best.as_nanos()
        );
        if let Some(speedup) = speedup {
            line.push_str(&format!(",\"speedup_vs_baseline\":{speedup:.4}"));
        }
        line.push('}');
        self.lines.push(line);
    }

    /// Appends the recorded lines to `BENCH_<suite>.json` and reports where
    /// they went. Call once at the end of the bench `main`.
    pub fn write(&self) {
        if self.lines.is_empty() {
            return;
        }
        let path = summary_dir().join(format!("BENCH_{}.json", self.suite));
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut file| {
                use std::io::Write;
                for line in &self.lines {
                    writeln!(file, "{line}")?;
                }
                Ok(())
            });
        match result {
            Ok(()) => println!(
                "[{}] wrote {} summary line(s) to {}",
                self.suite,
                self.lines.len(),
                path.display()
            ),
            Err(error) => eprintln!(
                "[{}] could not write bench summary to {}: {error}",
                self.suite,
                path.display()
            ),
        }
    }
}

/// Where summaries go: `STUC_BENCH_DIR` if set, else the workspace root
/// (two levels above this crate's manifest), else the current directory.
fn summary_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("STUC_BENCH_DIR") {
        return std::path::PathBuf::from(dir);
    }
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lines_are_json_objects() {
        let mut summary = BenchSummary::new("t0");
        summary.record("sweep", Duration::from_nanos(1500));
        summary.record_speedup(
            "lanes_vs_sequential",
            Duration::from_micros(10),
            Duration::from_micros(45),
        );
        assert_eq!(
            summary.lines[0],
            "{\"suite\":\"t0\",\"case\":\"sweep\",\"best_ns\":1500}"
        );
        assert!(summary.lines[1].contains("\"speedup_vs_baseline\":4.5000"));
        summary.record_rate("throughput", 500, Duration::from_secs(2));
        assert!(summary.lines[2].contains("\"rate_per_sec\":250.00"));
        summary.record_count("overload_rejections", 7);
        assert_eq!(
            summary.lines[3],
            "{\"suite\":\"t0\",\"case\":\"overload_rejections\",\"count\":7}"
        );
    }

    #[test]
    fn histogram_rows_carry_quantiles_and_truncated_buckets() {
        let histogram = stuc_obs::metrics::Histogram::latency();
        for _ in 0..99 {
            histogram.observe(Duration::from_micros(10));
        }
        histogram.observe(Duration::from_millis(50));
        let mut summary = BenchSummary::new("t2");
        summary.record_histogram("latency", &histogram);
        let line = &summary.lines[0];
        assert!(line.contains("\"count\":100"), "{line}");
        assert!(line.contains("\"p50_ns\":"), "{line}");
        assert!(line.contains("\"p90_ns\":"), "{line}");
        assert!(line.contains("\"p99_ns\":"), "{line}");
        assert!(line.contains("\"buckets\":[{\"le_ns\":1000,"), "{line}");
        // Truncated after the first bucket holding all 100 observations:
        // the 16.8s tail of the ladder never shows up.
        assert!(line.contains(",\"count\":100}]"), "{line}");
        assert!(!line.contains("16777"), "{line}");
    }

    #[test]
    fn summary_writes_to_a_directory_override() {
        let dir = std::env::temp_dir().join(format!("stuc-bench-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut summary = BenchSummary::new("t1");
        summary.record("case", Duration::from_nanos(7));
        // Write through the override without mutating global env state in a
        // multi-threaded test run: call the path computation directly.
        let path = dir.join("BENCH_t1.json");
        std::fs::write(&path, format!("{}\n", summary.lines[0])).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"best_ns\":7"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
