//! Order statistics, the process memory high-water mark, and the metric
//! record every workload returns.

/// One reported metric: name, value and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and failed (wrong answers included).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-speed calibration.
///
/// The 2-vCPU virtual machines this benchmark is tuned on change speed by
/// ±30% within seconds, for reasons outside the process (a fixed integer
/// loop shows the same swings). Every workload therefore times a fixed
/// calibration kernel at regular points of its run and scales each time it
/// measures by `REFERENCE_MS / kernel_ms` from the latest calibration: the
/// reported times are those of a host on which the kernel takes
/// `REFERENCE_MS`, which is about its median time on the machine the
/// baseline was measured on.
pub mod calibration {
    use std::collections::BTreeMap;
    use std::fmt::Write;
    use std::hint::black_box;
    use std::time::Instant;

    pub const REFERENCE_MS: f64 = 1.1;

    /// Formatting, hashing and ordered-map work, like the engine's hot
    /// paths, of a fixed size.
    fn kernel() -> u64 {
        let mut text = String::with_capacity(256);
        let mut map = BTreeMap::new();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..black_box(3000u64) {
            text.clear();
            let _ = write!(
                text,
                "Fact {{ relation: R, args: [c{i}, c{}] }} {:?}",
                i + 1,
                i as f64 * 0.37
            );
            for b in text.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            map.insert(hash % 4096, i);
        }
        black_box(hash ^ map.len() as u64)
    }

    /// Median time of five kernel runs, in milliseconds.
    pub fn kernel_ms() -> f64 {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                kernel();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        super::median(&times)
    }

    /// The factor that scales a time measured now to the reference host.
    pub fn factor() -> f64 {
        REFERENCE_MS / kernel_ms()
    }
}

/// Operations and writes per statistics window. Each window's figures are
/// computed on their own and the run reports the median window, so a stall
/// or one outlier moves a run's figures only when it covers most windows.
const OP_WINDOW: usize = 100;
const WRITE_WINDOW: usize = 50;

/// Every run measures at least this many operations, so that the run's
/// p99 rests on ten samples beyond it.
pub const MIN_OPS: usize = 1000;

/// Consecutive chunks of about `size` items covering `0..n` (one chunk
/// when `n < 2 * size`).
fn windows(n: usize, size: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / size).max(1);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// Median over windows of `size` of `stat` applied to each window.
fn windowed(values: &[f64], size: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_window: Vec<f64> = windows(values.len(), size)
        .into_iter()
        .map(|w| stat(&values[w]))
        .collect();
    median(&per_window)
}

/// Times a set-up in pieces, each scaled by a calibration taken just
/// before it: the set-up calls [`SetupTimer::split`] between its parts.
pub struct SetupTimer {
    scaled_s: f64,
    factor: f64,
    start: std::time::Instant,
}

impl SetupTimer {
    pub fn start() -> SetupTimer {
        let factor = calibration::factor();
        SetupTimer {
            scaled_s: 0.0,
            factor,
            start: std::time::Instant::now(),
        }
    }

    pub fn split(&mut self) {
        self.scaled_s += self.start.elapsed().as_secs_f64() * self.factor;
        self.factor = calibration::factor();
        self.start = std::time::Instant::now();
    }

    pub fn finish(mut self) -> f64 {
        self.split();
        self.scaled_s
    }
}

/// What the untraced run of a workload measured, before it becomes the
/// end-to-end metrics. Times are raw; `speed` holds the calibrations that
/// scale them.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Every operation of the timed phase as (completion time in seconds
    /// on the workload's clock, latency in ms), in completion order.
    pub ops: Vec<(f64, f64)>,
    /// Every `Engine::apply_update` call as (completion time, latency ms),
    /// in call order.
    pub writes: Vec<(f64, f64)>,
    /// Calibrations as (time on the same clock, factor), in time order.
    pub speed: Vec<(f64, f64)>,
    /// Duration of each set-up, already scaled.
    pub setup_s: Vec<f64>,
    /// `VmHWM` when the timed phase ended, before any later probe or
    /// reference check could raise it.
    pub peak_rss_mb: f64,
    /// Operations, writes and checks.
    pub tally: Tally,
}

impl EndToEnd {
    /// Calibrates at time `at` of the workload's clock.
    pub fn calibrate(&mut self, at: f64) {
        self.speed.push((at, calibration::factor()));
    }

    /// Times `setup` and records its scaled duration.
    pub fn timed_setup<T>(
        &mut self,
        setup: impl FnOnce(&mut SetupTimer) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut timer = SetupTimer::start();
        let out = setup(&mut timer)?;
        self.setup_s.push(timer.finish());
        Ok(out)
    }

    /// The factor of the latest calibration at or before `t` (the first
    /// one before any).
    fn factor_at(&self, t: f64) -> f64 {
        let after = self.speed.partition_point(|&(at, _)| at <= t);
        self.speed
            .get(after.saturating_sub(1))
            .map_or(1.0, |&(_, factor)| factor)
    }

    fn scaled(&self, samples: &[(f64, f64)]) -> Vec<f64> {
        samples
            .iter()
            .map(|&(t, ms)| ms * self.factor_at(t))
            .collect()
    }

    /// Throughput of each window (its operations over the scaled time
    /// since the previous window's last completion), median over windows.
    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = windows(self.ops.len(), OP_WINDOW)
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let since = if w.start == 0 {
                    0.0
                } else {
                    self.ops[w.start - 1].0
                };
                let end = self.ops[w.end - 1].0;
                let factors: Vec<f64> = w.clone().map(|i| self.factor_at(self.ops[i].0)).collect();
                w.len() as f64 / ((end - since) * mean(&factors))
            })
            .collect();
        median(&rates)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let latencies = self.scaled(&self.ops);
        let writes = self.scaled(&self.writes);
        vec![
            Metric::new("ops_per_s", self.ops_per_s(), "1/s"),
            Metric::new(
                "p50_ms",
                windowed(&latencies, OP_WINDOW, |w| quantile(w, 0.50)),
                "ms",
            ),
            Metric::new(
                "p99_ms",
                windowed(&latencies, OP_WINDOW, |w| quantile(w, 0.99)),
                "ms",
            ),
            Metric::new(
                "write_p50_ms",
                windowed(&writes, WRITE_WINDOW, |w| quantile(w, 0.50)),
                "ms",
            ),
            Metric::new(
                "write_p99_ms",
                windowed(&writes, WRITE_WINDOW, |w| quantile(w, 0.99)),
                "ms",
            ),
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new(
                "success_rate",
                (self.tally.attempted - self.tally.failed) as f64
                    / self.tally.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }
}
