//! Atomic metric instruments and their registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;

/// Number of log₂ buckets a [`Histogram`] keeps: bucket 0 holds the
/// value 0, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the
/// last bucket additionally absorbs everything above it.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
}

/// A named collection of [`Counter`]s and [`Histogram`]s.
///
/// Cloning a `Registry` (or any instrument handle) is cheap and the
/// clone records into the same cells, so handles can be fanned out
/// across worker threads freely. A registry created with
/// [`Registry::disabled`] hands out no-op instruments; that path is a
/// single pointer check per operation.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A registry whose instruments all discard their updates.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether instruments from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, created on first use. Disabled
    /// registries return a no-op handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                let mut map = inner.counters.lock().unwrap();
                map.entry(name.to_owned()).or_default().clone()
            }),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cells: self.inner.as_ref().map(|inner| {
                let mut map = inner.histograms.lock().unwrap();
                map.entry(name.to_owned()).or_default().clone()
            }),
        }
    }

    /// A point-in-time copy of every instrument's state, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: inner
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, cells)| (name.clone(), cells.summarize()))
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::disabled()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Registry")
                .field("counters", &inner.counters.lock().unwrap().len())
                .field("histograms", &inner.histograms.lock().unwrap().len())
                .finish(),
            None => f.write_str("Registry(disabled)"),
        }
    }
}

/// A monotonically increasing `u64`.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cell {
            Some(_) => write!(f, "Counter({})", self.get()),
            None => f.write_str("Counter(disabled)"),
        }
    }
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared histogram state: log₂ buckets plus exact count/sum/max.
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `value`: 0 for 0, else `⌊log₂ value⌋ + 1`, capped
/// at the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of the values bucket `index` covers (the
/// quantile resolution of the histogram).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl HistogramCells {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn summarize(&self) -> HistogramSummary {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-th value (1-based), then walk the CDF.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Clamp to the observed max so the top bucket does
                    // not overstate by up to 2x.
                    return bucket_upper_bound(i).min(max);
                }
            }
            max
        };
        // Interpolated estimate: find the bucket holding the q-th rank,
        // then place the value linearly within the bucket's range by
        // how far into the bucket's population the rank falls. Tighter
        // than the power-of-two upper bound, still bucket-resolution.
        let quantile_est = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if seen + n >= rank {
                    let lo = if i == 0 { 0 } else { bucket_upper_bound(i - 1) + 1 };
                    let hi = bucket_upper_bound(i).min(max);
                    let frac = (rank - seen) as f64 / n as f64;
                    return (lo as f64 + frac * (hi.saturating_sub(lo)) as f64).min(max as f64);
                }
                seen += n;
            }
            max as f64
        };
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max,
            p50_est: quantile_est(0.50),
            p90_est: quantile_est(0.90),
            p99_est: quantile_est(0.99),
        }
    }
}

/// A log-bucketed distribution of `u64` samples (latencies in
/// microseconds, sizes, counts). Quantiles are upper bounds with
/// power-of-two resolution; `count`/`sum`/`max` are exact.
#[derive(Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistogramCells>>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cells {
            Some(cells) => {
                let s = cells.summarize();
                write!(f, "Histogram(count={}, max={})", s.count, s.max)
            }
            None => f.write_str("Histogram(disabled)"),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            cells.record(value);
        }
    }

    /// Time `f` with the wall clock and record elapsed microseconds.
    /// When disabled, just calls `f` — no clock reads.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.cells {
            Some(cells) => {
                let start = std::time::Instant::now();
                let out = f();
                cells.record(start.elapsed().as_micros() as u64);
                out
            }
            None => f(),
        }
    }

    /// Current statistics (all zero when disabled or empty).
    pub fn summary(&self) -> HistogramSummary {
        self.cells
            .as_ref()
            .map_or_else(HistogramSummary::default, |cells| cells.summarize())
    }
}

/// Point-in-time statistics of one [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Arithmetic mean of samples.
    pub mean: f64,
    /// Median upper bound (power-of-two resolution).
    pub p50: u64,
    /// 95th-percentile upper bound.
    pub p95: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Largest recorded sample (exact).
    pub max: u64,
    /// Median estimate with linear in-bucket interpolation.
    pub p50_est: f64,
    /// 90th-percentile interpolated estimate.
    pub p90_est: f64,
    /// 99th-percentile interpolated estimate.
    pub p99_est: f64,
}

/// A point-in-time copy of a whole [`Registry`], detached from the
/// atomics — safe to store in results and serialize later.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The histogram summary named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Sum of all counters whose name starts with `prefix` — handy for
    /// rolling up per-zone or per-message-type families.
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// This snapshot as one JSON object:
    /// `{"counters": {...}, "histograms": {...}}`.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_lit(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_lit(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"mean\":",
                h.count, h.sum
            ));
            json::push_f64(&mut out, h.mean);
            out.push_str(&format!(
                ",\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}",
                h.p50, h.p95, h.p99, h.max
            ));
            out.push_str(",\"p50_est\":");
            json::push_f64(&mut out, h.p50_est);
            out.push_str(",\"p90_est\":");
            json::push_f64(&mut out, h.p90_est);
            out.push_str(",\"p99_est\":");
            json::push_f64(&mut out, h.p99_est);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}
