//! Fixed-capacity time series: named streams of `(t, f64)` samples with
//! automatic downsampling.
//!
//! A [`TimeSeries`] keeps at most `capacity` points. When a new sample
//! would exceed the capacity, adjacent points are merged pairwise —
//! halving the point count and doubling the time resolution — so a
//! series never reallocates beyond its capacity and never silently
//! drops its history. Each point keeps the **min/max envelope**, the
//! first/last values, and the sample count of everything merged into
//! it, so downsampling preserves extremes exactly (the property charts
//! and regression checks care about) while the mean stays recoverable
//! from `sum / count`.
//!
//! The time axis is caller-defined (the replay crates record market
//! *minutes*). A series only assumes time is non-decreasing per stream
//! (out-of-order samples are accepted but land in the tail point).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json;

/// Default maximum number of retained points per series.
pub(crate) const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One retained point: a single sample, or the aggregate of several
/// merged samples covering `[t_first, t_last]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Time of the earliest sample merged into this point.
    pub t_first: u64,
    /// Time of the latest sample merged into this point.
    pub t_last: u64,
    /// Smallest merged sample.
    pub min: f64,
    /// Largest merged sample.
    pub max: f64,
    /// Earliest merged sample value.
    pub first: f64,
    /// Latest merged sample value.
    pub last: f64,
    /// Sum of merged samples (mean = `sum / count`).
    pub sum: f64,
    /// Number of raw samples merged into this point.
    pub count: u64,
}

impl SeriesPoint {
    fn single(t: u64, value: f64) -> SeriesPoint {
        SeriesPoint {
            t_first: t,
            t_last: t,
            min: value,
            max: value,
            first: value,
            last: value,
            sum: value,
            count: 1,
        }
    }

    /// Merge `next` (the later point) into `self`.
    fn absorb(&mut self, next: &SeriesPoint) {
        self.t_last = next.t_last;
        self.min = self.min.min(next.min);
        self.max = self.max.max(next.max);
        self.last = next.last;
        self.sum += next.sum;
        self.count += next.count;
    }
}

struct SeriesCells {
    points: Vec<SeriesPoint>,
    capacity: usize,
    total_count: u64,
}

impl SeriesCells {
    fn record(&mut self, t: u64, value: f64) {
        self.total_count += 1;
        if self.points.len() >= self.capacity {
            // Halve the resolution: merge adjacent pairs in place. With
            // capacity >= 2 this always frees at least one slot.
            let mut write = 0usize;
            let mut read = 0usize;
            while read < self.points.len() {
                let mut merged = self.points[read];
                if read + 1 < self.points.len() {
                    let next = self.points[read + 1];
                    merged.absorb(&next);
                }
                self.points[write] = merged;
                write += 1;
                read += 2;
            }
            self.points.truncate(write);
        }
        self.points.push(SeriesPoint::single(t, value));
    }

    fn snapshot(&self, name: &str) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_owned(),
            points: self.points.clone(),
            total_count: self.total_count,
        }
    }
}

struct StoreInner {
    series: Mutex<BTreeMap<String, Arc<Mutex<SeriesCells>>>>,
    default_capacity: usize,
}

/// A named collection of [`TimeSeries`]. Shares the enabled/disabled
/// design of [`crate::Registry`]: a disabled store hands out no-op
/// handles whose `record` is a `None` check.
#[derive(Clone)]
pub struct SeriesStore {
    inner: Option<Arc<StoreInner>>,
}

impl SeriesStore {
    /// An enabled, empty store with the default per-series capacity.
    pub(crate) fn new() -> SeriesStore {
        SeriesStore::with_capacity(DEFAULT_SERIES_CAPACITY)
    }

    /// An enabled store whose series keep at most `capacity` points
    /// each (clamped to at least 2 so pair-merging always frees space).
    pub fn with_capacity(capacity: usize) -> SeriesStore {
        SeriesStore {
            inner: Some(Arc::new(StoreInner {
                series: Mutex::new(BTreeMap::new()),
                default_capacity: capacity.max(2),
            })),
        }
    }

    /// A store whose series all discard their samples.
    pub(crate) fn disabled() -> SeriesStore {
        SeriesStore { inner: None }
    }

    /// Whether series from this store record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The series named `name`, created on first use.
    pub fn series(&self, name: &str) -> TimeSeries {
        TimeSeries {
            cells: self.inner.as_ref().map(|inner| {
                let mut map = inner.series.lock().unwrap();
                map.entry(name.to_owned())
                    .or_insert_with(|| {
                        Arc::new(Mutex::new(SeriesCells {
                            points: Vec::new(),
                            capacity: inner.default_capacity,
                            total_count: 0,
                        }))
                    })
                    .clone()
            }),
        }
    }

    /// Record one sample into the series named `name` (shorthand for
    /// `self.series(name).record(t, value)`).
    pub fn record(&self, name: &str, t: u64, value: f64) {
        self.series(name).record(t, value);
    }

    /// Point-in-time copies of every series, sorted by name.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .series
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cells)| cells.lock().unwrap().snapshot(name))
            .collect()
    }
}

impl Default for SeriesStore {
    fn default() -> SeriesStore {
        SeriesStore::disabled()
    }
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("SeriesStore")
                .field("series", &inner.series.lock().unwrap().len())
                .finish(),
            None => f.write_str("SeriesStore(disabled)"),
        }
    }
}

/// A handle to one named series. Cloning shares the underlying ring.
#[derive(Clone, Default)]
pub struct TimeSeries {
    cells: Option<Arc<Mutex<SeriesCells>>>,
}

impl TimeSeries {
    /// Record one `(t, value)` sample.
    pub fn record(&self, t: u64, value: f64) {
        if let Some(cells) = &self.cells {
            cells.lock().unwrap().record(t, value);
        }
    }
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cells {
            Some(cells) => {
                let c = cells.lock().unwrap();
                write!(
                    f,
                    "TimeSeries(points={}, samples={})",
                    c.points.len(),
                    c.total_count
                )
            }
            None => f.write_str("TimeSeries(disabled)"),
        }
    }
}

/// Detached copy of one series, safe to store in results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name.
    pub name: String,
    /// Retained points, oldest first.
    pub points: Vec<SeriesPoint>,
    /// Total samples ever recorded into the series.
    pub total_count: u64,
}

impl SeriesSnapshot {
    /// Smallest sample ever retained (None when empty).
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|p| p.min).reduce(f64::min)
    }

    /// Largest sample ever retained (None when empty).
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.max).reduce(f64::max)
    }

    /// The most recent sample value (None when empty).
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.last)
    }

    /// This snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        json::push_str_lit(&mut out, &self.name);
        out.push_str(&format!(",\"total_count\":{},\"points\":[", self.total_count));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_point_json(&mut out, p);
        }
        out.push_str("]}");
        out
    }
}

pub(crate) fn push_point_json(out: &mut String, p: &SeriesPoint) {
    out.push_str(&format!("{{\"t_first\":{},\"t_last\":{}", p.t_first, p.t_last));
    for (key, v) in [
        ("min", p.min),
        ("max", p.max),
        ("first", p.first),
        ("last", p.last),
        ("sum", p.sum),
    ] {
        out.push_str(&format!(",\"{key}\":"));
        json::push_f64(out, v);
    }
    out.push_str(&format!(",\"count\":{}}}", p.count));
}
