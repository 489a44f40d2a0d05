//! Lock-free reader handles over a table's published snapshots, and the
//! per-table sink every reader of one table reports into.

use std::sync::{Arc, Mutex, PoisonError};

use minskew_core::{EstimateError, SpatialEstimator};
use minskew_geom::Rect;
use minskew_obs::{
    Counter, FlightRecorder, FlightTrigger, Histogram, QueryRecord, Registry, Stopwatch,
};

use crate::cache::{cache_key, QueryCache};
use crate::monitor::Reservoir;
use crate::publish::{
    CacheDisposition, EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot,
};
use crate::table::TableOptions;

/// The per-table serving sink, shared by `Arc` between the table and every
/// [`SpatialReader`] it (or its [`crate::CatalogEntry`]) mints, so library,
/// catalog and wire traffic feed one reservoir, one set of counters and
/// stage timings, and one flight recorder. Readers add their counts to the
/// handles resolved here in bulk (see [`SpatialReader::publish_counts`])
/// and take one reservoir lock per computed query; a cache hit touches no
/// shared state.
#[derive(Debug)]
pub(crate) struct TableSink {
    /// The table's metrics registry (see [`crate::SpatialTable::metrics`]).
    pub(crate) registry: Registry,
    /// Instrumentation on ([`TableOptions::metrics`] and `minskew-obs`
    /// compiled in). When off, readers touch nothing below.
    pub(crate) metrics: bool,
    /// 1-in-`sampling_mask + 1` single-query estimates take the timed path.
    sampling_mask: u64,
    flight_slow_ns: u64,
    flight_sample: u32,
    /// Accuracy-monitor reservoir of computed (non-cache-hit) queries.
    pub(crate) reservoir: Mutex<Reservoir>,
    /// The table's flight recorder (slow / wrong / sampled queries).
    pub(crate) flight: Arc<FlightRecorder>,
    calls: Arc<Counter>,
    sampled: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_invalidations: Arc<Counter>,
    pub(crate) batch_calls: Arc<Counter>,
    pub(crate) batch_queries: Arc<Counter>,
    pub(crate) batch_bypass: Arc<Counter>,
    cache_probe_ns: Arc<Histogram>,
    index_scan_ns: Arc<Histogram>,
    clamp_ns: Arc<Histogram>,
}

impl TableSink {
    pub(crate) fn new(options: &TableOptions) -> TableSink {
        let registry = Registry::new();
        let metrics = options.metrics && minskew_obs::enabled();
        // Metrics off ⇒ no sampling and no recording at all; sizing the
        // reservoir and the ring to zero makes that structural.
        let (reservoir, flight) = if options.metrics {
            (options.accuracy_reservoir, options.flight_capacity)
        } else {
            (0, 0)
        };
        TableSink {
            metrics,
            sampling_mask: u64::from(options.metrics_sampling.max(1)).next_power_of_two() - 1,
            flight_slow_ns: options.flight_slow_ns,
            flight_sample: options.flight_sample,
            reservoir: Mutex::new(Reservoir::new(reservoir)),
            flight: Arc::new(FlightRecorder::new(flight)),
            calls: registry.counter("engine.query.calls"),
            sampled: registry.counter("engine.query.sampled"),
            cache_hits: registry.counter("engine.cache.hits"),
            cache_misses: registry.counter("engine.cache.misses"),
            cache_invalidations: registry.counter("engine.cache.invalidations"),
            batch_calls: registry.counter("engine.batch.calls"),
            batch_queries: registry.counter("engine.batch.queries"),
            batch_bypass: registry.counter("engine.batch.cache_bypass"),
            cache_probe_ns: registry.histogram("engine.query.cache_probe_ns"),
            index_scan_ns: registry.histogram("engine.query.index_scan_ns"),
            clamp_ns: registry.histogram("engine.query.clamp_ns"),
            registry,
        }
    }

    /// Locks the accuracy reservoir. A poisoned lock only means some
    /// estimating thread panicked; the reservoir is a plain value.
    pub(crate) fn reservoir(&self) -> std::sync::MutexGuard<'_, Reservoir> {
        self.reservoir
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why a timed estimate deserves a flight record, if it does: `slow` when
/// `latency_ns` reaches a non-zero `slow_ns`, else `sampled` for every
/// `sample`-th timed estimate (`index` counts them from 0).
pub(crate) fn flight_trigger(
    latency_ns: u64,
    slow_ns: u64,
    sample: u32,
    index: u64,
) -> Option<FlightTrigger> {
    if slow_ns > 0 && latency_ns >= slow_ns {
        Some(FlightTrigger::Slow)
    } else if sample > 0 && index.is_multiple_of(u64::from(sample)) {
        Some(FlightTrigger::Sampled)
    } else {
        None
    }
}

/// The one single-query serving implementation: a lock-free handle for one
/// table, obtained via [`crate::SpatialTable::reader`] or
/// [`crate::CatalogEntry::reader`] (the table serves through one too).
///
/// A reader never takes the table's lock and never blocks on a writer:
/// each estimate loads the currently published [`TableSnapshot`] (see
/// [`SnapshotCell`]) and computes against that immutable view, so every
/// value is **exactly** what [`crate::SpatialTable::estimate`] returns
/// against the same publication — old snapshot or new, never a mixture.
/// Its private query cache is flushed on the first load that observes a
/// new generation, *before* any probe, so a hit can never serve an
/// estimate from superseded statistics. Every reader of a table reports
/// into the table's shared sink (counters, stage timings, flight recorder,
/// accuracy reservoir), bit-invisibly: only after a value is fixed. Its
/// calls and cache hits/misses arrive in bulk, at the latest when the
/// reader is dropped.
#[derive(Debug)]
pub struct SpatialReader {
    cell: Arc<SnapshotCell<TableSnapshot>>,
    sink: Arc<TableSink>,
    scratch: EstimateScratch,
    cache: QueryCache,
    /// Cell epoch the cache was last checked against (`None` before the
    /// first estimate): while it is unchanged there is no newer
    /// publication, so a cache hit needs no snapshot load. The reader holds
    /// no snapshot between calls, so superseded statistics are freed by the
    /// writer, not on a reader's next estimate.
    epoch: Option<u64>,
    /// Generation the cache's entries were filled under.
    generation: u64,
    /// Single-query estimates served while metrics are on; drives the
    /// 1-in-N timed path.
    calls: u64,
    /// `calls` and the cache's hits and misses as of the last
    /// [`SpatialReader::publish_counts`], which adds the difference.
    published: [u64; 3],
}

/// Error from [`SpatialReader::try_estimate_batch`]: the first offending
/// query (in request order) and why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryError {
    /// Zero-based index of the failing query in the request batch.
    pub index: usize,
    /// The underlying rejection.
    pub error: EstimateError,
}

impl std::fmt::Display for BatchQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchQueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl SpatialReader {
    /// Creates a reader over `cell` reporting into `sink`, with a query
    /// cache of `cache_capacity` entries (`0` disables caching).
    pub(crate) fn new(
        cell: Arc<SnapshotCell<TableSnapshot>>,
        sink: Arc<TableSink>,
        cache_capacity: usize,
    ) -> SpatialReader {
        SpatialReader {
            epoch: None,
            cell,
            sink,
            scratch: EstimateScratch::new(),
            cache: QueryCache::new(cache_capacity),
            generation: 0,
            calls: 0,
            published: [0; 3],
        }
    }

    /// Makes the cache current: when the cell's epoch has moved, loads the
    /// latest snapshot (see [`SpatialReader::load`]) before any probe.
    fn sync(&mut self) {
        let epoch = self.cell.epoch();
        if self.epoch != Some(epoch) {
            self.epoch = Some(epoch);
            self.load();
        }
    }

    /// The latest snapshot, with the cache flushed first when it carries a
    /// new generation — before any probe, which makes the flush atomic with
    /// publication.
    fn load(&mut self) -> Arc<TableSnapshot> {
        let snapshot = self.cell.load();
        if snapshot.generation() != self.generation {
            if self.cache.invalidate() && self.sink.metrics {
                self.sink.cache_invalidations.inc();
            }
            self.generation = snapshot.generation();
        }
        snapshot
    }

    /// Estimated result size for `query` against the latest published
    /// snapshot (`0.0` for non-finite queries, like
    /// [`crate::SpatialTable::estimate`]).
    pub fn estimate(&mut self, query: &Rect) -> f64 {
        self.try_estimate(query).unwrap_or(0.0)
    }

    /// Estimated result size for `query`, rejecting non-finite queries.
    /// The `Ok` value is finite and within `[0, N]`.
    ///
    /// With metrics on, 1-in-[`TableOptions::metrics_sampling`] calls take
    /// the timed path, which also publishes the reader's counts; the rest
    /// only bump plain fields. Every computed (not cache-served) query is
    /// offered to the table's accuracy reservoir.
    pub fn try_estimate(&mut self, query: &Rect) -> Result<f64, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        self.sync();
        let key = cache_key(query);
        let metrics = self.sink.metrics;
        if metrics {
            self.calls += 1;
            if (self.calls - 1) & self.sink.sampling_mask == 0 {
                let value = self.estimate_timed(query, key);
                self.publish_counts();
                return Ok(value);
            }
        }
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached);
        }
        let value = self.load().estimate(query, &mut self.scratch);
        self.cache.insert(key, value);
        if metrics {
            self.sink.reservoir().observe(*query);
        }
        Ok(value)
    }

    /// The sampled serving path: the same functions in the same order as
    /// the unsampled path (so the result is bit-identical), with a
    /// [`Stopwatch`] lap between stages feeding the `engine.query.*_ns`
    /// histograms. This is also where the flight recorder's `slow` and
    /// `sampled` triggers live: only sampled calls read the clock.
    fn estimate_timed(&mut self, query: &Rect, key: [u64; 4]) -> f64 {
        self.sink.sampled.inc();
        let mut clock = Stopwatch::start();
        let cached = self.cache.get(&key);
        self.sink.cache_probe_ns.record(clock.lap());
        if let Some(value) = cached {
            // A cache hit cannot be slow and carries no scan evidence; it
            // is never flight-recorded.
            return value;
        }
        let snapshot = self.load();
        let raw = snapshot.estimate_raw(query, &mut self.scratch);
        self.sink.index_scan_ns.record(clock.lap());
        let value = snapshot.clamp(raw);
        self.sink.clamp_ns.record(clock.lap());
        let total_ns = clock.total();
        let technique = snapshot.stats().map_or_else(
            || String::from("fallback"),
            |stats| minskew_obs::name_component(stats.name()),
        );
        let sink = &self.sink;
        sink.registry
            .histogram(&format!("engine.estimate.{technique}.ns"))
            .record(total_ns);
        // The call's 0-based index within this reader's timed stream.
        let timed = (self.calls - 1) / (sink.sampling_mask + 1);
        let trigger = flight_trigger(total_ns, sink.flight_slow_ns, sink.flight_sample, timed);
        if let Some(trigger) = trigger.filter(|_| sink.flight.capacity() > 0) {
            // Table-level records carry no trace id (wire records, which
            // do, are captured by the server).
            sink.flight.record(&QueryRecord {
                trigger,
                tid: String::new(),
                query: [query.lo.x, query.lo.y, query.hi.x, query.hi.y],
                estimate: value,
                exact: None,
                latency_ns: total_ns,
                generation: self.generation,
            });
        }
        self.cache.insert(key, value);
        self.sink.reservoir().observe(*query);
        value
    }

    /// [`SpatialReader::try_estimate`] with the evidence attached: the
    /// headline estimate is bit-identical to what `try_estimate` would
    /// return against the same snapshot (EXPLAIN recomputes through the
    /// same serving path), and the cache disposition is what it *would*
    /// have done — EXPLAIN never inserts, so it evicts no serving entry.
    pub fn try_explain(&mut self, query: &Rect) -> Result<EstimateTrace, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let snapshot = self.load();
        let cached = self.cache.get(&cache_key(query)).is_some();
        let mut trace = snapshot.explain(query, &mut self.scratch);
        self.publish_counts();
        trace.cache = if self.cache.capacity() == 0 {
            CacheDisposition::Bypassed
        } else if cached {
            CacheDisposition::Hit
        } else {
            CacheDisposition::Miss
        };
        Ok(trace)
    }

    /// Estimated result sizes for a batch of queries, rejecting the batch
    /// on the first (request-order) non-finite query.
    ///
    /// The whole batch is served against **one** snapshot — a mid-batch
    /// publication cannot split it across generations — in Morton order of
    /// the query centres ([`minskew_core::morton_schedule`]) so consecutive
    /// estimates touch neighbouring SoA cache lines. Results come back in
    /// request order, bit-identical to a request-order
    /// [`SpatialReader::try_estimate`] loop: each estimate is independent,
    /// and the cache stores exact values keyed by query bits. A batch
    /// counts into `engine.batch.{calls,queries}` and the cache counters;
    /// it takes no timed path and does not feed the reservoir.
    pub fn try_estimate_batch(&mut self, queries: &[Rect]) -> Result<Vec<f64>, BatchQueryError> {
        if let Some(index) = queries.iter().position(|q| !q.is_finite()) {
            return Err(BatchQueryError {
                index,
                error: EstimateError::NonFiniteQuery,
            });
        }
        let snapshot = self.load();
        let order = minskew_core::morton_schedule(queries);
        let mut out = vec![0.0f64; queries.len()];
        for &i in &order {
            let query = &queries[i as usize];
            let key = cache_key(query);
            out[i as usize] = if let Some(cached) = self.cache.get(&key) {
                cached
            } else {
                let value = snapshot.estimate(query, &mut self.scratch);
                self.cache.insert(key, value);
                value
            };
        }
        if self.sink.metrics {
            self.sink.batch_calls.inc();
            self.sink.batch_queries.add(queries.len() as u64);
        }
        self.publish_counts();
        Ok(out)
    }

    /// Adds the calls, cache hits and cache misses this reader served since
    /// the last call to the table's `engine.query.calls` /
    /// `engine.cache.{hits,misses}` counters. Runs on every timed call
    /// (1-in-[`TableOptions::metrics_sampling`]), after every batch and
    /// EXPLAIN, and when the reader is dropped; the server runs it after
    /// every request and [`crate::SpatialTable::metrics`] for the table's
    /// own reader, so their scrapes are exact.
    pub(crate) fn publish_counts(&mut self) {
        if !self.sink.metrics {
            return;
        }
        let now = [self.calls, self.cache.hits(), self.cache.misses()];
        let counters = [
            &self.sink.calls,
            &self.sink.cache_hits,
            &self.sink.cache_misses,
        ];
        for ((counter, now), seen) in counters.into_iter().zip(now).zip(&mut self.published) {
            counter.add(now - *seen);
            *seen = now;
        }
    }

    /// The latest published snapshot (what the next estimate will serve
    /// against).
    pub fn snapshot(&self) -> Arc<TableSnapshot> {
        self.cell.load()
    }

    /// Generation of the snapshot the most recent estimate ran against
    /// (`0` before any estimate).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `(hits, misses)` of this reader's private query cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Non-empty flushes of this reader's private query cache.
    pub(crate) fn cache_invalidations(&self) -> u64 {
        self.cache.invalidations()
    }
}

impl Drop for SpatialReader {
    fn drop(&mut self) {
        self.publish_counts();
    }
}

impl Clone for SpatialReader {
    /// Clones the subscription, not the state: the clone shares the
    /// publication cell and the table's sink but starts with fresh scratch
    /// and an empty cache (sized like the original), so clones can be
    /// handed to other threads.
    fn clone(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone(), self.sink.clone(), self.cache.capacity())
    }
}
