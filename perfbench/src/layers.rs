//! The traced run's per-layer breakdown.
//!
//! Tracing lives entirely in the benchmark: the program is not
//! instrumented further. Each wire request of the traced segment is timed
//! on the client in three spans (format, round trip, parse). With the wall
//! clock paused, the same request is then replayed through each layer's
//! public function and timed there: `SpatialReader` (reader + cache),
//! `TableSnapshot::estimate` (publish: kernel plus clamp), the kernel
//! itself, and, for writes, a replica `SpatialTable` fed the identical
//! write stream, a replica `RStarTree` and a replica histogram. The
//! server's own share comes from its `serve.request_ns` histogram, scraped
//! over the wire with `METRICS` before and after the segment.

use std::path::PathBuf;
use std::time::Instant;

use minskew_core::{BucketPlane, MinSkewBuilder, PruneStats, SpatialHistogram};
use minskew_data::{Dataset, DensityGrid};
use minskew_engine::{EstimateScratch, RowId, SpatialReader, SpatialTable};
use minskew_geom::Rect;
use minskew_rtree::{RStarTree, RTreeConfig};

use crate::setup::{table_options, BUCKETS, REGIONS};
use crate::stats::{median_f64, ns_since, quantile};

/// Client-side spans of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub format_ns: u64,
    pub rt_ns: u64,
    pub parse_ns: u64,
}

impl Spans {
    /// Spans from the instants before formatting (`t0`), before sending
    /// (`t1`) and after the reply arrived (`t2`); parsing ends now.
    pub fn stamp(t0: Instant, t1: Instant, t2: Instant) -> Spans {
        let t3 = Instant::now();
        Spans {
            format_ns: (t1 - t0).as_nanos() as u64,
            rt_ns: (t2 - t1).as_nanos() as u64,
            parse_ns: (t3 - t2).as_nanos() as u64,
        }
    }

    /// A request timed only as a whole round trip.
    pub fn round_trip(ns: u64) -> Spans {
        Spans {
            rt_ns: ns,
            ..Spans::default()
        }
    }

    /// Client-observed latency: format + round trip + parse.
    pub fn total(&self) -> u64 {
        self.format_ns + self.rt_ns + self.parse_ns
    }
}

/// Sums over the traced segment's requests, for attributing the
/// client-observed time to layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    pub requests: u64,
    pub client_ns: u64,
    pub rt_ns: u64,
    pub loadgen_ns: u64,
    /// In-process replay of each request's engine call (reader, or the
    /// table's write / `ANALYZE` / save).
    pub engine_ns: u64,
    pub kernel_ns: u64,
}

/// Counts frozen at the end of the traced segment (they must repeat
/// exactly for one seed).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub publishes_seen: u64,
    pub kernel_queries: u64,
    pub prune: PruneTotals,
    pub attribution: Attribution,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneTotals {
    pub blocks: u64,
    pub blocks_pruned: u64,
    pub quads_tested: u64,
    pub quads_pruned: u64,
    pub classified: u64,
}

impl PruneTotals {
    fn add(&mut self, p: PruneStats) {
        self.blocks += p.blocks as u64;
        self.blocks_pruned += p.blocks_pruned as u64;
        self.quads_tested += p.quads_tested as u64;
        self.quads_pruned += p.quads_pruned as u64;
        self.classified += p.buckets_classified as u64;
    }
}

/// Timing samples in nanoseconds, plus the batch and snapshot totals.
#[derive(Debug, Default)]
struct Samples {
    format: Vec<u64>,
    parse: Vec<u64>,
    read_rt: Vec<u64>,
    reader_estimate: Vec<u64>,
    first_after_write: Vec<u64>,
    publish_estimate: Vec<u64>,
    kernel_estimate: Vec<u64>,
    plane_build: Vec<u64>,
    table_insert: Vec<u64>,
    table_delete: Vec<u64>,
    table_analyze: Vec<u64>,
    rtree_insert: Vec<u64>,
    note_insert: Vec<u64>,
    grid_build: Vec<u64>,
    minskew_build: Vec<u64>,
    save: Vec<u64>,
    load: Vec<u64>,
    encode: Vec<u64>,
    decode: Vec<u64>,
    reader_batch_ns: u64,
    reader_batch_queries: u64,
    bytes_written: u64,
}

impl Samples {
    /// `self`'s samples, or `other`'s wherever `self` has none.
    fn or(mut self, other: Samples) -> Samples {
        fn pick(a: &mut Vec<u64>, b: Vec<u64>) {
            if a.is_empty() {
                *a = b;
            }
        }
        pick(&mut self.format, other.format);
        pick(&mut self.parse, other.parse);
        pick(&mut self.read_rt, other.read_rt);
        pick(&mut self.reader_estimate, other.reader_estimate);
        pick(&mut self.first_after_write, other.first_after_write);
        pick(&mut self.publish_estimate, other.publish_estimate);
        pick(&mut self.kernel_estimate, other.kernel_estimate);
        pick(&mut self.plane_build, other.plane_build);
        pick(&mut self.table_insert, other.table_insert);
        pick(&mut self.table_delete, other.table_delete);
        pick(&mut self.table_analyze, other.table_analyze);
        pick(&mut self.rtree_insert, other.rtree_insert);
        pick(&mut self.note_insert, other.note_insert);
        pick(&mut self.grid_build, other.grid_build);
        pick(&mut self.minskew_build, other.minskew_build);
        pick(&mut self.save, other.save);
        pick(&mut self.load, other.load);
        pick(&mut self.encode, other.encode);
        pick(&mut self.decode, other.decode);
        if self.reader_batch_queries == 0 {
            self.reader_batch_ns = other.reader_batch_ns;
            self.reader_batch_queries = other.reader_batch_queries;
        }
        if self.bytes_written == 0 {
            self.bytes_written = other.bytes_written;
        }
        self
    }
}

type KernelFn = Box<dyn FnMut(&SpatialHistogram, &Rect) -> f64>;
type ExplainFn = Box<dyn FnMut(&SpatialHistogram, &Rect) -> PruneStats>;

/// Replays requests through the layers' public functions; see the module
/// docs.
pub struct Tracer {
    replica: SpatialTable,
    tree: RStarTree<u64>,
    /// Mirrors the replica's statistics under the same row churn.
    maint: SpatialHistogram,
    reader: SpatialReader,
    last_generation: u64,
    scratch: EstimateScratch,
    kernel: KernelFn,
    explain: ExplainFn,
    snapshot_path: PathBuf,
    counts: Counts,
    frozen: Option<Counts>,
    /// Samples of the set-up and the traced segment; the probes' samples
    /// fill in only what the segment has none of.
    samples: Samples,
    segment: Option<Samples>,
}

fn kernel_fns() -> (KernelFn, ExplainFn) {
    // Each closure owns its kernel scratch; the scratch type is inferred
    // from the kernel's signature rather than named here.
    let mut s = Default::default();
    let kernel: KernelFn = Box::new(move |h, q| h.estimate_count_indexed(q, &mut s));
    let mut s = Default::default();
    let explain: ExplainFn =
        Box::new(move |h, q| h.estimate_count_explained(q, &mut s).kernel.prune);
    (kernel, explain)
}

impl Tracer {
    /// Builds the replicas over `rows` (the rows the served table was
    /// loaded with) and times the build-side layers once.
    pub fn new(rows: &[Rect], snapshot_path: PathBuf) -> Tracer {
        let opts = table_options();
        let mut replica = SpatialTable::new(opts);
        let mut tree = RStarTree::new(RTreeConfig::with_max_entries(opts.index_fanout));
        for r in rows {
            let id = replica.insert(*r);
            tree.insert(*r, id.raw());
        }
        let t = Instant::now();
        replica.analyze();
        let analyze_ns = ns_since(t);
        let maint = replica
            .stats()
            .cloned()
            .expect("ANALYZE installs statistics");
        let reader = replica.reader();
        let (kernel, explain) = kernel_fns();
        let mut tracer = Tracer {
            replica,
            tree,
            maint,
            reader,
            last_generation: 0,
            scratch: EstimateScratch::new(),
            kernel,
            explain,
            snapshot_path,
            counts: Counts::default(),
            frozen: None,
            samples: Samples {
                table_analyze: vec![analyze_ns],
                ..Samples::default()
            },
            segment: None,
        };
        tracer.time_builds(rows);
        tracer.time_persist();
        tracer
    }

    fn stats(&self) -> &SpatialHistogram {
        self.replica
            .stats()
            .expect("the replica is analyzed at set-up")
    }

    /// Density grid, Min-Skew construction, codec and kernel plane over
    /// `rows` and the replica's current statistics.
    fn time_builds(&mut self, rows: &[Rect]) {
        let data = Dataset::new(rows.to_vec());
        let t = Instant::now();
        let grid = DensityGrid::with_regions(data.rects(), data.stats().mbr, REGIONS);
        self.samples.grid_build.push(ns_since(t));
        std::hint::black_box(grid);
        let t = Instant::now();
        let built = MinSkewBuilder::try_new(BUCKETS)
            .and_then(|b| b.try_regions(REGIONS))
            .and_then(|b| b.try_build(&data));
        self.samples.minskew_build.push(ns_since(t));
        std::hint::black_box(built.ok());
        let hist = self.stats().clone();
        let t = Instant::now();
        let bytes = hist.to_bytes();
        self.samples.encode.push(ns_since(t));
        let t = Instant::now();
        let decoded = SpatialHistogram::from_bytes(&bytes);
        self.samples.decode.push(ns_since(t));
        std::hint::black_box(decoded.ok());
        let t = Instant::now();
        let plane = BucketPlane::build(hist.buckets(), hist.extension_rule());
        self.samples.plane_build.push(ns_since(t));
        std::hint::black_box(plane);
    }

    /// Snapshot save (temp + fsync + rename) and strict load into a fresh
    /// table.
    fn time_persist(&mut self) -> u64 {
        let t = Instant::now();
        let saved = self.replica.save_snapshot(&self.snapshot_path);
        let ns = ns_since(t);
        self.samples.save.push(ns);
        if saved.is_ok() {
            self.samples.bytes_written =
                std::fs::metadata(&self.snapshot_path).map_or(0, |m| m.len());
            let mut fresh = SpatialTable::new(table_options());
            let t = Instant::now();
            let loaded = fresh.try_load_snapshot(&self.snapshot_path);
            self.samples.load.push(ns_since(t));
            std::hint::black_box(loaded.ok());
        }
        ns
    }

    fn attribute(&mut self, spans: Spans, engine_ns: u64, kernel_ns: u64) {
        let a = &mut self.counts.attribution;
        a.requests += 1;
        a.client_ns += spans.total();
        a.rt_ns += spans.rt_ns;
        a.loadgen_ns += spans.format_ns + spans.parse_ns;
        a.engine_ns += engine_ns;
        a.kernel_ns += kernel_ns;
        if spans.format_ns > 0 {
            self.samples.format.push(spans.format_ns);
            self.samples.parse.push(spans.parse_ns);
        }
    }

    /// Notes a generation change seen by the replica's reader.
    fn saw_generation(&mut self) -> bool {
        let g = self.reader.generation();
        let new = g != self.last_generation;
        if new {
            self.last_generation = g;
            self.counts.publishes_seen += 1;
        }
        new
    }

    /// Publish and kernel replays of one query; returns the kernel time.
    fn replay_below_reader(&mut self, q: &Rect) -> u64 {
        let snapshot = self.reader.snapshot();
        let t = Instant::now();
        std::hint::black_box(snapshot.estimate(q, &mut self.scratch));
        self.samples.publish_estimate.push(ns_since(t));
        let hist = self
            .replica
            .stats()
            .expect("the replica is analyzed at set-up");
        let t = Instant::now();
        std::hint::black_box((self.kernel)(hist, q));
        let kernel_ns = ns_since(t);
        self.samples.kernel_estimate.push(kernel_ns);
        let prune = (self.explain)(hist, q);
        self.counts.prune.add(prune);
        self.counts.kernel_queries += 1;
        kernel_ns
    }

    /// One served `ESTIMATE`; `false` when the replica disagrees with the
    /// wire's bits.
    pub fn on_estimate(&mut self, q: &Rect, wire_bits: u64, spans: Spans) -> bool {
        let t = Instant::now();
        let value = self.reader.try_estimate(q);
        let ns = ns_since(t);
        self.samples.reader_estimate.push(ns);
        if self.saw_generation() {
            self.samples.first_after_write.push(ns);
        }
        self.samples.read_rt.push(spans.rt_ns);
        let kernel_ns = self.replay_below_reader(q);
        self.attribute(spans, ns, kernel_ns);
        value.ok().map(f64::to_bits) == Some(wire_bits)
    }

    /// One served `BATCH`.
    pub fn on_batch(&mut self, qs: &[Rect], wire: &[f64], spans: Spans) -> bool {
        let t = Instant::now();
        let values = self.reader.try_estimate_batch(qs);
        let ns = ns_since(t);
        self.samples.reader_batch_ns += ns;
        self.samples.reader_batch_queries += qs.len() as u64;
        self.saw_generation();
        self.samples.read_rt.push(spans.rt_ns);
        let mut kernel_ns = 0;
        for q in qs {
            kernel_ns += self.replay_below_reader(q);
        }
        self.attribute(spans, ns, kernel_ns);
        values.is_ok_and(|v| {
            v.iter()
                .map(|x| x.to_bits())
                .eq(wire.iter().map(|x| x.to_bits()))
        })
    }

    /// One served `INSERT`; `false` when the replica assigns another id.
    pub fn on_insert(&mut self, r: &Rect, wire_id: u64, spans: Spans) -> bool {
        let t = Instant::now();
        let id = self.replica.insert(*r);
        let ns = ns_since(t);
        self.samples.table_insert.push(ns);
        let t = Instant::now();
        self.tree.insert(*r, id.raw());
        self.samples.rtree_insert.push(ns_since(t));
        let t = Instant::now();
        self.maint.note_insert(r);
        self.samples.note_insert.push(ns_since(t));
        self.attribute(spans, ns, 0);
        id.raw() == wire_id
    }

    /// One served `DELETE` of row `id` (whose rectangle is `r`).
    pub fn on_delete(&mut self, id: u64, r: &Rect, spans: Spans) {
        let t = Instant::now();
        self.replica.delete(RowId::from_raw(id));
        let ns = ns_since(t);
        self.samples.table_delete.push(ns);
        self.tree.remove(r, &id);
        self.maint.note_delete(r);
        self.attribute(spans, ns, 0);
    }

    /// One served `ANALYZE` over the live rows `live`.
    pub fn on_analyze(&mut self, live: &[Rect], spans: Spans) {
        let t = Instant::now();
        self.replica.analyze();
        let ns = ns_since(t);
        self.samples.table_analyze.push(ns);
        self.maint = self.stats().clone();
        self.time_builds(live);
        self.attribute(spans, ns, 0);
    }

    /// One served `SNAPSHOT ... SAVE`.
    pub fn on_save(&mut self, spans: Spans) {
        let ns = self.time_persist();
        self.attribute(spans, ns, 0);
    }

    /// Freezes the counts, attribution and samples at the end of the traced
    /// segment; later (probe) samples fill in only what it lacks.
    pub fn freeze(&mut self) {
        let (hits, misses) = self.reader.cache_stats();
        self.counts.cache_hits = hits;
        self.counts.cache_misses = misses;
        self.frozen = Some(self.counts);
        self.segment = Some(std::mem::take(&mut self.samples));
    }

    /// The per-layer metrics, given the server's handle-time histogram over
    /// the traced segment, the transport floor (PING round trip minus its
    /// handle time) and the traced and untraced throughput.
    pub fn metrics(&mut self, handle: &Hist, floor_ns: f64, qps: (f64, f64)) -> Vec<Metric> {
        let c = self.frozen.unwrap_or(self.counts);
        let probes = std::mem::take(&mut self.samples);
        let mut s = match self.segment.take() {
            Some(segment) => segment.or(probes),
            None => probes,
        };
        let a = c.attribution;
        let client = a.client_ns.max(1) as f64;
        let handle_p50 = handle.quantile(0.5);
        let rt_p50 = quantile(&mut s.read_rt, 0.5);
        let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
        let unattributed = a.client_ns as f64
            - a.loadgen_ns as f64
            - a.requests as f64 * floor_ns
            - handle.sum as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let p = c.prune;
        let one = |v: &Vec<u64>| median_f64(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        vec![
            Metric::ns("server.handle_ns.p50", handle_p50),
            Metric::ns("server.handle_ns.p99", handle.quantile(0.99)),
            Metric::ns("server.transport_ns.p50", rt_p50 - handle_p50),
            Metric::ns("loadgen.format_ns.p50", quantile(&mut s.format, 0.5)),
            Metric::ns("loadgen.parse_ns.p50", quantile(&mut s.parse, 0.5)),
            Metric::ns(
                "reader.estimate_ns.p50",
                quantile(&mut s.reader_estimate, 0.5),
            ),
            Metric::ns(
                "reader.estimate_ns.p99",
                quantile(&mut s.reader_estimate, 0.99),
            ),
            Metric::ns(
                "reader.batch_ns_per_query",
                ratio(s.reader_batch_ns, s.reader_batch_queries),
            ),
            Metric::count("reader.publishes_seen", c.publishes_seen as f64),
            Metric::ns(
                "reader.first_after_write_ns.p50",
                quantile(&mut s.first_after_write, 0.5),
            ),
            Metric::count("cache.hits", c.cache_hits as f64),
            Metric::count("cache.misses", c.cache_misses as f64),
            Metric::ratio("cache.hit_ratio", c.cache_hits as f64 / lookups),
            Metric::ns(
                "publish.estimate_ns.p50",
                quantile(&mut s.publish_estimate, 0.5),
            ),
            Metric::ns(
                "kernel.estimate_ns.p50",
                quantile(&mut s.kernel_estimate, 0.5),
            ),
            Metric::count(
                "kernel.buckets_classified_per_query",
                ratio(p.classified, c.kernel_queries),
            ),
            Metric::ratio("kernel.block_prune_ratio", ratio(p.blocks_pruned, p.blocks)),
            Metric::ratio(
                "kernel.quad_prune_ratio",
                ratio(p.quads_pruned, p.quads_tested),
            ),
            Metric::ns("kernel.plane_build_ns", one(&s.plane_build)),
            Metric::ns("table.insert_ns.p50", quantile(&mut s.table_insert, 0.5)),
            Metric::ns("table.insert_ns.p99", quantile(&mut s.table_insert, 0.99)),
            Metric::ns("table.delete_ns.p50", quantile(&mut s.table_delete, 0.5)),
            Metric::ns("table.analyze_ns", one(&s.table_analyze)),
            Metric::ns("rtree.insert_ns.p50", quantile(&mut s.rtree_insert, 0.5)),
            Metric::ns(
                "maintenance.note_insert_ns.p50",
                quantile(&mut s.note_insert, 0.5),
            ),
            Metric::ns("grid.build_ns", one(&s.grid_build)),
            Metric::ns("minskew.build_ns", one(&s.minskew_build)),
            Metric::ns("persist.save_ns", one(&s.save)),
            Metric::ns("persist.load_ns", one(&s.load)),
            Metric::bytes("persist.bytes_written", s.bytes_written as f64),
            Metric::ns("codec.encode_ns", one(&s.encode)),
            Metric::ns("codec.decode_ns", one(&s.decode)),
            Metric::pct("trace.unattributed_pct", 100.0 * unattributed / client),
            Metric::pct(
                "trace.overhead_pct",
                100.0 * (1.0 - qps.0 / qps.1.max(1e-9)),
            ),
            Metric::pct(
                "trace.kernel_share_pct",
                100.0 * a.kernel_ns as f64 / client,
            ),
            Metric::pct(
                "trace.server_transport_share_pct",
                100.0 * (a.rt_ns as f64 - a.engine_ns as f64) / client,
            ),
        ]
    }

    /// The frozen counts (self-test).
    pub fn counts(&self) -> Counts {
        self.frozen.unwrap_or(self.counts)
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
    fn ns(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "ns")
    }
    fn count(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }
    fn ratio(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "ratio")
    }
    fn pct(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "%")
    }
    fn bytes(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "bytes")
    }
}

/// A log2-bucketed latency histogram as the server exports it in
/// `METRICS` JSON (`minskew-obs/v1`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    /// `(lo, hi, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64, u64)>,
}

fn field(s: &str, key: &str) -> Option<u64> {
    let at = s.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &s[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Hist {
    /// Extracts histogram `name` from a `METRICS` JSON body (empty when
    /// the server has not recorded it yet).
    pub fn parse(json: &str, name: &str) -> Option<Hist> {
        let Some(at) = json.find(&format!("\"{name}\": {{")) else {
            return Some(Hist::default());
        };
        let body = &json[at..];
        let body = &body[..body.find("]}")?];
        let mut h = Hist {
            count: field(body, "count")?,
            sum: field(body, "sum")?,
            buckets: Vec::new(),
        };
        let list = &body[body.find('[')? + 1..];
        for item in list.split('}').filter(|i| i.contains("\"lo\"")) {
            h.buckets.push((
                field(item, "lo")?,
                field(item, "hi")?,
                field(item, "count")?,
            ));
        }
        Some(h)
    }

    /// The samples recorded after `before` was taken.
    pub fn since(&self, before: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|&(lo, hi, n)| {
                let old = before.buckets.iter().find(|b| b.0 == lo).map_or(0, |b| b.2);
                (lo, hi, n.saturating_sub(old))
            })
            .filter(|b| b.2 > 0)
            .collect();
        Hist {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            buckets,
        }
    }

    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// The `q`-quantile, interpolated linearly inside its log2 bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for &(lo, hi, n) in &self.buckets {
            let n = n as f64;
            if seen + n >= target {
                let within = (target - seen - 0.5) / n;
                return lo as f64 + (hi - lo) as f64 * within;
            }
            seen += n;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = "{\n  \"histograms\": {\n    \"serve.request_ns\": {\"count\": 4, \
        \"sum\": 100, \"buckets\": [{\"lo\": 16, \"hi\": 32, \"count\": 3}, \
        {\"lo\": 32, \"hi\": 64, \"count\": 1}]}\n  }\n}\n";

    #[test]
    fn parses_and_differences_server_histograms() {
        let h = Hist::parse(JSON, "serve.request_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 100);
        assert_eq!(h.buckets, vec![(16, 32, 3), (32, 64, 1)]);
        let before = Hist {
            count: 1,
            sum: 20,
            buckets: vec![(16, 32, 1)],
        };
        let d = h.since(&before);
        assert_eq!(d.count, 3);
        assert_eq!(d.buckets, vec![(16, 32, 2), (32, 64, 1)]);
        assert!(d.quantile(0.5) > 16.0 && d.quantile(0.5) < 32.0);
        assert!(d.quantile(0.99) > 32.0);
        assert_eq!(Hist::parse("{}", "serve.request_ns"), Some(Hist::default()));
    }
}
