//! The three workloads' closed-loop traffic, the post-run probes, and the
//! correctness gate every reply passes through.
//!
//! Every request is a deterministic function of the seed and its position
//! in the stream, so two runs with one seed send identical requests and
//! must get identical replies, whatever their speed.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minskew_data::Dataset;
use minskew_datagen::Zipf;
use minskew_engine::{CatalogEntry, SpatialReader};
use minskew_geom::Rect;
use minskew_workload::{GroundTruth, QueryWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{Spans, Tracer};
use crate::loadgen::{self, Client};
use crate::setup;
use crate::stats::{median_f64, ns_since, sub_seed, Digest, Wall};
use crate::Plan;

/// Requests attempted, failed (an `ERR` reply or a transport failure) and
/// answered with wrong bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

/// Where a segment stops: after `secs` of (unpaused) wall time once at
/// least `min_steps` steps ran, or after exactly `steps` steps.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    Time { secs: f64, min_steps: u64 },
    Steps(u64),
}

impl Bound {
    fn done(self, steps: u64, wall: &Wall) -> bool {
        match self {
            Bound::Time { secs, min_steps } => {
                steps >= min_steps && wall.elapsed().as_secs_f64() >= secs
            }
            Bound::Steps(n) => steps >= n,
        }
    }
}

/// What one segment of traffic measured.
#[derive(Debug, Default)]
pub struct Segment {
    /// Estimates answered (a batch counts each of its values).
    pub reads: u64,
    /// Unpaused wall time of the segment.
    pub wall: Duration,
    pub estimate_ns: Vec<u64>,
    /// The first estimate after each cycle's writes.
    pub after_write_ns: Vec<u64>,
    pub batch_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
    pub analyze_ns: Vec<u64>,
    /// Size of the first snapshot saved in the segment (0 if none).
    pub stats_bytes: u64,
    /// Digest of every reply value and row id, in request order.
    pub digest: Digest,
    /// Throughput of each completed window of steps.
    pub window_qps: Vec<f64>,
    window_mark: (u64, Duration),
}

impl Segment {
    /// Estimates per second: the median over windows when there are at
    /// least three (a burst of host contention then moves one window, not
    /// the result), else over the whole segment.
    pub fn qps(&self) -> f64 {
        if self.window_qps.len() >= 3 {
            return median_f64(&self.window_qps);
        }
        self.reads as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Closes a throughput window every `every` completed steps.
    fn tick(&mut self, steps: u64, every: u64, wall: &Wall) {
        if steps == 0 || !steps.is_multiple_of(every) {
            return;
        }
        let now = wall.elapsed();
        let (reads, at) = self.window_mark;
        let secs = (now - at).as_secs_f64();
        if secs > 0.0 {
            self.window_qps.push((self.reads - reads) as f64 / secs);
        }
        self.window_mark = (self.reads, now);
    }
}

/// Shared per-run context: the connection, the served table (for the
/// in-process oracle), the tally, and the optional tracer.
pub struct Ctx<'a> {
    pub client: &'a mut Client,
    pub entry: Arc<CatalogEntry>,
    pub tally: Tally,
    pub tracer: Option<&'a mut Tracer>,
    /// Flips one bit of the first expected value the run compares against
    /// (self-test: a run with a wrong oracle must fail).
    pub corrupt_oracle: bool,
    pub snapshot_path: std::path::PathBuf,
}

impl Ctx<'_> {
    /// Compares a served value with the oracle's; counts a mismatch.
    fn check(&mut self, served: u64, mut expected: u64) -> bool {
        if std::mem::take(&mut self.corrupt_oracle) {
            expected ^= 1;
        }
        if served != expected {
            self.mismatch("served value differs from the oracle");
            return false;
        }
        true
    }

    /// Counts a wrong reply (the first few are reported on stderr).
    fn mismatch(&mut self, what: &str) {
        self.tally.mismatches += 1;
        if self.tally.mismatches <= 5 {
            eprintln!("perfbench: mismatch: {what}");
        }
    }

    fn err_reply(&mut self) {
        self.tally.failed += 1;
        eprintln!("perfbench: error reply {:?}", self.client.reply.trim_end());
    }

    /// One `ESTIMATE`: the value (`None` on an `ERR` reply) and its spans.
    fn estimate(&mut self, q: &Rect) -> io::Result<(Option<f64>, Spans)> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        loadgen::format_estimate(&mut self.client.req, q);
        let t1 = Instant::now();
        self.client.round_trip()?;
        let t2 = Instant::now();
        let value = loadgen::parse_value(&self.client.reply);
        let spans = Spans::stamp(t0, t1, t2);
        if value.is_none() {
            self.err_reply();
        }
        Ok((value, spans))
    }

    /// One `BATCH`; values land in `out`. `false` on an `ERR` reply.
    fn batch(&mut self, qs: &[Rect], out: &mut Vec<f64>) -> io::Result<(bool, Spans)> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        loadgen::format_batch(&mut self.client.req, qs);
        let t1 = Instant::now();
        self.client.round_trip()?;
        let t2 = Instant::now();
        let ok = loadgen::parse_batch(&self.client.reply, out) && out.len() == qs.len();
        let spans = Spans::stamp(t0, t1, t2);
        if !ok {
            self.err_reply();
        }
        Ok((ok, spans))
    }

    /// One `INSERT`: the new row id.
    fn insert(&mut self, r: &Rect) -> io::Result<(Option<u64>, Spans)> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        loadgen::format_insert(&mut self.client.req, r);
        let t1 = Instant::now();
        self.client.round_trip()?;
        let t2 = Instant::now();
        let id = loadgen::parse_row_id(&self.client.reply);
        let spans = Spans::stamp(t0, t1, t2);
        if id.is_none() {
            self.err_reply();
        }
        Ok((id, spans))
    }

    /// One `DELETE`; `false` unless the reply confirms the row.
    fn delete(&mut self, id: u64) -> io::Result<(bool, Spans)> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        loadgen::format_delete(&mut self.client.req, id);
        let t1 = Instant::now();
        self.client.round_trip()?;
        let t2 = Instant::now();
        let ok = self.client.reply.trim_end() == format!("OK deleted {id}");
        let spans = Spans::stamp(t0, t1, t2);
        if !ok {
            self.err_reply();
        }
        Ok((ok, spans))
    }

    /// `ANALYZE` then `SNAPSHOT ... SAVE`; both replies must start `OK`.
    /// `live` is the table's live rows (only the tracer reads them).
    fn analyze_and_save(&mut self, seg: &mut Segment, wall: &mut Wall, live: &[Rect]) {
        self.tally.attempted += 2;
        match setup::wire_analyze(self.client) {
            Ok(ns) => {
                seg.analyze_ns.push(ns);
                if let Some(tr) = self.tracer.as_deref_mut() {
                    wall.pause(|| tr.on_analyze(live, Spans::round_trip(ns)));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                self.tally.failed += 1;
            }
        }
        let t = Instant::now();
        match setup::wire_save(self.client, &self.snapshot_path) {
            Ok(bytes) => {
                let ns = ns_since(t);
                if seg.stats_bytes == 0 {
                    seg.stats_bytes = bytes;
                }
                if let Some(tr) = self.tracer.as_deref_mut() {
                    wall.pause(|| tr.on_save(Spans::round_trip(ns)));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                self.tally.failed += 1;
            }
        }
    }
}

/// Σ|r − e| and Σr over estimates with known exact counts (the paper's §5
/// average relative error is their ratio).
#[derive(Debug, Default, Clone, Copy)]
pub struct RelError {
    abs: f64,
    exact: f64,
}

impl RelError {
    fn add(&mut self, exact: f64, estimate: f64) {
        self.abs += (exact - estimate).abs();
        self.exact += exact;
    }

    pub fn value(&self) -> f64 {
        if self.exact > 0.0 {
            self.abs / self.exact
        } else {
            0.0
        }
    }
}

/// `ESTIMATE`-only traffic over distinct queries (paper §5.2 generator).
pub struct EstimateDistinct {
    pool: Vec<Rect>,
    /// Exact counts of the first queries of the pool.
    truth: Vec<usize>,
    /// Bits of each served reply, by pool index.
    served: Vec<u64>,
    checked: usize,
    /// Requests per throughput window.
    window: u64,
    pub rel_error: RelError,
}

impl EstimateDistinct {
    pub fn new(data: &Dataset, truth: &GroundTruth, plan: &Plan, seed: u64) -> EstimateDistinct {
        let pool = QueryWorkload::generate(
            data,
            plan.estimate_qsize,
            plan.estimate_pool,
            sub_seed(seed, 1),
        )
        .queries()
        .to_vec();
        let truth = truth.counts(&pool[..plan.truth_queries.min(pool.len())]);
        EstimateDistinct {
            served: Vec::with_capacity(pool.len()),
            pool,
            truth,
            checked: 0,
            window: plan.window_estimates,
            rel_error: RelError::default(),
        }
    }

    /// Serves the next queries of the pool until `bound` (or the pool runs
    /// out), then bit-checks every reply of the segment.
    pub fn run(&mut self, ctx: &mut Ctx, bound: Bound) -> io::Result<Segment> {
        let mut seg = Segment::default();
        let mut wall = Wall::start();
        let mut steps = 0;
        while self.served.len() < self.pool.len() && !bound.done(steps, &wall) {
            seg.tick(steps, self.window, &wall);
            steps += 1;
            let i = self.served.len();
            let q = self.pool[i];
            let (value, spans) = ctx.estimate(&q)?;
            seg.estimate_ns.push(spans.total());
            let bits = value.map_or(u64::MAX, f64::to_bits);
            self.served.push(bits);
            seg.digest.add(bits);
            if let Some(v) = value {
                seg.reads += 1;
                if let Some(&exact) = self.truth.get(i) {
                    self.rel_error.add(exact as f64, v);
                }
                if let Some(tr) = ctx.tracer.as_deref_mut() {
                    if !wall.pause(|| tr.on_estimate(&q, bits, spans)) {
                        ctx.mismatch("replica estimate differs");
                    }
                }
            }
        }
        seg.wall = wall.elapsed();
        self.check(ctx);
        Ok(seg)
    }

    /// Compares every reply not yet checked with a fresh reader on the
    /// served table (read-only traffic: one generation throughout).
    fn check(&mut self, ctx: &mut Ctx) {
        let mut reader = ctx.entry.reader();
        for i in self.checked..self.served.len() {
            if self.served[i] == u64::MAX {
                continue;
            }
            let expected = reader
                .try_estimate(&self.pool[i])
                .map_or(u64::MAX, f64::to_bits);
            ctx.check(self.served[i], expected);
        }
        self.checked = self.served.len();
    }
}

/// `BATCH` traffic: requests of `batch_size` distinct queries, cycling a
/// pool of batches (consecutive batches share no query, so the 1024-entry
/// reader cache never hits).
pub struct BatchDistinct {
    batches: Vec<Vec<Rect>>,
    expected: Vec<Vec<u64>>,
    /// Generation `expected` was computed at.
    expected_generation: Option<u64>,
    truth: Vec<Vec<usize>>,
    next: u64,
    values: Vec<f64>,
    /// Batches per throughput window.
    window: u64,
    pub rel_error: RelError,
}

impl BatchDistinct {
    /// A pool of `batches` batches; exact counts of the first
    /// `truth_batches` come from `truth` (none without one).
    pub fn new(
        data: &Dataset,
        truth: Option<&GroundTruth>,
        plan: &Plan,
        batches: usize,
        truth_batches: usize,
        seed: u64,
    ) -> BatchDistinct {
        let all = QueryWorkload::generate(data, plan.batch_qsize, batches * plan.batch_size, seed);
        let batches: Vec<Vec<Rect>> = all
            .queries()
            .chunks(plan.batch_size)
            .map(<[Rect]>::to_vec)
            .collect();
        let truth = match truth {
            Some(t) => batches
                .iter()
                .take(truth_batches)
                .map(|b| t.counts(b))
                .collect(),
            None => Vec::new(),
        };
        BatchDistinct {
            batches,
            expected: Vec::new(),
            expected_generation: None,
            truth,
            next: 0,
            values: Vec::new(),
            window: plan.window_batches,
            rel_error: RelError::default(),
        }
    }

    /// Computes the oracle's value for every query of the pool with
    /// `SpatialReader::try_estimate`, unless the table's generation is the
    /// one they were computed at (no table changes while batches are
    /// served).
    fn prepare(&mut self, entry: &CatalogEntry) {
        let mut reader = entry.reader();
        let generation = reader.snapshot().generation();
        if self.expected_generation == Some(generation) {
            return;
        }
        self.expected = self
            .batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|q| reader.try_estimate(q).map_or(u64::MAX, f64::to_bits))
                    .collect()
            })
            .collect();
        self.expected_generation = Some(generation);
    }

    pub fn run(&mut self, ctx: &mut Ctx, bound: Bound) -> io::Result<Segment> {
        self.prepare(&ctx.entry);
        let mut seg = Segment::default();
        let mut wall = Wall::start();
        let mut steps = 0;
        while !bound.done(steps, &wall) {
            seg.tick(steps, self.window, &wall);
            steps += 1;
            let b = (self.next % self.batches.len() as u64) as usize;
            let first_pass = self.next < self.truth.len() as u64;
            self.next += 1;
            let qs = &self.batches[b];
            let (ok, spans) = ctx.batch(qs, &mut self.values)?;
            seg.batch_ns.push(spans.total());
            if !ok {
                seg.digest.add(u64::MAX);
                continue;
            }
            seg.reads += qs.len() as u64;
            for (j, v) in self.values.iter().enumerate() {
                seg.digest.add(v.to_bits());
                if first_pass {
                    self.rel_error.add(self.truth[b][j] as f64, *v);
                }
            }
            let values = &self.values;
            let expected = &self.expected[b];
            wall.pause(|| {
                for (v, &e) in values.iter().zip(expected) {
                    ctx.check(v.to_bits(), e);
                }
            });
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                if !wall.pause(|| tr.on_batch(qs, values, spans)) {
                    ctx.mismatch("replica batch differs");
                }
            }
        }
        seg.wall = wall.elapsed();
        Ok(seg)
    }
}

/// Read/write traffic with repeated queries: each cycle inserts a
/// held-out row, deletes the oldest live row, then sends `reads_per_cycle`
/// estimates drawn Zipf(θ) from a query pool; every `analyze_every`
/// cycles it runs `ANALYZE` and `SNAPSHOT ... SAVE`.
pub struct MixedZipf {
    pool: Vec<Rect>,
    /// Exact counts of the pool against the live rows, kept current as
    /// rows come and go.
    exact: Vec<i64>,
    zipf: Zipf,
    rng: StdRng,
    hold: VecDeque<Rect>,
    live: VecDeque<(u64, Rect)>,
    cycle: u64,
    reads_per_cycle: usize,
    analyze_every: u64,
    truth_cycles: u64,
    /// Pool queries already scored: each distinct query counts once.
    scored: Vec<bool>,
    oracle: Option<SpatialReader>,
    pub rel_error: RelError,
}

impl MixedZipf {
    /// Splits `data` (in a seeded order) into the rows loaded at set-up
    /// and the held-out rows; returns the workload and the rows to load.
    pub fn new(data: &Dataset, plan: &Plan, seed: u64) -> (MixedZipf, Vec<Rect>) {
        use rand::seq::SliceRandom;
        let mut rows = data.rects().to_vec();
        rows.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 3)));
        let loaded = (rows.len() as f64 * plan.mixed_load_fraction).round() as usize;
        let hold: VecDeque<Rect> = rows[loaded..].iter().copied().collect();
        rows.truncate(loaded);
        let pool = QueryWorkload::generate(
            data,
            plan.estimate_qsize,
            plan.mixed_pool,
            sub_seed(seed, 4),
        )
        .queries()
        .to_vec();
        let truth = GroundTruth::index(&Dataset::new(rows.clone()));
        let exact = truth.counts(&pool).into_iter().map(|c| c as i64).collect();
        let live = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, *r))
            .collect();
        let w = MixedZipf {
            zipf: Zipf::new(pool.len(), plan.zipf_theta),
            pool,
            exact,
            rng: StdRng::seed_from_u64(sub_seed(seed, 5)),
            hold,
            live,
            cycle: 0,
            reads_per_cycle: plan.mixed_reads,
            analyze_every: plan.analyze_every,
            truth_cycles: plan.truth_cycles,
            scored: vec![false; plan.mixed_pool],
            oracle: None,
            rel_error: RelError::default(),
        };
        (w, rows)
    }

    /// Binds the oracle reader to the served table.
    pub fn attach(&mut self, entry: &CatalogEntry) {
        self.oracle = Some(entry.reader());
    }

    /// Moves the exact counts of the pool by `delta` for every query `r`
    /// intersects (the same closed-interval test the exact index uses).
    fn account(&mut self, r: &Rect, delta: i64) {
        for (q, c) in self.pool.iter().zip(&mut self.exact) {
            if q.intersects(r) {
                *c += delta;
            }
        }
    }

    pub fn run(&mut self, ctx: &mut Ctx, bound: Bound) -> io::Result<Segment> {
        let mut seg = Segment::default();
        let mut wall = Wall::start();
        let mut steps = 0;
        let mut oracle = self.oracle.take().expect("attach() binds the oracle");
        let result = self.cycles(ctx, bound, &mut seg, &mut wall, &mut steps, &mut oracle);
        self.oracle = Some(oracle);
        seg.wall = wall.elapsed();
        result.map(|()| seg)
    }

    fn cycles(
        &mut self,
        ctx: &mut Ctx,
        bound: Bound,
        seg: &mut Segment,
        wall: &mut Wall,
        steps: &mut u64,
        oracle: &mut SpatialReader,
    ) -> io::Result<()> {
        while !bound.done(*steps, wall) {
            seg.tick(*steps, self.analyze_every, wall);
            *steps += 1;
            // Insert a held-out row; it joins the live queue.
            let rect = self
                .hold
                .pop_front()
                .expect("rows cycle between hold and live");
            let (id, spans) = ctx.insert(&rect)?;
            seg.insert_ns.push(spans.total());
            let Some(id) = id else {
                self.hold.push_back(rect);
                continue;
            };
            seg.digest.add(id);
            self.live.push_back((id, rect));
            wall.pause(|| self.account(&rect, 1));
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                if !wall.pause(|| tr.on_insert(&rect, id, spans)) {
                    ctx.mismatch("replica row id differs");
                }
            }
            // Delete the oldest live row; it goes back to the held-out queue.
            let (old, old_rect) = self.live.pop_front().expect("live rows never run out");
            let (ok, spans) = ctx.delete(old)?;
            seg.delete_ns.push(spans.total());
            if !ok {
                self.live.push_front((old, old_rect));
                continue;
            }
            self.hold.push_back(old_rect);
            wall.pause(|| self.account(&old_rect, -1));
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                wall.pause(|| tr.on_delete(old, &old_rect, spans));
            }
            let scored = self.cycle < self.truth_cycles;
            for read in 0..self.reads_per_cycle {
                let k = self.zipf.sample(&mut self.rng) - 1;
                let q = self.pool[k];
                let (value, spans) = ctx.estimate(&q)?;
                seg.estimate_ns.push(spans.total());
                if read == 0 {
                    seg.after_write_ns.push(spans.total());
                }
                let bits = value.map_or(u64::MAX, f64::to_bits);
                seg.digest.add(bits);
                let Some(v) = value else { continue };
                seg.reads += 1;
                // The first reply to each distinct query is scored, so the
                // error is not dominated by the few most popular queries.
                if scored && !std::mem::replace(&mut self.scored[k], true) {
                    self.rel_error.add(self.exact[k] as f64, v);
                }
                // The oracle reads the generation the server just served.
                wall.pause(|| {
                    let expected = oracle.try_estimate(&q).map_or(u64::MAX, f64::to_bits);
                    ctx.check(bits, expected)
                });
                if let Some(tr) = ctx.tracer.as_deref_mut() {
                    if !wall.pause(|| tr.on_estimate(&q, bits, spans)) {
                        ctx.mismatch("replica estimate differs");
                    }
                }
            }
            self.cycle += 1;
            if self.cycle.is_multiple_of(self.analyze_every) {
                let live: Vec<Rect> = if ctx.tracer.is_some() {
                    self.live.iter().map(|&(_, r)| r).collect()
                } else {
                    Vec::new()
                };
                ctx.analyze_and_save(seg, wall, &live);
            }
        }
        Ok(())
    }
}

/// Latencies measured by the post-run probes.
#[derive(Debug, Default)]
pub struct Probes {
    pub analyze_ns: Vec<u64>,
    pub estimate_ns: Vec<u64>,
    pub after_write_ns: Vec<u64>,
    pub batch_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
}

/// Distinct `ESTIMATE`s against the unchanged table; bit-checked after.
pub fn probe_estimates(ctx: &mut Ctx, queries: &[Rect], out: &mut Probes) -> io::Result<()> {
    let mut served = Vec::with_capacity(queries.len());
    for q in queries {
        let (value, spans) = ctx.estimate(q)?;
        out.estimate_ns.push(spans.total());
        if let (Some(v), Some(tr)) = (value, ctx.tracer.as_deref_mut()) {
            if !tr.on_estimate(q, v.to_bits(), spans) {
                ctx.mismatch("replica probe estimate differs");
            }
        }
        served.push(value);
    }
    let mut reader = ctx.entry.reader();
    for (q, v) in queries.iter().zip(served) {
        if let Some(v) = v {
            let expected = reader.try_estimate(q).map_or(u64::MAX, f64::to_bits);
            ctx.check(v.to_bits(), expected);
        }
    }
    Ok(())
}

/// `count` `BATCH`es cycling `batches` against the unchanged table.
pub fn probe_batches(
    ctx: &mut Ctx,
    batches: &mut BatchDistinct,
    count: u64,
    out: &mut Probes,
) -> io::Result<()> {
    let seg = batches.run(ctx, Bound::Steps(count))?;
    out.batch_ns = seg.batch_ns;
    Ok(())
}

/// `count` write cycles: `INSERT` a copy of an existing row, `DELETE` it,
/// then one `ESTIMATE` (the first after the writes' publications).
pub fn probe_writes(
    ctx: &mut Ctx,
    rows: &[Rect],
    queries: &[Rect],
    count: usize,
    seed: u64,
    out: &mut Probes,
) -> io::Result<()> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    let mut oracle = ctx.entry.reader();
    for i in 0..count {
        let rect = rows[rng.gen_range(0..rows.len())];
        let (id, spans) = ctx.insert(&rect)?;
        out.insert_ns.push(spans.total());
        let Some(id) = id else { continue };
        if let Some(tr) = ctx.tracer.as_deref_mut() {
            if !tr.on_insert(&rect, id, spans) {
                ctx.mismatch("replica probe row id differs");
            }
        }
        let (ok, spans) = ctx.delete(id)?;
        out.delete_ns.push(spans.total());
        if !ok {
            continue;
        }
        if let Some(tr) = ctx.tracer.as_deref_mut() {
            tr.on_delete(id, &rect, spans);
        }
        let q = queries[i % queries.len()];
        let (value, spans) = ctx.estimate(&q)?;
        out.after_write_ns.push(spans.total());
        if let Some(v) = value {
            let expected = oracle.try_estimate(&q).map_or(u64::MAX, f64::to_bits);
            ctx.check(v.to_bits(), expected);
            if let Some(tr) = ctx.tracer.as_deref_mut() {
                if !tr.on_estimate(&q, v.to_bits(), spans) {
                    ctx.mismatch("replica after-write estimate differs");
                }
            }
        }
    }
    Ok(())
}

/// `count` more `ANALYZE` round trips against the unchanged rows.
pub fn probe_analyze(ctx: &mut Ctx, count: usize, out: &mut Probes) -> io::Result<()> {
    for _ in 0..count {
        ctx.tally.attempted += 1;
        out.analyze_ns.push(setup::wire_analyze(ctx.client)?);
    }
    Ok(())
}
