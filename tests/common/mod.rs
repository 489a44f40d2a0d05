//! The shared differential harness: one corpus, one oracle and the table
//! fixtures every integration suite builds on. Each suite pulls it in with
//! `mod common;` and adds only its own axis (thread count, cache, metrics
//! on/off, fault kind, refine feedback, trace arming, the wire).
//!
//! - **Corpus:** [`datasets`] × the seven bucket [`techniques`] × [`RULES`]
//!   × [`adversarial_queries`], enumerated per dataset by [`histograms`].
//! - **Oracle:** the scalar AoS fold `estimate_count_reference`, a
//!   left-to-right sum of per-bucket uniformity terms (the paper's
//!   estimator). [`assert_kernel_eq_reference`] and
//!   [`assert_indexed_eq_reference`] pin each serving path to it bit for
//!   bit; [`assert_bits_eq_reference`] checks both.
//! - **Scenarios:** [`churn_scenario`] (in-place maintenance, then a
//!   re-ANALYZE) and [`assert_batch_eq_loop`] (batch vs per-query loop
//!   across thread counts).
//! - **Fixtures:** [`filled_table`], [`table_with`] and [`analyzed_table`].
//!
//! Tier 1 runs the corpus at scale 2 with one bucket budget. The root
//! `exhaustive` feature scales the datasets up ([`SCALE`]), sweeps every
//! budget in [`BUDGETS`], and turns on each suite's exhaustive axis.

#![allow(dead_code)]

use minskew::prelude::*;
use minskew_datagen::{charminar_with, uniform_rects, RoadNetworkSpec, SyntheticSpec};

/// `true` under `--features exhaustive`.
pub const EXHAUSTIVE: bool = cfg!(feature = "exhaustive");

/// Dataset scale multiplier for the corpus. Each tier's datasets are at
/// least as large as those of any suite's matching tier before the corpus
/// was shared: tier 1 runs charminar 4,000, synthetic and road 2,400,
/// uniform 2,000; `exhaustive` runs 14,000, 8,400 and 7,000.
pub const SCALE: usize = if EXHAUSTIVE { 7 } else { 2 };

/// Bucket budgets the corpus sweeps.
pub const BUDGETS: &[usize] = if EXHAUSTIVE {
    &[8, 24, 32, 48, 50, 64, 96, 200]
} else {
    &[32]
};

/// Every extension rule.
pub const RULES: [ExtensionRule; 3] = [
    ExtensionRule::Minkowski,
    ExtensionRule::PaperLiteral,
    ExtensionRule::None,
];

/// Every technique a table can `ANALYZE` with.
pub const STATS_TECHNIQUES: [StatsTechnique; 4] = [
    StatsTechnique::MinSkew,
    StatsTechnique::EquiArea,
    StatsTechnique::EquiCount,
    StatsTechnique::Uniform,
];

/// Skewed, clustered, network, uniform and fully degenerate data.
pub fn datasets(scale: usize) -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(2_000 * scale, 47)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(1_200 * scale).generate(53),
        ),
        (
            "road",
            RoadNetworkSpec {
                segments: 1_200 * scale,
                ..RoadNetworkSpec::default()
            }
            .generate(59),
        ),
        (
            "uniform",
            uniform_rects(
                1_000 * scale,
                Rect::new(0.0, 0.0, 10_000.0, 10_000.0),
                40.0,
                40.0,
                61,
            ),
        ),
        (
            "point-pile",
            Dataset::new(vec![Rect::new(5.0, 5.0, 5.0, 5.0); 64]),
        ),
    ]
}

/// All seven bucket-histogram techniques over one dataset.
pub fn techniques(data: &Dataset, buckets: usize) -> Vec<SpatialHistogram> {
    vec![
        MinSkewBuilder::new(buckets).regions(1_024).build(data),
        build_equi_area(data, buckets),
        build_equi_count(data, buckets),
        build_rtree_partitioning_default(data, buckets),
        build_uniform(data),
        build_grid(data, buckets),
        build_optimal_bsp(data, buckets.min(8), 8).histogram,
    ]
}

/// One dataset's corpus histograms: every budget in [`BUDGETS`] × every
/// technique × every rule, each with a context label for failures.
pub fn histograms(name: &str, data: &Dataset) -> Vec<(String, SpatialHistogram)> {
    let mut out = Vec::new();
    for &buckets in BUDGETS {
        for hist in techniques(data, buckets) {
            for rule in RULES {
                let context = format!(
                    "dataset={name} buckets={buckets} technique={} rule={rule:?}",
                    hist.name()
                );
                out.push((context, hist.clone().with_extension_rule(rule)));
            }
        }
    }
    out
}

/// The finite, distinct serving workload over (and beyond) an extent:
/// range queries at three sizes swept across it, points on its diagonal,
/// the extent itself, an everything-covering query, a far-disjoint one, a
/// slab overhanging its left edge and a degenerate line on that edge.
pub fn queries_for(mbr: Rect) -> Vec<Rect> {
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for i in 0..12 {
        let f = i as f64 / 12.0;
        for size in [0.02, 0.1, 0.35] {
            let x = mbr.lo.x + f * w * 0.9;
            let y = mbr.lo.y + (1.0 - f) * h * 0.9;
            out.push(Rect::new(x, y, x + size * w, y + size * h));
        }
    }
    for i in 0..8 {
        let f = i as f64 / 8.0;
        out.push(Rect::from_point(Point::new(
            mbr.lo.x + f * w,
            mbr.lo.y + f * h,
        )));
    }
    out.push(mbr);
    out.push(mbr.expanded(w, h));
    out.push(Rect::new(
        mbr.hi.x + 3.0 * w,
        mbr.hi.y + 3.0 * h,
        mbr.hi.x + 4.0 * w,
        mbr.hi.y + 4.0 * h,
    ));
    out.push(Rect::new(
        mbr.lo.x - w,
        mbr.lo.y,
        mbr.lo.x - 0.4 * w,
        mbr.hi.y,
    ));
    out.push(Rect::new(mbr.lo.x, mbr.lo.y, mbr.lo.x, mbr.hi.y));
    out
}

/// The adversarial query mix for one histogram. It is derived from the
/// histogram's **own** bucket bounds, so the clip arithmetic hits its
/// exact-equality branches: a bucket's MBR verbatim, corner points, edge
/// touches with zero overlap width, and degenerate lines through bucket
/// interiors. It adds the [`queries_for`] workload over `mbr`, then the
/// special values: NaN coordinates, ±0 and denormal corners.
///
/// The special-value queries are built as struct literals, so they reach
/// the estimator exactly as written (no `Rect::new` normalisation).
pub fn adversarial_queries(hist: &SpatialHistogram, mbr: Rect) -> Vec<Rect> {
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for b in hist.buckets().iter().take(6) {
        let m = b.mbr;
        out.push(m);
        out.push(Rect::from_point(m.lo));
        out.push(Rect::from_point(m.hi));
        out.push(Rect::new(m.lo.x - w, m.lo.y, m.lo.x, m.hi.y));
        out.push(Rect::new(m.hi.x, m.lo.y, m.hi.x + w, m.hi.y));
        out.push(Rect::new(m.lo.x, m.hi.y, m.hi.x, m.hi.y + h));
        let cx = (m.lo.x + m.hi.x) / 2.0;
        let cy = (m.lo.y + m.hi.y) / 2.0;
        out.push(Rect::new(cx, m.lo.y - h, cx, m.hi.y + h));
        out.push(Rect::new(m.lo.x - w, cy, m.hi.x + w, cy));
    }
    out.extend(queries_for(mbr));
    let rect = |x1: f64, y1: f64, x2: f64, y2: f64| Rect {
        lo: Point::new(x1, y1),
        hi: Point::new(x2, y2),
    };
    let tiny = f64::from_bits(1); // the smallest denormal
    out.extend([
        rect(f64::NAN, mbr.lo.y, mbr.hi.x, mbr.hi.y),
        rect(mbr.lo.x, mbr.lo.y, mbr.hi.x, f64::NAN),
        rect(f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        rect(-0.0, -0.0, 0.0, 0.0),
        rect(-0.0, -0.0, -0.0, -0.0),
        rect(0.0, 0.0, 0.0, 0.0),
        rect(-0.0, -0.0, mbr.hi.x, mbr.hi.y),
        rect(mbr.lo.x, mbr.lo.y, -0.0, -0.0),
        rect(tiny, tiny, tiny, tiny),
        rect(-tiny, -tiny, tiny, tiny),
        rect(tiny, tiny, f64::MIN_POSITIVE, f64::MIN_POSITIVE),
        rect(tiny, tiny, mbr.hi.x, mbr.hi.y),
        rect(mbr.lo.x - tiny, mbr.lo.y - tiny, mbr.lo.x, mbr.lo.y),
    ]);
    out
}

/// The oracle check for the SoA kernel: for every query,
/// `estimate_count` returns exactly the bits of the reference fold
/// (`estimate_count_reference`).
pub fn assert_kernel_eq_reference(context: &str, hist: &SpatialHistogram, queries: &[Rect]) {
    for q in queries {
        let reference = hist.estimate_count_reference(q);
        let kernel = hist.estimate_count(q);
        assert_eq!(
            reference.to_bits(),
            kernel.to_bits(),
            "kernel diverged from the reference fold: {context} q={q} \
             (reference={reference}, kernel={kernel})",
        );
    }
}

/// The oracle check for the block-pruned serving scan: for every query,
/// `estimate_count_indexed`, reusing `scratch` across queries, returns
/// exactly the bits of the reference fold (`estimate_count_reference`).
pub fn assert_indexed_eq_reference(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut IndexScratch,
) {
    for q in queries {
        let reference = hist.estimate_count_reference(q);
        let indexed = hist.estimate_count_indexed(q, scratch);
        assert_eq!(
            reference.to_bits(),
            indexed.to_bits(),
            "indexed scan diverged from the reference fold: {context} q={q} \
             (reference={reference}, indexed={indexed})",
        );
    }
}

/// Both serving paths against the reference fold:
/// [`assert_kernel_eq_reference`] and [`assert_indexed_eq_reference`].
pub fn assert_bits_eq_reference(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut IndexScratch,
) {
    assert_kernel_eq_reference(context, hist, queries);
    assert_indexed_eq_reference(context, hist, queries, scratch);
}

/// The maintenance churn scenario over `data`, at `buckets`: every
/// technique is checked pre-churn, after in-place `note_insert`s along the
/// anti-diagonal and after `note_delete`s of the first rows (which must
/// drop the stale kernel plane); then every technique is rebuilt from
/// scratch over mutated rows (the re-ANALYZE path) and checked once more.
/// `check` receives the phase/technique label, the histogram and its
/// adversarial query mix.
pub fn churn_scenario(
    data: &Dataset,
    buckets: usize,
    mut check: impl FnMut(&str, &SpatialHistogram, &[Rect]),
) {
    let mbr = data.stats().mbr;
    for mut hist in techniques(data, buckets) {
        let technique = hist.name().to_string();
        let queries = adversarial_queries(&hist, mbr);
        let context = |phase| format!("{phase} technique={technique}");
        check(&context("pre-churn"), &hist, &queries);
        for i in 0..40 {
            let f = i as f64 / 40.0;
            let x = mbr.lo.x + f * mbr.width();
            let y = mbr.lo.y + (1.0 - f) * mbr.height();
            hist.note_insert(&Rect::new(x, y, x + 25.0, y + 25.0));
        }
        check(&context("post-insert"), &hist, &queries);
        for r in data.rects().iter().take(60) {
            hist.note_delete(r);
        }
        check(&context("post-delete"), &hist, &queries);
    }
    let mut rects = data.rects().to_vec();
    rects.truncate(rects.len() - 200);
    rects.extend((0..200).map(|i| {
        let f = i as f64 / 200.0;
        let x = mbr.lo.x + f * mbr.width();
        Rect::new(x, mbr.lo.y, x + 10.0, mbr.lo.y + 10.0)
    }));
    let churned = Dataset::new(rects);
    for hist in techniques(&churned, buckets) {
        let queries = adversarial_queries(&hist, mbr);
        let context = format!("post-reanalyze technique={}", hist.name());
        check(&context, &hist, &queries);
    }
}

/// The Morton-scheduled batch path must answer `queries` in request order
/// with exactly the bits of a per-query `estimate` loop, at 1, 2, 3 and 8
/// threads: graceful `estimate_batch` over all of `queries`, strict
/// `try_estimate_batch` over its finite ones.
pub fn assert_batch_eq_loop(table: &mut SpatialTable, queries: &[Rect], context: &str) {
    let serial: Vec<u64> = queries
        .iter()
        .map(|q| table.estimate(q).to_bits())
        .collect();
    let (finite, finite_serial): (Vec<Rect>, Vec<u64>) = queries
        .iter()
        .zip(&serial)
        .filter(|(q, _)| q.is_finite())
        .map(|(q, b)| (*q, *b))
        .unzip();
    for threads in [1usize, 2, 3, 8] {
        table.set_threads(threads);
        let batch = bits(&table.estimate_batch(queries));
        assert_eq!(batch, serial, "{context} threads={threads}");
        let strict = table.try_estimate_batch(&finite).expect("all finite");
        assert_eq!(
            bits(&strict),
            finite_serial,
            "strict {context} threads={threads}"
        );
    }
}

/// A table holding every row of `data`, analyzed once.
pub fn filled_table(data: &Dataset, options: TableOptions) -> SpatialTable {
    let mut table = SpatialTable::new(options);
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    table
}

/// [`filled_table`] analyzed with `technique` at 24 buckets over 1 024
/// regions.
pub fn table_with(
    data: &Dataset,
    technique: StatsTechnique,
    options: TableOptions,
) -> SpatialTable {
    filled_table(
        data,
        TableOptions {
            analyze: AnalyzeOptions {
                technique,
                buckets: 24,
                regions: 1_024,
                ..AnalyzeOptions::default()
            },
            ..options
        },
    )
}

/// [`table_with`] over `n` Charminar rects drawn with `seed`, default
/// options.
pub fn analyzed_table(technique: StatsTechnique, n: usize, seed: u64) -> SpatialTable {
    table_with(&charminar_with(n, seed), technique, TableOptions::default())
}

/// Bit patterns of a slice of estimates.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}
