//! Differential suite for the query-tracing layer: **observation must be
//! bit-invisible**.
//!
//! Two contracts are pinned here:
//!
//! 1. **EXPLAIN recomputes, never re-derives.** The explained estimate
//!    (`SpatialHistogram::estimate_count_explained`) and its ordered
//!    per-bucket term sum must be bitwise equal to the reference fold and
//!    the indexed serving path (`estimate_count_indexed`) on the whole
//!    shared corpus — and the engine-level trace
//!    (`SpatialTable::try_explain` / `SpatialReader::try_explain`) must
//!    report exactly the bits the corresponding estimate entry point
//!    returns, through the cache and clamping layers.
//!
//! 2. **The flight recorder and trace ids never touch an estimate.** A
//!    table serving with the recorder fully armed (sample every query,
//!    slow threshold at 1 ns, wrong threshold at the smallest residual)
//!    must produce bit-identical estimates to an identically-built table
//!    with the recorder off, and to one with metrics off entirely.
//!
//! The corpus and the table fixtures are the shared ones in
//! `tests/common`; this suite's own axis is trace arming.
//! `--features exhaustive` scales the corpus up and crosses every
//! technique with every recorder configuration. CI runs the suite on one
//! test thread and re-runs it with `minskew-obs`'s `noop` feature
//! (recorder compiled out).

mod common;

use common::{adversarial_queries, datasets, filled_table, histograms, queries_for};
use minskew::prelude::*;
use minskew_datagen::charminar_with;

/// Asserts the explained scan, its ordered term sum and the indexed
/// serving path all return the reference fold's bits, and that the trace
/// is internally consistent: terms are unique and sorted by bucket id, and
/// the pruning counters account for every bucket.
fn assert_trace_differential(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut IndexScratch,
) {
    for q in queries {
        let reference = hist.estimate_count_reference(q);
        let indexed = hist.estimate_count_indexed(q, scratch);
        let trace = hist.estimate_count_explained(q, scratch);
        let sum = trace.kernel.term_sum();
        for (path, value) in [
            ("indexed estimate", indexed),
            ("explained estimate", trace.estimate()),
            ("ordered term sum", sum),
        ] {
            assert_eq!(
                reference.to_bits(),
                value.to_bits(),
                "{path} diverged from the reference fold: {context} q={q} \
                 (reference={reference}, got={value})",
            );
        }
        assert_eq!(trace.rule, hist.extension_rule(), "{context}");
        assert_eq!(trace.num_buckets, hist.num_buckets(), "{context}");
        let terms = &trace.kernel.terms;
        for pair in terms.windows(2) {
            assert!(
                pair[0].bucket < pair[1].bucket,
                "terms must be unique and sorted by bucket id: {context} q={q}"
            );
        }
        for t in terms {
            assert!(
                (t.bucket as usize) < hist.num_buckets(),
                "term names a bucket outside the histogram: {context} q={q}"
            );
            assert!(
                (0.0..=1.0).contains(&t.fraction),
                "clipped fraction out of range: {context} q={q} fraction={}",
                t.fraction
            );
        }
        let prune = &trace.kernel.prune;
        assert!(
            terms.len() <= prune.buckets_classified,
            "more terms than classified buckets: {context} q={q}"
        );
        assert!(
            prune.buckets_classified <= hist.num_buckets(),
            "classified more buckets than exist: {context} q={q}"
        );
        assert!(
            prune.quads_pruned <= prune.quads_tested,
            "pruned more quads than tested: {context} q={q}"
        );
        assert!(prune.blocks_pruned <= prune.blocks, "{context} q={q}");
    }
}

#[test]
fn explained_estimate_is_bitwise_identical_to_indexed() {
    let mut scratch = IndexScratch::new();
    for (name, data) in datasets(common::SCALE) {
        let mbr = data.stats().mbr;
        for (context, hist) in histograms(name, &data) {
            let queries = adversarial_queries(&hist, mbr);
            assert_trace_differential(&context, &hist, &queries, &mut scratch);
        }
    }
}

#[test]
fn engine_explain_reports_exactly_the_served_bits() {
    let data = charminar_with(2_000, 83);
    let mbr = data.stats().mbr;
    let table = filled_table(&data, TableOptions::default());
    let mut reader = table.reader();
    for q in queries_for(mbr) {
        let trace = table.try_explain(&q).expect("finite query");
        let served = table.estimate(&q);
        assert_eq!(
            served.to_bits(),
            trace.estimate.to_bits(),
            "table trace diverged: q={q}"
        );
        assert_eq!(trace.path.label(), "indexed");
        if trace.clamped {
            assert_ne!(trace.raw.to_bits(), trace.estimate.to_bits());
        } else {
            assert_eq!(trace.raw.to_bits(), trace.estimate.to_bits());
        }
        // Reader side: EXPLAIN first (must not warm the cache), then the
        // estimate, then EXPLAIN again (now a would-be hit).
        let rtrace = reader.try_explain(&q).expect("finite query");
        assert_eq!(
            served.to_bits(),
            rtrace.estimate.to_bits(),
            "reader trace diverged: q={q}"
        );
        assert_ne!(
            rtrace.cache,
            CacheDisposition::Hit,
            "EXPLAIN must not insert into the reader cache"
        );
        let rserved = reader.try_estimate(&q).expect("finite query");
        assert_eq!(served.to_bits(), rserved.to_bits());
        let rtrace = reader.try_explain(&q).expect("finite query");
        assert_eq!(rtrace.cache, CacheDisposition::Hit, "q={q}");
        assert_eq!(
            served.to_bits(),
            rtrace.estimate.to_bits(),
            "a would-be cache hit must trace the same bits"
        );
        // Analyzed tables expose the kernel detail; the fallback-only path
        // (no stats) is the one case without it.
        assert!(rtrace.detail.is_some(), "analyzed tables carry detail");
    }
    // Non-finite queries are rejected exactly like the estimate path.
    let bad = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    assert!(table.try_explain(&bad).is_err());
    assert!(table.reader().try_explain(&bad).is_err());
}

#[test]
fn never_analyzed_tables_trace_the_fallback_path() {
    let mut table = SpatialTable::new(TableOptions {
        auto_analyze_threshold: None,
        ..TableOptions::default()
    });
    for i in 0..20 {
        let x = f64::from(i) * 10.0;
        table.insert(Rect::new(x, x, x + 5.0, x + 5.0));
    }
    let q = Rect::new(0.0, 0.0, 50.0, 50.0);
    let trace = table.try_explain(&q).expect("finite query");
    assert_eq!(trace.path.label(), "fallback");
    assert!(trace.detail.is_none(), "no buckets to blame");
    assert_eq!(trace.estimate.to_bits(), table.estimate(&q).to_bits());
}

/// Flight-recorder configurations that must all serve identical bits.
fn recorder_configs() -> Vec<(&'static str, TableOptions)> {
    let armed = TableOptions {
        metrics_sampling: 1,
        flight_sample: 1,
        flight_slow_ns: 1,
        flight_residual: f64::MIN_POSITIVE,
        ..TableOptions::default()
    };
    let disarmed = TableOptions {
        flight_capacity: 0,
        ..TableOptions::default()
    };
    let dark = TableOptions {
        metrics: false,
        ..TableOptions::default()
    };
    vec![
        ("armed", armed),
        ("disarmed", disarmed),
        ("metrics-off", dark),
    ]
}

#[test]
fn flight_recorder_is_bit_invisible_to_estimates() {
    let data = charminar_with(1_800, 89);
    let mbr = data.stats().mbr;
    let queries = queries_for(mbr);
    let mut baseline: Option<Vec<u64>> = None;
    for (name, options) in recorder_configs() {
        let table = filled_table(&data, options);
        let mut served: Vec<u64> = Vec::new();
        for q in &queries {
            served.push(table.estimate(q).to_bits());
        }
        // The batch and reader paths ride along under the same recorder.
        let mut reader = table.reader();
        for q in &queries {
            served.push(reader.estimate(q).to_bits());
        }
        for v in table.estimate_batch(&queries) {
            served.push(v.to_bits());
        }
        match &baseline {
            None => baseline = Some(served),
            Some(expected) => assert_eq!(
                expected, &served,
                "recorder config {name:?} changed served estimate bits"
            ),
        }
    }
}

#[test]
fn armed_recorder_captures_slow_sampled_and_wrong_queries() {
    if !minskew::obs::enabled() {
        // `noop` build: the recorder is compiled out; bit-invisibility is
        // covered above and capacity is structurally zero.
        let table = filled_table(&charminar_with(400, 97), recorder_configs().remove(0).1);
        assert_eq!(table.flight_recorder().capacity(), 0);
        return;
    }
    let data = charminar_with(1_800, 97);
    let mbr = data.stats().mbr;
    let (_, options) = recorder_configs().remove(0);
    let table = filled_table(&data, options);
    for q in queries_for(mbr) {
        let _ = table.estimate(&q);
    }
    let recorder = table.flight_recorder();
    assert!(recorder.total() > 0, "armed recorder saw nothing");
    let records = recorder.recent(usize::MAX);
    assert!(
        records.iter().all(|(_, r)| r.exact.is_none()),
        "serving-path records carry no exact count before any audit"
    );
    // The accuracy audit replays the reservoir against exact counts; with
    // the smallest positive residual threshold, any estimation error at
    // all produces `wrong` records carrying the exact count.
    let before = recorder.total();
    let report = table.audit_accuracy().expect("sampled queries resident");
    if report.avg_relative_error > 0.0 {
        let records = recorder.recent(usize::MAX);
        assert!(
            records.iter().any(|(_, r)| r.exact.is_some()),
            "audit with error {} recorded no wrong-query records \
             (total {} -> {})",
            report.avg_relative_error,
            before,
            recorder.total(),
        );
    }
    // Drained JSONL is schema-pinned.
    let jsonl = recorder.to_jsonl(8);
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"schema\":\"minskew-obs/flight-v1\","),
            "unpinned flight line: {line}"
        );
    }
    // A disarmed twin records nothing through the same workload.
    let (_, disarmed) = recorder_configs().remove(1);
    let table = filled_table(&data, disarmed);
    for q in queries_for(mbr) {
        let _ = table.estimate(&q);
    }
    assert_eq!(table.flight_recorder().total(), 0);
}

#[cfg(feature = "exhaustive")]
#[test]
fn recorder_matrix_exhaustive_bit_invisibility() {
    // Every technique × recorder config serves one bit pattern per query
    // stream.
    for technique in common::STATS_TECHNIQUES {
        let data = charminar_with(2_400, 101);
        let queries = queries_for(data.stats().mbr);
        let mut baseline: Option<Vec<u64>> = None;
        for (name, mut options) in recorder_configs() {
            options.analyze.technique = technique;
            let table = filled_table(&data, options);
            let served: Vec<u64> = queries
                .iter()
                .map(|q| table.estimate(q).to_bits())
                .collect();
            match &baseline {
                None => baseline = Some(served),
                Some(expected) => assert_eq!(
                    expected, &served,
                    "recorder config {name:?} changed bits: technique={technique:?}"
                ),
            }
        }
    }
}
