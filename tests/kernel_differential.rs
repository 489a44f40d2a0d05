//! Differential suite for the SoA clip-and-accumulate kernel behind
//! `estimate_count` (the [`BucketPlane`]'s block-pruned scan with a fresh
//! scratch per call): it must be
//! **bit-identical** to the scalar AoS fold (`estimate_count_reference`, a
//! left-to-right sum of `Bucket::estimate` over the bucket slice) on the
//! whole shared corpus in `tests/common` — every dataset, technique,
//! extension rule and adversarial query — including through in-place
//! churn and a re-ANALYZE, and the engine's Morton-scheduled batch path
//! over that mix must keep the bits of a per-query loop. The same scan
//! with a caller-owned scratch, behind `estimate_count_indexed`, is pinned
//! to the same fold by `serving_differential.rs`. A plane kept across maintenance writes (its
//! MBR geometry shared, its weights rebuilt) must hold the columns of a
//! fresh `BucketPlane::build` bit for bit, and a table's snapshots share
//! one geometry until a new partition is installed.
//!
//! `--features exhaustive` scales the corpus up; `--features proptest` adds
//! randomized differential properties over both paths. CI runs the suite
//! on one test thread, and once more under `--features simd` so the
//! runtime-dispatched pruned vector scan is pinned to the same oracle.

mod common;

use common::{
    adversarial_queries, assert_batch_eq_loop, assert_bits_eq_reference,
    assert_kernel_eq_reference, churn_scenario, datasets, filled_table, histograms, queries_for,
    techniques,
};
use minskew::prelude::*;
use minskew_datagen::charminar_with;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn kernel_matches_reference_for_every_technique_and_rule() {
    for (name, data) in datasets(common::SCALE) {
        let mbr = data.stats().mbr;
        for (context, hist) in histograms(name, &data) {
            let queries = adversarial_queries(&hist, mbr);
            assert_kernel_eq_reference(&context, &hist, &queries);
        }
    }
}

#[test]
fn kernel_matches_reference_through_churn_and_rebuild() {
    churn_scenario(&charminar_with(2_500, 67), 28, assert_kernel_eq_reference);
}

/// Every column of `hist`'s (possibly kept) kernel plane equals a fresh
/// [`BucketPlane::build`] over its current buckets, bit for bit.
fn assert_plane_eq_fresh_build(context: &str, hist: &SpatialHistogram) {
    let fresh = BucketPlane::build(hist.buckets(), hist.extension_rule()).column_bits();
    let kept = hist.bucket_plane().column_bits();
    assert_eq!(kept.len(), fresh.len(), "{context}");
    for ((name, kept), (_, want)) in kept.iter().zip(&fresh) {
        assert!(
            kept == want,
            "{context}: plane column {name} differs from a fresh build"
        );
    }
}

/// A seeded stream of maintenance writes over `hist`, with the kernel
/// plane re-served every few writes: absorbed inserts and deletes inside
/// the data extent, uncovered ones far outside it, and bursts of deletes
/// at one centre that drain its bucket to zero and past it (a fractional
/// count drains through the saturating partial decrement).
fn churn_stream(hist: &mut SpatialHistogram, data: &Dataset, seed: u64) {
    let mbr = data.stats().mbr;
    let rects = data.rects();
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..120 {
        match rng.gen_range(0..5u32) {
            0 => {
                let x = mbr.lo.x + rng.gen::<f64>() * mbr.width();
                let y = mbr.lo.y + rng.gen::<f64>() * mbr.height();
                let size = rng.gen::<f64>() * 0.05;
                hist.note_insert(&Rect::from_center_size(
                    Point::new(x, y),
                    size * w,
                    size * h,
                ));
            }
            1 => {
                hist.note_delete(&rects[rng.gen_range(0..rects.len())]);
            }
            2 => {
                let far = Rect::from_center_size(
                    Point::new(mbr.hi.x + 3.0 * w, mbr.hi.y + 3.0 * h),
                    w,
                    h,
                );
                assert!(!hist.note_insert(&far));
                assert!(!hist.note_delete(&far));
            }
            _ => {
                let r = rects[rng.gen_range(0..rects.len())];
                for _ in 0..rng.gen_range(1..6usize) {
                    hist.note_delete(&r);
                }
            }
        }
        if step % 17 == 0 {
            let _ = hist.bucket_plane();
        }
    }
}

#[test]
fn kept_plane_equals_a_fresh_build_after_churn() {
    let mut scratch = IndexScratch::new();
    for (name, data) in datasets(common::SCALE) {
        let mbr = data.stats().mbr;
        for (seed, (context, hist)) in (0u64..).zip(histograms(name, &data)) {
            // The corpus histogram, and a copy at half its counts so odd
            // counts are fractional and deletes drain them partially.
            let halved: Vec<Bucket> = hist
                .buckets()
                .iter()
                .map(|b| Bucket {
                    count: b.count * 0.5,
                    ..*b
                })
                .collect();
            let fractional = SpatialHistogram::from_parts(
                hist.name(),
                halved,
                hist.input_len(),
                hist.extension_rule(),
            );
            for (variant, mut h) in [("whole", hist), ("fractional", fractional)] {
                let context = format!("{context} counts={variant}");
                let before = h.clone();
                let _ = h.bucket_plane();
                churn_stream(&mut h, &data, seed);
                assert!(
                    h.shares_plane_geometry(&before),
                    "{context}: maintenance must keep the plane geometry"
                );
                assert_plane_eq_fresh_build(&context, &h);
                assert_bits_eq_reference(&context, &h, &adversarial_queries(&h, mbr), &mut scratch);
            }
        }
    }
}

#[test]
fn snapshots_share_plane_geometry_until_a_new_partition_is_installed() {
    let data = charminar_with(3_000, 79);
    let mut table = SpatialTable::new(TableOptions {
        maintenance: MaintenanceMode::OnlineRefine,
        accuracy_reservoir: 512,
        accuracy_drift_threshold: 0.0,
        auto_analyze_threshold: None,
        ..TableOptions::default()
    });
    let mut ids: Vec<_> = data.rects().iter().map(|r| table.insert(*r)).collect();
    table.analyze();
    let queries = queries_for(data.stats().mbr);
    let stats = |t: &SpatialTable| t.current_snapshot().stats().expect("analyzed").clone();
    let serve = |t: &SpatialTable| {
        for q in &queries {
            let _ = t.estimate(q);
        }
    };
    serve(&table);
    let mut prev = stats(&table);
    // Inserts inside and outside the extent, and deletes: every published
    // snapshot shares the geometry the previous one served with, and its
    // rebuilt plane equals a fresh build.
    for i in 0..24 {
        match i % 3 {
            0 => {
                let d = i as f64 * 40.0;
                ids.push(table.insert(Rect::new(d, d, d + 30.0, d + 20.0)));
            }
            1 => {
                ids.push(table.insert(Rect::new(1e7, 1e7, 1e7 + 5.0, 1e7 + 5.0)));
            }
            _ => assert!(table.delete(ids.swap_remove(i))),
        }
        serve(&table);
        let next = stats(&table);
        assert!(next.shares_plane_geometry(&prev), "write {i}");
        assert_plane_eq_fresh_build(&format!("write {i}"), &next);
        prev = next;
    }
    // ANALYZE, a loaded summary and a refine step each install a new
    // partition, hence a new geometry.
    table.analyze();
    let analyzed = stats(&table);
    assert!(!analyzed.shares_plane_geometry(&prev), "analyze");
    table.load_stats(&analyzed.to_bytes());
    let loaded = stats(&table);
    assert!(!loaded.shares_plane_geometry(&analyzed), "load_stats");
    if minskew_obs::enabled() {
        serve(&table);
        let report = table.maintain();
        assert!(
            matches!(report.action, MaintenanceAction::Refined(_)),
            "{report}"
        );
        assert!(!stats(&table).shares_plane_geometry(&loaded), "refine");
    }
}

#[test]
fn batch_serving_stays_bit_identical_through_churn_and_reanalyze() {
    // The full adversarial mix — NaN, ±0 and denormal corners included —
    // through the batch paths, before churn, while stale and after
    // an explicit re-ANALYZE republishes new statistics. Reversed so
    // request order is far from Morton order.
    let data = charminar_with(2_500, 71);
    let mut table = filled_table(&data, TableOptions::default());
    let hist = techniques(&data, 24).remove(0);
    let mut queries = adversarial_queries(&hist, data.stats().mbr);
    queries.reverse();
    assert_batch_eq_loop(&mut table, &queries, "phase=initial");
    for i in 0..60 {
        let d = i as f64;
        table.insert(Rect::new(d, d, d + 5.0, d + 5.0));
    }
    assert_batch_eq_loop(&mut table, &queries, "phase=post-churn");
    table.analyze();
    assert_batch_eq_loop(&mut table, &queries, "phase=post-reanalyze");
}

#[test]
fn morton_schedule_is_a_permutation_on_adversarial_batches() {
    let data = charminar_with(1_500, 73);
    let hist = techniques(&data, 16).remove(0);
    let queries = adversarial_queries(&hist, data.stats().mbr);
    let order = morton_schedule(&queries);
    assert_eq!(order.len(), queries.len());
    let mut seen = vec![false; queries.len()];
    for &i in &order {
        assert!(!seen[i as usize], "index {i} scheduled twice");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        (
            proptest::collection::vec(
                (0.0..2_000.0f64, 0.0..2_000.0f64, 0.0..80.0f64, 0.0..80.0f64),
                30..300,
            ),
            0.0..1_800.0f64,
            0.0..1_800.0f64,
        )
            .prop_map(|(raw, cx, cy)| {
                let mut rects: Vec<Rect> = raw
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                    .collect();
                // A dense cluster guarantees skew; a degenerate pile
                // exercises zero-area buckets.
                for i in 0..50 {
                    let dx = (i % 10) as f64 * 4.0;
                    let dy = (i / 10) as f64 * 4.0;
                    rects.push(Rect::new(cx + dx, cy + dy, cx + dx + 6.0, cy + dy + 6.0));
                }
                for i in 0..30 {
                    rects.push(Rect::from_point(Point::new(cx + i as f64, cy)));
                }
                Dataset::new(rects)
            })
    }

    /// Queries include degenerate (zero-width, zero-height) shapes.
    fn arb_query() -> impl Strategy<Value = Rect> {
        (
            -500.0..2_500.0f64,
            -500.0..2_500.0f64,
            0.0..1_500.0f64,
            0.0..1_500.0f64,
            0usize..4,
        )
            .prop_map(|(x, y, w, h, shape)| match shape {
                0 => Rect::from_point(Point::new(x, y)),
                1 => Rect::new(x, y, x + w, y),
                2 => Rect::new(x, y, x, y + h),
                _ => Rect::new(x, y, x + w, y + h),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random datasets, budgets, and query batches, both serving
        /// paths equal the AoS reference fold bit-for-bit under every rule.
        #[test]
        fn prop_kernel_equals_reference(
            data in arb_dataset(),
            buckets in 1usize..40,
            queries in proptest::collection::vec(arb_query(), 1..40),
            rule_pick in 0usize..3,
        ) {
            let rule = common::RULES[rule_pick];
            let mut scratch = IndexScratch::new();
            for hist in [
                MinSkewBuilder::new(buckets).regions(256).build(&data),
                build_equi_count(&data, buckets),
            ] {
                let hist = hist.with_extension_rule(rule);
                let context = format!("technique={} rule={rule:?}", hist.name());
                common::assert_bits_eq_reference(&context, &hist, &queries, &mut scratch);
            }
        }
    }
}
