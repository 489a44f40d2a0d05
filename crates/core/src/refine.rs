//! Online (query-driven) histogram refinement.
//!
//! The paper's §5.6 progressive refinement runs *offline*: it re-examines
//! the data to decide further splits. A serving system has a cheaper and
//! continuously available signal — the queries themselves. The accuracy
//! monitor replays a reservoir of served queries against exact counts,
//! yielding (query, exact, estimate) triples; this module uses those
//! triples to repair the histogram **in place**, without touching the base
//! data at all. This is the core idea of *Computing Data Distribution from
//! Query Selectivities*: recover bucket statistics consistent with the
//! observed selectivities instead of rebuilding from scratch.
//!
//! One bounded refine step ([`SpatialHistogram::refine`]) does three
//! things, in order:
//!
//! 1. **Split** — attribute each observation's absolute residual to the
//!    buckets its (extended) query touched, pro-rata by coverage; pick the
//!    highest-blame bucket and split it along the axis and coordinate that
//!    maximise the skew reduction of the *residual evidence* — the same
//!    SSE-reduction scoring Min-Skew applies to the density grid, applied
//!    here to a small per-axis marginal histogram of residual mass.
//! 2. **Merge** — to hold the bucket budget, merge the adjacent pair
//!    (exact rectangular union, as produced by any BSP partitioning) whose
//!    merge introduces the least spatial skew, excluding the freshly
//!    created children.
//! 3. **Re-fit** — solve a ridge-regularised least-squares system
//!    `actual_q ≈ Σ_b w_qb · count_b` (where `w_qb` is the fraction of
//!    bucket `b` covered by the extended query `q`) by coordinate descent,
//!    clamping every count into `[0, N]`. The pre-step counts act as the
//!    ridge anchor, so buckets the workload never touches keep their
//!    counts and well-observed buckets move to match what queries actually
//!    saw.
//!
//! Every stage is bounded: `O(B·Q)` blame and refit passes, one split and
//! one merge per step by default, and an `O(B²)` adjacency scan — all far
//! below a full re-ANALYZE, which re-reads the data. The whole step is
//! deterministic (fixed iteration order, no randomness), so refined
//! histograms are reproducible from the same triples.

use minskew_geom::{Axis, Rect};

use crate::{Bucket, IndexScratch, SpatialEstimator, SpatialHistogram};

/// One feedback triple from the serving path: a query, the exact result
/// count measured for it, and the estimate that was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineObservation {
    /// The served query rectangle.
    pub query: Rect,
    /// Exact number of data rectangles intersecting `query`.
    pub actual: f64,
    /// The estimate the histogram served for `query`.
    pub estimate: f64,
}

/// Tuning knobs for one bounded refine step. The defaults implement the
/// "one split, one merge, short refit" policy described in DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Maximum number of bucket splits per step (default 1). Each
    /// successful split is followed by at most one budget-restoring merge.
    pub max_splits: usize,
    /// Resolution of the per-axis residual-evidence marginal used to score
    /// split positions (default 8 cells, minimum 2).
    pub evidence_cells: usize,
    /// Coordinate-descent passes over the buckets during the re-fit
    /// (default 8; the system is small and converges quickly).
    pub refit_passes: usize,
    /// Ridge regularisation weight anchoring each count to its pre-step
    /// value (default 0.5). Larger values trust the old histogram more;
    /// `0.0` would let a single observation rewrite an otherwise-unseen
    /// bucket entirely.
    pub ridge: f64,
}

impl Default for RefineOptions {
    fn default() -> RefineOptions {
        RefineOptions {
            max_splits: 1,
            evidence_cells: 8,
            refit_passes: 8,
            ridge: 0.5,
        }
    }
}

/// What one refine step did; returned by [`SpatialHistogram::refine`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefineReport {
    /// Number of feedback triples consumed.
    pub observations: usize,
    /// Buckets split this step.
    pub splits: usize,
    /// Adjacent pairs merged this step (at most one per split; can be
    /// fewer when no mergeable pair exists outside the fresh children).
    pub merges: usize,
    /// Buckets touched by at least one observation and therefore moved by
    /// the least-squares re-fit.
    pub refit_buckets: usize,
    /// Average relative error of the *served* estimates in the triples
    /// (`Σ|actual − estimate| / max(Σ actual, 1)`), i.e. the error the
    /// monitor observed before this step.
    pub error_before: f64,
    /// Average relative error of the refined histogram re-predicting the
    /// same queries (estimates clamped to `[0, N]`).
    pub error_after: f64,
}

impl std::fmt::Display for RefineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refine: {} obs, {} split(s), {} merge(s), {} bucket(s) refit, err {:.4} -> {:.4}",
            self.observations,
            self.splits,
            self.merges,
            self.refit_buckets,
            self.error_before,
            self.error_after
        )
    }
}

impl SpatialHistogram {
    /// One bounded self-tuning step: split the highest-error bucket, merge
    /// the lowest-skew adjacent pair, and re-fit bucket counts against the
    /// observed selectivities. Returns the refined histogram (a fresh
    /// value with all serving caches reset and churn re-zeroed — install
    /// it the way a rebuilt histogram would be installed) plus a report of
    /// what changed.
    ///
    /// With no observations, or an empty histogram, the step is the
    /// identity (modulo cache/churn reset).
    pub fn refine(
        &self,
        observations: &[RefineObservation],
        opts: &RefineOptions,
    ) -> (SpatialHistogram, RefineReport) {
        let rule = self.extension_rule();
        let n = self.input_len();
        let nf = n as f64;
        let mut buckets = self.buckets().to_vec();
        let mut report = RefineReport {
            observations: observations.len(),
            ..RefineReport::default()
        };
        if observations.is_empty() || buckets.is_empty() {
            let out = SpatialHistogram::from_parts(self.name().to_string(), buckets, n, rule);
            return (out, report);
        }

        report.error_before = observed_error(observations);

        // --- Split the highest-blame bucket(s). ------------------------
        // `fresh` tracks the children created this step so the
        // budget-restoring merge cannot immediately undo a split.
        let mut fresh: Vec<usize> = Vec::new();
        for _ in 0..opts.max_splits {
            let weights = coverage_weights(&buckets, rule, observations);
            let blame = attribute_blame(&buckets, &weights, observations);
            // Highest blame first; skip buckets already produced by this
            // step (their evidence was consumed by the parent's split).
            let target = blame
                .iter()
                .enumerate()
                .filter(|(i, _)| !fresh.contains(i))
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            let Some(bi) = target else { break };
            if blame[bi] <= 0.0 {
                break; // no residual mass anywhere: nothing to learn
            }
            let Some((axis, at)) = best_split(&buckets, bi, rule, observations, &weights, opts)
            else {
                break; // evidence is flat inside the worst bucket
            };
            let parent = buckets[bi];
            let (lo_box, hi_box) = parent.mbr.split_at(axis, at);
            let lo_frac = if parent.mbr.side(axis) > 0.0 {
                lo_box.side(axis) / parent.mbr.side(axis)
            } else {
                0.5
            };
            let child = |mbr: Rect, frac: f64| Bucket {
                mbr,
                count: parent.count * frac,
                avg_width: parent.avg_width,
                avg_height: parent.avg_height,
            };
            buckets[bi] = child(lo_box, lo_frac);
            buckets.push(child(hi_box, 1.0 - lo_frac));
            fresh.push(bi);
            fresh.push(buckets.len() - 1);
            report.splits += 1;
        }

        // --- Merge the lowest-skew adjacent pair per split. -------------
        for _ in 0..report.splits {
            let Some((i, j)) = cheapest_merge(&buckets, &fresh) else {
                break; // no mergeable pair outside the fresh children
            };
            let merged = merge_pair(&buckets[i], &buckets[j]);
            buckets[i] = merged;
            buckets.remove(j);
            for f in &mut fresh {
                if *f > j {
                    *f -= 1;
                }
            }
            report.merges += 1;
        }

        // --- Re-fit counts against observed selectivities. --------------
        report.refit_buckets = refit_counts(&mut buckets, rule, observations, nf, opts);

        let out = SpatialHistogram::from_parts(self.name().to_string(), buckets, n, rule);
        report.error_after = predicted_error(&out, observations, nf);
        (out, report)
    }
}

/// Per-observation coverage weights: for each triple, the list of
/// `(bucket index, w_qb)` pairs with `w_qb > 0` — the fraction of the
/// bucket covered by the rule-extended query, exactly the factor the
/// estimator multiplies the count by.
fn coverage_weights(
    buckets: &[Bucket],
    rule: crate::ExtensionRule,
    observations: &[RefineObservation],
) -> Vec<Vec<(usize, f64)>> {
    let ext: Vec<(f64, f64)> = buckets
        .iter()
        .map(|b| rule.amounts(b.avg_width, b.avg_height))
        .collect();
    observations
        .iter()
        .map(|obs| {
            buckets
                .iter()
                .zip(&ext)
                .enumerate()
                .filter_map(|(i, (b, &(ex, ey)))| {
                    let w = b.coverage_fraction(&obs.query, ex, ey);
                    (w > 0.0).then_some((i, w))
                })
                .collect()
        })
        .collect()
}

/// Distributes each observation's absolute residual over the buckets its
/// query touched, pro-rata by coverage weight. The result ranks buckets by
/// how much observed error flows through them.
fn attribute_blame(
    buckets: &[Bucket],
    weights: &[Vec<(usize, f64)>],
    observations: &[RefineObservation],
) -> Vec<f64> {
    let mut blame = vec![0.0f64; buckets.len()];
    for (obs, ws) in observations.iter().zip(weights) {
        let pred: f64 = ws.iter().map(|&(i, w)| buckets[i].count * w).sum();
        let wsum: f64 = ws.iter().map(|&(_, w)| w).sum();
        if wsum <= 0.0 {
            continue;
        }
        let resid = (obs.actual - pred).abs();
        for &(i, w) in ws {
            blame[i] += resid * (w / wsum);
        }
    }
    blame
}

/// Scores candidate split positions inside bucket `bi` and returns the
/// best `(axis, coordinate)`, or `None` when the residual evidence is flat
/// (nothing to separate) or the bucket is degenerate on both axes.
///
/// The evidence is a small per-axis marginal: the bucket's extent is cut
/// into `opts.evidence_cells` equal cells and each observation's *signed*
/// residual is spread over the cells its extended query overlaps. A split
/// position is scored by the SSE reduction of splitting the evidence
/// series there — Min-Skew's spatial-skew scoring applied to residual
/// mass instead of point density.
fn best_split(
    buckets: &[Bucket],
    bi: usize,
    rule: crate::ExtensionRule,
    observations: &[RefineObservation],
    weights: &[Vec<(usize, f64)>],
    opts: &RefineOptions,
) -> Option<(Axis, f64)> {
    let bucket = &buckets[bi];
    let cells = opts.evidence_cells.max(2);
    let (ex, ey) = rule.amounts(bucket.avg_width, bucket.avg_height);
    let mut best: Option<(f64, Axis, f64)> = None;
    for axis in Axis::BOTH {
        let lo = bucket.mbr.lo.coord(axis);
        let extent = bucket.mbr.side(axis);
        if extent <= 0.0 {
            continue;
        }
        let cell_len = extent / cells as f64;
        let mut evidence = vec![0.0f64; cells];
        for (obs, ws) in observations.iter().zip(weights) {
            if !ws.iter().any(|&(i, _)| i == bi) {
                continue;
            }
            let pred: f64 = ws.iter().map(|&(i, w)| buckets[i].count * w).sum();
            let resid = obs.actual - pred;
            if resid == 0.0 {
                continue;
            }
            let q = obs.query.expanded(ex, ey);
            let q_lo = q.lo.coord(axis);
            let q_hi = q.hi.coord(axis);
            for (c, e) in evidence.iter_mut().enumerate() {
                let c_lo = lo + c as f64 * cell_len;
                let c_hi = c_lo + cell_len;
                let overlap = (q_hi.min(c_hi) - q_lo.max(c_lo)).max(0.0);
                *e += resid * (overlap / cell_len);
            }
        }
        // SSE-reduction scan over the evidence series.
        let total_sse = sse(&evidence);
        for j in 1..cells {
            let reduction = total_sse - sse(&evidence[..j]) - sse(&evidence[j..]);
            if reduction > 1e-12 && best.is_none_or(|(r, _, _)| reduction > r) {
                best = Some((reduction, axis, lo + j as f64 * cell_len));
            }
        }
    }
    best.map(|(_, axis, at)| (axis, at))
}

/// Sum of squared deviations from the mean — Min-Skew's per-region skew.
fn sse(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean) * (v - mean)).sum()
}

/// Finds the mergeable pair `(i, j)` (`i < j`) whose merge introduces the
/// least spatial skew, skipping indices in `protect`. A pair is mergeable
/// when the union of the two boxes is exactly rectangular — identical
/// extent on one axis and exactly touching on the other, which BSP-built
/// buckets satisfy bit-exactly because children share their parent's
/// coordinates.
fn cheapest_merge(buckets: &[Bucket], protect: &[usize]) -> Option<(usize, usize)> {
    let mut best: Option<(f64, usize, usize)> = None;
    for i in 0..buckets.len() {
        if protect.contains(&i) {
            continue;
        }
        for j in (i + 1)..buckets.len() {
            if protect.contains(&j) {
                continue;
            }
            let (a, b) = (&buckets[i], &buckets[j]);
            if !exactly_adjacent(&a.mbr, &b.mbr) {
                continue;
            }
            let (aa, ab) = (a.mbr.area(), b.mbr.area());
            if aa <= 0.0 || ab <= 0.0 {
                continue; // degenerate boxes have no defined density
            }
            let (da, db) = (a.count / aa, b.count / ab);
            let dm = (a.count + b.count) / (aa + ab);
            let cost = aa * (da - dm) * (da - dm) + ab * (db - dm) * (db - dm);
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, i, j));
            }
        }
    }
    best.map(|(_, i, j)| (i, j))
}

/// `true` when the union of `a` and `b` is exactly `a ∪ b` as a rectangle:
/// same span on one axis, exactly touching along the other.
fn exactly_adjacent(a: &Rect, b: &Rect) -> bool {
    let same_y = a.lo.y == b.lo.y && a.hi.y == b.hi.y;
    let same_x = a.lo.x == b.lo.x && a.hi.x == b.hi.x;
    (same_y && (a.hi.x == b.lo.x || b.hi.x == a.lo.x))
        || (same_x && (a.hi.y == b.lo.y || b.hi.y == a.lo.y))
}

/// Merges two buckets: rectangular union, summed count, count-weighted
/// average dimensions.
fn merge_pair(a: &Bucket, b: &Bucket) -> Bucket {
    let total = a.count + b.count;
    let (avg_width, avg_height) = if total > 0.0 {
        (
            (a.avg_width * a.count + b.avg_width * b.count) / total,
            (a.avg_height * a.count + b.avg_height * b.count) / total,
        )
    } else {
        (
            (a.avg_width + b.avg_width) / 2.0,
            (a.avg_height + b.avg_height) / 2.0,
        )
    };
    Bucket {
        mbr: a.mbr.union(&b.mbr),
        count: total,
        avg_width,
        avg_height,
    }
}

/// Ridge-regularised least squares `actual_q ≈ Σ_b w_qb · count_b` by
/// exact coordinate descent, every count clamped into `[0, nf]`. The
/// entry counts are the ridge anchors. Returns the number of buckets
/// touched by at least one observation (the ones the solve can move).
fn refit_counts(
    buckets: &mut [Bucket],
    rule: crate::ExtensionRule,
    observations: &[RefineObservation],
    nf: f64,
    opts: &RefineOptions,
) -> usize {
    let weights = coverage_weights(buckets, rule, observations);
    // Inverted index: per bucket, the observations that touch it.
    let mut touching: Vec<Vec<(usize, f64)>> = vec![Vec::new(); buckets.len()];
    for (q, ws) in weights.iter().enumerate() {
        for &(b, w) in ws {
            touching[b].push((q, w));
        }
    }
    let mut counts: Vec<f64> = buckets.iter().map(|b| b.count).collect();
    let anchors = counts.clone();
    let mut pred: Vec<f64> = weights
        .iter()
        .map(|ws| ws.iter().map(|&(b, w)| counts[b] * w).sum())
        .collect();
    let ridge = opts.ridge.max(0.0);
    for _ in 0..opts.refit_passes {
        for (b, touch) in touching.iter().enumerate() {
            if touch.is_empty() {
                continue;
            }
            let denom = ridge + touch.iter().map(|&(_, w)| w * w).sum::<f64>();
            if denom <= 0.0 {
                continue;
            }
            let num = ridge * anchors[b]
                + touch
                    .iter()
                    .map(|&(q, w)| w * (observations[q].actual - pred[q] + w * counts[b]))
                    .sum::<f64>();
            let new = (num / denom).clamp(0.0, nf.max(0.0));
            let delta = new - counts[b];
            if delta != 0.0 {
                for &(q, w) in touch {
                    pred[q] += w * delta;
                }
                counts[b] = new;
            }
        }
    }
    // Each count is clamped to `[0, N]` above, but the counts are *not*
    // globally renormalised to sum to N: the least-squares fit deliberately
    // over-fills a coarse bucket when the observed selectivities say its
    // mass is concentrated where the queries land (the per-bucket
    // uniformity assumption under-predicts there), and later splits turn
    // that crutch into real boundaries. Multi-bucket estimates can
    // therefore exceed N; the serving layer's `[0, N]` clamp (the engine's
    // `estimate` contract) is what bounds served values, exactly as it
    // does for incrementally patched histograms.
    for (bucket, &c) in buckets.iter_mut().zip(&counts) {
        bucket.count = c;
    }
    touching.iter().filter(|t| !t.is_empty()).count()
}

/// Average relative error of the estimates *as served* (the triples'
/// `estimate` field): `Σ|actual − estimate| / max(Σ actual, 1)` — the
/// paper's error metric over the observed workload.
fn observed_error(observations: &[RefineObservation]) -> f64 {
    let num: f64 = observations
        .iter()
        .map(|o| (o.actual - o.estimate).abs())
        .sum();
    let den: f64 = observations.iter().map(|o| o.actual).sum();
    num / den.max(1.0)
}

/// Average relative error of `hist` re-predicting the observed queries,
/// with estimates clamped into `[0, nf]` the way the serving path clamps.
fn predicted_error(hist: &SpatialHistogram, observations: &[RefineObservation], nf: f64) -> f64 {
    let mut scratch = IndexScratch::new();
    let num: f64 = observations
        .iter()
        .map(|o| {
            let est = hist
                .estimate_count_indexed(&o.query, &mut scratch)
                .clamp(0.0, nf.max(0.0));
            (o.actual - est).abs()
        })
        .sum();
    let den: f64 = observations.iter().map(|o| o.actual).sum();
    num / den.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtensionRule;
    use minskew_geom::Point;

    fn obs(query: Rect, actual: f64, estimate: f64) -> RefineObservation {
        RefineObservation {
            query,
            actual,
            estimate,
        }
    }

    /// A single uniform bucket whose data actually lives in the left half.
    fn skewed_one_bucket() -> SpatialHistogram {
        SpatialHistogram::from_parts(
            "skewed",
            vec![Bucket {
                mbr: Rect::new(0.0, 0.0, 20.0, 20.0),
                count: 100.0,
                avg_width: 0.0,
                avg_height: 0.0,
            }],
            100,
            ExtensionRule::Minkowski,
        )
    }

    /// Observations telling the refiner the left half holds 90 of the 100.
    fn skewed_observations(h: &SpatialHistogram) -> Vec<RefineObservation> {
        let mut out = Vec::new();
        for (x1, x2, actual) in [
            (0.0, 5.0, 45.0),
            (5.0, 10.0, 45.0),
            (10.0, 15.0, 5.0),
            (15.0, 20.0, 5.0),
            (0.0, 10.0, 90.0),
            (10.0, 20.0, 10.0),
        ] {
            let q = Rect::new(x1, 0.0, x2, 20.0);
            out.push(obs(q, actual, h.estimate_count(&q)));
        }
        out
    }

    #[test]
    fn no_observations_is_identity() {
        let h = skewed_one_bucket();
        let (out, report) = h.refine(&[], &RefineOptions::default());
        assert_eq!(out, h);
        assert_eq!(report, RefineReport::default());
    }

    #[test]
    fn split_targets_residual_boundary_and_refit_recovers_counts() {
        let h = skewed_one_bucket();
        let observations = skewed_observations(&h);
        let (out, report) = h.refine(&observations, &RefineOptions::default());
        assert_eq!(report.splits, 1);
        assert_eq!(report.merges, 0, "both children are protected");
        assert_eq!(out.num_buckets(), 2);
        // The split must land on the residual sign change at x = 10.
        let left = &out.buckets()[0];
        let right = &out.buckets()[1];
        assert_eq!(left.mbr, Rect::new(0.0, 0.0, 10.0, 20.0));
        assert_eq!(right.mbr, Rect::new(10.0, 0.0, 20.0, 20.0));
        // The refit must move mass left, clamped within [0, N].
        assert!(
            left.count > 75.0 && left.count <= 100.0,
            "left count = {}",
            left.count
        );
        assert!(
            right.count < 25.0 && right.count >= 0.0,
            "right count = {}",
            right.count
        );
        assert!(
            report.error_after < report.error_before / 2.0,
            "err {} -> {}",
            report.error_before,
            report.error_after
        );
        // The children still tile the parent exactly.
        assert_eq!(left.mbr.union(&right.mbr), Rect::new(0.0, 0.0, 20.0, 20.0));
        assert!(
            (left.mbr.area() + right.mbr.area() - 400.0).abs() < 1e-9,
            "children must not overlap"
        );
    }

    #[test]
    fn merge_holds_bucket_budget_on_multi_bucket_histograms() {
        // Four equal buckets in a row; the workload blames only the first.
        let buckets: Vec<Bucket> = (0..4)
            .map(|i| Bucket {
                mbr: Rect::new(i as f64 * 10.0, 0.0, (i + 1) as f64 * 10.0, 10.0),
                count: 25.0,
                avg_width: 0.0,
                avg_height: 0.0,
            })
            .collect();
        let h = SpatialHistogram::from_parts("row", buckets, 100, ExtensionRule::Minkowski);
        let mut observations = Vec::new();
        for (x1, x2, actual) in [(0.0, 5.0, 24.0), (5.0, 10.0, 1.0)] {
            let q = Rect::new(x1, 0.0, x2, 10.0);
            observations.push(obs(q, actual, h.estimate_count(&q)));
        }
        let (out, report) = h.refine(&observations, &RefineOptions::default());
        assert_eq!(report.splits, 1);
        assert_eq!(report.merges, 1, "budget must be restored by a merge");
        assert_eq!(out.num_buckets(), 4, "bucket budget held");
        // Coverage: every probe point is owned by exactly one bucket
        // (interior points — BSP boundaries are shared by construction).
        for px in [1.0, 7.0, 13.0, 19.0, 26.0, 33.0, 39.0] {
            let p = Point::new(px, 5.0);
            let owners = out
                .buckets()
                .iter()
                .filter(|b| b.mbr.contains_point(p) && b.mbr.lo.x < px && px < b.mbr.hi.x)
                .count();
            assert_eq!(owners, 1, "point {px} must have exactly one interior owner");
        }
    }

    #[test]
    fn refit_clamps_counts_into_data_range() {
        let h = skewed_one_bucket();
        // An absurd observation claiming far more rows than exist.
        let q = Rect::new(0.0, 0.0, 20.0, 20.0);
        let observations = vec![obs(q, 1e9, h.estimate_count(&q))];
        let (out, _) = h.refine(
            &observations,
            &RefineOptions {
                max_splits: 0,
                ..RefineOptions::default()
            },
        );
        for b in out.buckets() {
            assert!(
                (0.0..=100.0).contains(&b.count),
                "count {} escaped [0, N]",
                b.count
            );
        }
    }

    #[test]
    fn refine_resets_churn_like_a_rebuild() {
        let mut h = skewed_one_bucket();
        h.note_insert(&Rect::from_center_size(Point::new(5.0, 5.0), 1.0, 1.0));
        assert!(h.staleness() > 0.0);
        let observations = skewed_observations(&h);
        let (out, _) = h.refine(&observations, &RefineOptions::default());
        assert_eq!(out.staleness(), 0.0, "a refined histogram starts fresh");
        assert_eq!(out.input_len(), h.input_len());
    }

    #[test]
    fn untouched_buckets_keep_their_counts() {
        let buckets: Vec<Bucket> = (0..3)
            .map(|i| Bucket {
                mbr: Rect::new(i as f64 * 10.0, 0.0, (i + 1) as f64 * 10.0, 10.0),
                count: 10.0 * (i + 1) as f64,
                avg_width: 0.0,
                avg_height: 0.0,
            })
            .collect();
        let h = SpatialHistogram::from_parts("three", buckets, 60, ExtensionRule::Minkowski);
        // Only the first bucket is observed; disable splitting to isolate
        // the refit.
        let q = Rect::new(0.0, 0.0, 10.0, 10.0);
        let observations = vec![obs(q, 4.0, h.estimate_count(&q))];
        let (out, report) = h.refine(
            &observations,
            &RefineOptions {
                max_splits: 0,
                ..RefineOptions::default()
            },
        );
        assert_eq!(report.refit_buckets, 1);
        assert_eq!(out.buckets()[1].count, 20.0);
        assert_eq!(out.buckets()[2].count, 30.0);
        assert!(
            out.buckets()[0].count < 10.0,
            "observed bucket must move toward the actual"
        );
    }
}
