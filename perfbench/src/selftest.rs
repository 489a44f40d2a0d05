//! `perfbench --self-test`: short runs of every workload at reduced scale
//! that check the benchmark itself.
//!
//! * every metric `BENCHMARK.json` names is printed, with its unit, and
//!   every end-to-end value is non-zero;
//! * traced and untraced runs get identical reply bits;
//! * the exact counts repeat exactly for one seed;
//! * a corrupted oracle value fails the run.

use std::process::ExitCode;

use crate::{run, Faults, Kind, Options, Outcome, Plan, END_TO_END};

/// `(name, unit)` of each metric listed under `section` in the
/// `BENCHMARK.json` text (`section` runs to the next `]`).
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let Some(at) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[at..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let value = |item: &str, key: &str| -> String {
        item.find(&format!("\"{key}\": \""))
            .map(|i| {
                let rest = &item[i + key.len() + 5..];
                rest[..rest.find('"').unwrap_or(0)].to_string()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|item| (value(item, "name"), value(item, "unit")))
        .collect()
}

struct Checker {
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            eprintln!("  ok   {what}");
        } else {
            eprintln!("  FAIL {what}");
            self.failures.push(what);
        }
    }

    fn has_metrics(&mut self, label: &str, outcome: &Outcome, want: &[(String, String)]) {
        let printed: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        self.check(
            !want.is_empty() && printed == want,
            format!("{label}: prints exactly the declared metrics with their units"),
        );
    }
}

fn outcome(opts: &Options, plan: &Plan, faults: Faults) -> Option<Outcome> {
    match run(opts, plan, faults) {
        Ok(o) => Some(o),
        Err(e) => {
            eprintln!("  FAIL {} could not run: {e}", opts.kind.name());
            None
        }
    }
}

pub fn run_self_test() -> ExitCode {
    let plan = Plan::smoke();
    let mut c = Checker {
        failures: Vec::new(),
    };
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let e2e = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let ours: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    c.check(
        e2e == ours,
        "BENCHMARK.json end_to_end matches the metrics the runs print",
    );

    for kind in Kind::ALL {
        let name = kind.name();
        eprintln!("{name}:");
        let untraced = Options {
            kind,
            seed: 7,
            seconds: 0.3,
            trace: false,
        };
        let traced = Options {
            trace: true,
            ..untraced
        };
        let (Some(a), Some(b), Some(t1), Some(t2), Some(bad)) = (
            outcome(&untraced, &plan, Faults::default()),
            outcome(&untraced, &plan, Faults::default()),
            outcome(&traced, &plan, Faults::default()),
            outcome(&traced, &plan, Faults::default()),
            outcome(
                &untraced,
                &plan,
                Faults {
                    corrupt_oracle: true,
                },
            ),
        ) else {
            c.failures.push(format!("{name}: a run failed"));
            continue;
        };
        for (label, o) in [("untraced", &a), ("untraced again", &b), ("traced", &t1)] {
            c.check(
                o.correct() && o.tally.failed == 0,
                format!(
                    "{label} run is correct with no failed requests ({:?})",
                    o.tally
                ),
            );
        }
        c.has_metrics("untraced", &a, &e2e);
        c.check(
            a.metrics
                .iter()
                .all(|m| m.value > 0.0 && m.value.is_finite()),
            "every end-to-end value is finite and non-zero",
        );
        c.has_metrics("traced", &t1, &per_layer);
        c.check(
            a.digest == t1.digest && a.digest == b.digest,
            "traced and untraced runs return identical reply bits",
        );
        for metric in ["stats_bytes", "avg_rel_error"] {
            let (x, y) = (a.metric(metric), b.metric(metric));
            c.check(
                x.is_some() && x.map(f64::to_bits) == y.map(f64::to_bits),
                format!("{metric} repeats exactly"),
            );
        }
        let (k1, k2) = (t1.counts.unwrap_or_default(), t2.counts.unwrap_or_default());
        c.check(
            k1.cache_hits == k2.cache_hits
                && k1.cache_misses == k2.cache_misses
                && k1.cache_misses > 0,
            "cache.hits and cache.misses repeat exactly",
        );
        c.check(
            k1.prune == k2.prune && k1.kernel_queries == k2.kernel_queries && k1.kernel_queries > 0,
            "kernel.buckets_classified_per_query repeats exactly",
        );
        let written = |o: &Outcome| o.metric("persist.bytes_written");
        c.check(
            written(&t1).is_some() && written(&t1) == written(&t2),
            "persist.bytes_written repeats exactly",
        );
        if kind != Kind::MixedZipf {
            c.check(
                written(&t1) == a.metric("stats_bytes"),
                "the replica's snapshot has the served table's size",
            );
        }
        c.check(
            !bad.correct() && bad.tally.mismatches > 0,
            "a corrupted oracle value fails the run",
        );
    }
    if c.failures.is_empty() {
        eprintln!("self-test passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test FAILED: {} check(s)", c.failures.len());
        ExitCode::FAILURE
    }
}
