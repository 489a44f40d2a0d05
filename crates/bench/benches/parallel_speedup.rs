//! Parallel substrate speedup: serial vs threaded wall-clock for the three
//! parallelized layers, with the differential contract re-checked inline
//! (a speedup that changes the answer is a bug, not a win).
//!
//! Writes machine-readable results to `BENCH_parallel.json` at the
//! workspace root (a quick run writes under `target/bench-smoke/`) so CI
//! can assert the file exists and readers can diff numbers across
//! machines. `host_cpus` is recorded alongside the timings: speedup is only
//! attainable up to the physical core count, so a 1-CPU container will
//! honestly report ~1.0x and that is the expected reading there, not a
//! regression.
//!
//! `MINSKEW_QUICK=1` shrinks the inputs for a smoke run.

use minskew_bench::{time_it, write_artifact, Scale};
use minskew_core::MinSkewBuilder;
use minskew_data::DensityGrid;
use minskew_datagen::charminar_with;
use minskew_workload::{GroundTruth, QueryWorkload};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Best-of-`REPS` wall-clock seconds for `f`.
fn best_of<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = time_it(&mut f);
        best = best.min(secs);
    }
    best
}

struct Section {
    name: &'static str,
    /// `(threads, best_seconds)` per sweep point.
    times: Vec<(usize, f64)>,
}

impl Section {
    fn speedup(&self, threads: usize) -> f64 {
        let serial = self.times[0].1;
        let t = self
            .times
            .iter()
            .find(|(k, _)| *k == threads)
            .map(|(_, s)| *s)
            .unwrap_or(serial);
        if t > 0.0 {
            serial / t
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let n = 400_000 / scale.data_divisor;
    let queries = 20_000 / scale.data_divisor;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!("[parallel] host_cpus = {host_cpus}, N = {n}, queries = {queries}");
    let data = charminar_with(n, 0xBA11);
    let mbr = data.stats().mbr;

    // --- Layer 1: density-grid construction (sharded counts + merge). ---
    let serial_grid = DensityGrid::build(data.rects().iter(), mbr, 256, 256);
    let mut grid = Section {
        name: "density_grid_256x256",
        times: Vec::new(),
    };
    for t in THREADS {
        let secs = best_of(|| {
            let g = DensityGrid::build_with_threads(data.rects(), mbr, 256, 256, t);
            assert_eq!(g.densities(), serial_grid.densities(), "differential!");
            g
        });
        eprintln!("[parallel] grid threads={t}: {secs:.4}s");
        grid.times.push((t, secs));
    }

    // --- Layer 2: full Min-Skew construction. ---
    let reference = MinSkewBuilder::new(200).regions(10_000).build(&data);
    let reference_bytes = reference.to_bytes();
    let mut build = Section {
        name: "minskew_build_b200_r10000",
        times: Vec::new(),
    };
    for t in THREADS {
        let secs = best_of(|| {
            let h = MinSkewBuilder::new(200)
                .regions(10_000)
                .threads(t)
                .build(&data);
            assert_eq!(h.to_bytes(), reference_bytes, "differential!");
            h
        });
        eprintln!("[parallel] build threads={t}: {secs:.4}s");
        build.times.push((t, secs));
    }

    // --- Layer 3: batch ground-truth counting. ---
    let truth = GroundTruth::index(&data);
    let workload = QueryWorkload::generate(&data, 0.05, queries, 0x5EED);
    let serial_counts = truth.counts_with_threads(workload.queries(), 1);
    let mut counting = Section {
        name: "ground_truth_batch_counts",
        times: Vec::new(),
    };
    for t in THREADS {
        let secs = best_of(|| {
            let counts = truth.counts_with_threads(workload.queries(), t);
            assert_eq!(counts, serial_counts, "differential!");
            counts
        });
        eprintln!("[parallel] counts threads={t}: {secs:.4}s");
        counting.times.push((t, secs));
    }

    // --- Report. ---
    let sections = [&grid, &build, &counting];
    println!("\n## Parallel speedup (wall-clock, best of {REPS})\n");
    println!("| layer | t=1 (s) | t=2 | t=4 | t=8 | speedup@4 |");
    println!("|-------|---------|-----|-----|-----|-----------|");
    for s in sections {
        println!(
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.2}x |",
            s.name,
            s.times[0].1,
            s.times[1].1,
            s.times[2].1,
            s.times[3].1,
            s.speedup(4),
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"dataset_rects\": {n},\n"));
    json.push_str(&format!("  \"queries\": {queries},\n"));
    json.push_str(&format!("  \"quick\": {},\n", scale.data_divisor != 1));
    json.push_str("  \"note\": \"speedup is bounded by host_cpus; on a 1-CPU host ~1.0x is the expected honest result\",\n");
    json.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        json.push_str(&format!("    {{\n      \"name\": \"{}\",\n", s.name));
        json.push_str("      \"seconds_by_threads\": {");
        for (j, (t, secs)) in s.times.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{t}\": {secs:.6}"));
        }
        json.push_str("},\n");
        json.push_str(&format!(
            "      \"speedup_at_4_threads\": {:.4}\n    }}{}\n",
            s.speedup(4),
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    write_artifact("BENCH_parallel.json", &json);
}
