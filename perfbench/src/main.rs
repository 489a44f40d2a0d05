//! Wire-level benchmark of `minskew serve`.
//!
//! ```text
//! perfbench --workload <estimate-distinct|batch-distinct|mixed-zipf>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Each run generates the NJ-Road stand-in from `--seed`, serves it from an
//! in-process `serve` over a `SpatialCatalog`, and drives it from one
//! client thread over one TCP connection in a closed loop. Every reply is
//! bit-checked against `SpatialReader::try_estimate` at the same
//! generation. The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). The line before it stamps the build, host and
//! inputs. See `perfbench/README.md`.

use std::io;
use std::process::ExitCode;

use minskew_datagen::RoadNetworkSpec;
use minskew_geom::Rect;
use minskew_workload::{GroundTruth, QueryWorkload};

mod layers;
mod loadgen;
mod selftest;
mod setup;
mod stats;
mod workload;

use layers::{Counts, Hist, Metric, Tracer};
use setup::{BUCKETS, REGIONS};
use stats::{chunked_quantile, median_f64, peak_rss_mib, sub_seed, Digest};
use workload::{
    probe_analyze, probe_batches, probe_estimates, probe_writes, BatchDistinct, Bound, Ctx,
    EstimateDistinct, MixedZipf, Probes, Segment, Tally,
};

/// End-to-end metrics of an untraced run, in output order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("estimate_p50_us", "us"),
    ("estimate_after_write_us", "us"),
    ("batch_p50_ms", "ms"),
    ("insert_p50_us", "us"),
    ("delete_p50_us", "us"),
    ("analyze_ms", "ms"),
    ("avg_rel_error", "ratio"),
    ("stats_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Seed of the one dataset every run serves (the repository's own NJ-Road
/// stand-in seed). `--seed` drives everything else: queries, batch pools,
/// the held-out split and its order, the Zipf draws and the probes.
pub const DATA_SEED: u64 = 0xBE11_1AB5;

/// Sizes of every input; [`Plan::full`] is the benchmark, [`Plan::smoke`]
/// the self-test's reduced scale.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Rectangles generated (the paper's NJ Road cardinality).
    pub rows: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub estimate_qsize: f64,
    /// Distinct queries available to `estimate-distinct`.
    pub estimate_pool: usize,
    /// Leading estimates scored against exact counts (`avg_rel_error`).
    pub truth_queries: usize,
    pub batch_size: usize,
    pub batch_qsize: f64,
    /// Distinct batches `batch-distinct` cycles through.
    pub batch_pool: usize,
    pub truth_batches: usize,
    pub mixed_load_fraction: f64,
    pub mixed_pool: usize,
    pub mixed_reads: usize,
    pub zipf_theta: f64,
    pub analyze_every: u64,
    /// Steps per throughput window (`mixed-zipf` uses `analyze_every`).
    pub window_estimates: u64,
    pub window_batches: u64,
    /// Leading cycles of `mixed-zipf` scored against exact counts.
    pub truth_cycles: u64,
    /// Requests (steps) of the traced segment, per workload; untraced runs
    /// digest the same prefix.
    pub traced_estimates: u64,
    pub traced_batches: u64,
    pub traced_cycles: u64,
    pub probe_estimates: usize,
    pub probe_batches: u64,
    pub probe_batch_pool: usize,
    pub probe_writes: usize,
    pub probe_analyzes: usize,
    pub pings: usize,
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            rows: 414_442,
            setup_repeats: 5,
            estimate_qsize: 0.05,
            estimate_pool: 1 << 20,
            truth_queries: 20_000,
            batch_size: 1024,
            batch_qsize: 0.10,
            batch_pool: 64,
            truth_batches: 16,
            mixed_load_fraction: 0.9,
            mixed_pool: 4096,
            mixed_reads: 48,
            zipf_theta: 1.0,
            analyze_every: 500,
            window_estimates: 2000,
            window_batches: 10,
            truth_cycles: 500,
            traced_estimates: 20_000,
            traced_batches: 64,
            traced_cycles: 500,
            probe_estimates: 16_384,
            probe_batches: 800,
            probe_batch_pool: 8,
            probe_writes: 24_576,
            probe_analyzes: 30,
            pings: 2000,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            rows: 20_000,
            setup_repeats: 2,
            estimate_pool: 1 << 16,
            truth_queries: 500,
            batch_size: 64,
            batch_pool: 8,
            truth_batches: 4,
            mixed_pool: 256,
            mixed_reads: 8,
            analyze_every: 50,
            window_estimates: 100,
            window_batches: 2,
            truth_cycles: 60,
            traced_estimates: 400,
            traced_batches: 8,
            traced_cycles: 60,
            probe_estimates: 256,
            probe_batches: 20,
            probe_batch_pool: 4,
            probe_writes: 64,
            probe_analyzes: 2,
            pings: 200,
            ..Plan::full()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EstimateDistinct,
    BatchDistinct,
    MixedZipf,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::EstimateDistinct, Kind::BatchDistinct, Kind::MixedZipf];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EstimateDistinct => "estimate-distinct",
            Kind::BatchDistinct => "batch-distinct",
            Kind::MixedZipf => "mixed-zipf",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Options {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run measured.
pub struct Outcome {
    pub tally: Tally,
    /// `false` when the run stopped on a transport failure.
    pub complete: bool,
    pub metrics: Vec<Metric>,
    /// Digest of the replies to the first traced-segment-sized prefix.
    pub digest: Digest,
    /// The traced run's frozen counts.
    pub counts: Option<Counts>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.complete && self.tally.mismatches == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            out.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The traffic of one workload.
enum Traffic {
    Estimate(EstimateDistinct),
    Batch(BatchDistinct),
    Mixed(Box<MixedZipf>),
}

impl Traffic {
    fn run(&mut self, ctx: &mut Ctx, bound: Bound) -> io::Result<Segment> {
        match self {
            Traffic::Estimate(w) => w.run(ctx, bound),
            Traffic::Batch(w) => w.run(ctx, bound),
            Traffic::Mixed(w) => w.run(ctx, bound),
        }
    }

    fn rel_error(&self) -> f64 {
        match self {
            Traffic::Estimate(w) => w.rel_error.value(),
            Traffic::Batch(w) => w.rel_error.value(),
            Traffic::Mixed(w) => w.rel_error.value(),
        }
    }
}

fn merge(mut a: Segment, b: Segment) -> Segment {
    a.reads += b.reads;
    a.wall += b.wall;
    a.estimate_ns.extend(b.estimate_ns);
    a.after_write_ns.extend(b.after_write_ns);
    a.batch_ns.extend(b.batch_ns);
    a.insert_ns.extend(b.insert_ns);
    a.delete_ns.extend(b.delete_ns);
    a.analyze_ns.extend(b.analyze_ns);
    a.window_qps.extend(b.window_qps);
    // The first snapshot saved is the one a seed determines: later ones
    // depend on how many cycles the measured time allowed.
    if a.stats_bytes == 0 {
        a.stats_bytes = b.stats_bytes;
    }
    a
}

/// Test hooks for the self-test.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Flip one bit of the first oracle value the run compares against.
    pub corrupt_oracle: bool,
}

/// Runs one workload; see the crate docs.
pub fn run(opts: &Options, plan: &Plan, faults: Faults) -> io::Result<Outcome> {
    let data = RoadNetworkSpec {
        segments: plan.rows,
        ..RoadNetworkSpec::default()
    }
    .generate(DATA_SEED);
    let dir = setup::scratch_dir()?;
    let pid = std::process::id();
    let snapshot_path = dir.join(format!("{}-{pid}.snap", opts.kind.name()));
    let replica_path = dir.join(format!("{}-{pid}-replica.snap", opts.kind.name()));

    // The benchmark's own inputs and oracles, prepared before set-up.
    let read_only = opts.kind != Kind::MixedZipf;
    let truth = read_only.then(|| GroundTruth::index(&data));
    let (mut traffic, rows, traced_steps) = match opts.kind {
        Kind::EstimateDistinct => {
            let w =
                EstimateDistinct::new(&data, truth.as_ref().expect("read-only"), plan, opts.seed);
            (
                Traffic::Estimate(w),
                data.rects().to_vec(),
                plan.traced_estimates,
            )
        }
        Kind::BatchDistinct => {
            let w = BatchDistinct::new(
                &data,
                truth.as_ref(),
                plan,
                plan.batch_pool,
                plan.truth_batches,
                sub_seed(opts.seed, 2),
            );
            (
                Traffic::Batch(w),
                data.rects().to_vec(),
                plan.traced_batches,
            )
        }
        Kind::MixedZipf => {
            let (w, rows) = MixedZipf::new(&data, plan, opts.seed);
            (Traffic::Mixed(Box::new(w)), rows, plan.traced_cycles)
        }
    };
    drop(truth);
    let min_steps = match opts.kind {
        Kind::EstimateDistinct => plan.truth_queries as u64,
        Kind::BatchDistinct => plan.truth_batches as u64,
        Kind::MixedZipf => plan.truth_cycles,
    }
    .max(traced_steps);
    let probe_queries = |stream| {
        QueryWorkload::generate(
            &data,
            plan.estimate_qsize,
            plan.probe_estimates,
            sub_seed(opts.seed, stream),
        )
        .queries()
        .to_vec()
    };
    let mut probe_pool = BatchDistinct::new(
        &data,
        None,
        plan,
        plan.probe_batch_pool,
        0,
        sub_seed(opts.seed, 8),
    );

    let repeats = if opts.trace { 1 } else { plan.setup_repeats };
    let mut set_up = setup::set_up(&rows, repeats, &snapshot_path)?;
    if let Traffic::Mixed(w) = &mut traffic {
        w.attach(&set_up.served.entry);
    }
    let mut tracer = opts.trace.then(|| Tracer::new(&rows, replica_path.clone()));
    let mut ctx = Ctx {
        client: &mut set_up.served.client,
        entry: set_up.served.entry.clone(),
        tally: Tally::default(),
        tracer: None,
        corrupt_oracle: faults.corrupt_oracle,
        snapshot_path: snapshot_path.clone(),
    };
    let probe_inputs = ProbeInputs {
        rows: &rows,
        estimates: probe_queries(7),
        after_writes: probe_queries(9),
        batches: &mut probe_pool,
    };
    let mut counts = None;
    let result = match tracer.as_mut() {
        Some(tracer) => drive_traced(
            &mut ctx,
            tracer,
            &mut traffic,
            opts,
            plan,
            traced_steps,
            probe_inputs,
        )
        .map(|(seg, metrics, c)| {
            counts = Some(c);
            (seg, metrics)
        }),
        None => drive(
            &mut ctx,
            &mut traffic,
            opts,
            plan,
            traced_steps,
            min_steps,
            probe_inputs,
        )
        .map(|(mut seg, mut probes)| {
            let metrics = end_to_end(&set_up.stats, &mut seg, &mut probes, traffic.rel_error());
            (seg, metrics)
        }),
    };
    let mut tally = ctx.tally;
    let (complete, metrics, digest) = match result {
        Ok((seg, metrics)) => (true, metrics, seg.digest),
        Err(e) => {
            eprintln!("perfbench: transport failure: {e}");
            tally.failed += 1;
            (false, Vec::new(), Digest::default())
        }
    };
    set_up.served.shutdown();
    let _ = std::fs::remove_file(&snapshot_path);
    let _ = std::fs::remove_file(&replica_path);
    Ok(Outcome {
        tally,
        complete,
        metrics,
        digest,
        counts,
    })
}

/// Inputs of the post-run probes.
struct ProbeInputs<'a> {
    rows: &'a [Rect],
    estimates: Vec<Rect>,
    after_writes: Vec<Rect>,
    batches: &'a mut BatchDistinct,
}

/// The probes that give each workload the metrics its own traffic lacks.
fn run_probes(
    ctx: &mut Ctx,
    opts: &Options,
    plan: &Plan,
    inputs: ProbeInputs,
) -> io::Result<Probes> {
    let mut out = Probes::default();
    if opts.kind == Kind::BatchDistinct {
        probe_estimates(ctx, &inputs.estimates, &mut out)?;
    } else {
        probe_batches(ctx, inputs.batches, plan.probe_batches, &mut out)?;
    }
    if opts.kind != Kind::MixedZipf {
        probe_analyze(ctx, plan.probe_analyzes, &mut out)?;
        let (rows, queries) = (inputs.rows, &inputs.after_writes);
        probe_writes(ctx, rows, queries, plan.probe_writes, opts.seed, &mut out)?;
    }
    Ok(out)
}

/// The untraced run: the traced-segment-sized prefix (digested), the rest
/// of the measured time, then the probes.
fn drive(
    ctx: &mut Ctx,
    traffic: &mut Traffic,
    opts: &Options,
    plan: &Plan,
    prefix_steps: u64,
    min_steps: u64,
    probes: ProbeInputs,
) -> io::Result<(Segment, Probes)> {
    let prefix = traffic.run(ctx, Bound::Steps(prefix_steps))?;
    let remaining = (opts.seconds - prefix.wall.as_secs_f64()).max(0.0);
    let rest = traffic.run(
        ctx,
        Bound::Time {
            secs: remaining,
            min_steps: min_steps - prefix_steps,
        },
    )?;
    let digest = prefix.digest;
    let mut seg = merge(prefix, rest);
    seg.digest = digest;
    let probes = run_probes(ctx, opts, plan, probes)?;
    Ok((seg, probes))
}

/// The traced run: the transport floor, the traced segment between two
/// `METRICS` scrapes, the probes (traced), and an untraced segment of the
/// same size for the tracing overhead.
fn drive_traced<'a>(
    ctx: &mut Ctx<'a>,
    tracer: &'a mut Tracer,
    traffic: &mut Traffic,
    opts: &Options,
    plan: &Plan,
    steps: u64,
    probes: ProbeInputs,
) -> io::Result<(Segment, Vec<Metric>, Counts)> {
    let floor_ns = transport_floor(ctx, plan.pings)?;
    let before = scrape(ctx)?;
    ctx.tracer = Some(tracer);
    let traced = traffic.run(ctx, Bound::Steps(steps))?;
    let handle = scrape(ctx)?.since(&before);
    if let Some(t) = ctx.tracer.as_deref_mut() {
        t.freeze();
    }
    run_probes(ctx, opts, plan, probes)?;
    let tracer = ctx.tracer.take().expect("installed above");
    let untraced = traffic.run(ctx, Bound::Steps(steps))?;
    let metrics = tracer.metrics(&handle, floor_ns, (traced.qps(), untraced.qps()));
    Ok((traced, metrics, tracer.counts()))
}

/// Mean PING round trip minus the server's mean handle time for it: the
/// transport cost every request pays.
fn transport_floor(ctx: &mut Ctx, pings: usize) -> io::Result<f64> {
    let before = scrape(ctx)?;
    let mut total = 0u64;
    for _ in 0..pings {
        let t = std::time::Instant::now();
        let reply = ctx.client.control("PING")?;
        total += stats::ns_since(t);
        if reply != "OK pong" {
            return Err(io::Error::other(format!("PING failed: {reply:?}")));
        }
    }
    let handle = scrape(ctx)?.since(&before);
    Ok(total as f64 / pings.max(1) as f64 - handle.mean())
}

/// The server's `serve.request_ns` histogram, scraped with `METRICS`.
fn scrape(ctx: &mut Ctx) -> io::Result<Hist> {
    let body = ctx.client.framed("METRICS json")?;
    Hist::parse(&body, "serve.request_ns")
        .ok_or_else(|| io::Error::other("malformed METRICS reply"))
}

fn end_to_end(
    set_up: &setup::SetUpStats,
    seg: &mut Segment,
    probes: &mut Probes,
    rel_error: f64,
) -> Vec<Metric> {
    let pick = |own: &mut Vec<u64>, probe: &mut Vec<u64>| {
        if own.is_empty() {
            std::mem::take(probe)
        } else {
            std::mem::take(own)
        }
    };
    let estimate = pick(&mut seg.estimate_ns, &mut probes.estimate_ns);
    let after_write = pick(&mut seg.after_write_ns, &mut probes.after_write_ns);
    let batch = pick(&mut seg.batch_ns, &mut probes.batch_ns);
    let insert = pick(&mut seg.insert_ns, &mut probes.insert_ns);
    let delete = pick(&mut seg.delete_ns, &mut probes.delete_ns);
    // ANALYZE repeats the same work, so host contention can only add to
    // it: the fastest round trip is the steadiest estimate of its cost.
    let analyze_ns = set_up
        .analyze_ns
        .iter()
        .chain(&seg.analyze_ns)
        .chain(&probes.analyze_ns)
        .min()
        .copied()
        .unwrap_or(0);
    let stats_bytes = if seg.stats_bytes > 0 {
        seg.stats_bytes
    } else {
        set_up.stats_bytes
    };
    let values = [
        median_f64(&set_up.setup_s),
        seg.qps(),
        chunked_quantile(&estimate, 0.5) / 1e3,
        chunked_quantile(&after_write, 0.5) / 1e3,
        chunked_quantile(&batch, 0.5) / 1e6,
        chunked_quantile(&insert, 0.5) / 1e3,
        chunked_quantile(&delete, 0.5) / 1e3,
        analyze_ns as f64 / 1e6,
        rel_error,
        stats_bytes as f64,
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// Build, host and input stamp (one JSON object).
fn stamp(opts: &Options, plan: &Plan) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| String::from("unknown"));
    // One client thread plus the server's connection thread; clamped to
    // the host and reported, never silently oversubscribed.
    let requested = 2usize;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = requested.min(host_cpus);
    if requested > host_cpus {
        eprintln!(
            "perfbench: warning: only {host_cpus} CPUs available, {requested} threads share them"
        );
    }
    let (qsize, pool) = match opts.kind {
        Kind::EstimateDistinct => (plan.estimate_qsize, plan.estimate_pool),
        Kind::BatchDistinct => (plan.batch_qsize, plan.batch_pool * plan.batch_size),
        Kind::MixedZipf => (plan.estimate_qsize, plan.mixed_pool),
    };
    format!(
        "{{\"stamp\": {{\"git_rev\": \"{rev}\", \"cargo_features\": \"default\", \
         \"simd_level\": \"{}\", \"profile\": \"{}\", \"host_cpus\": {host_cpus}, \
         \"threads_requested\": {requested}, \"threads_effective\": {effective}, \
         \"table_threads\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"rows\": {}, \"buckets\": {BUCKETS}, \"regions\": {REGIONS}, \
         \"qsize\": {qsize}, \"batch_size\": {}, \"zipf_theta\": {}, \"pool_size\": {pool}}}}}",
        minskew_core::simd_level(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        setup::table_options().threads,
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        plan.rows,
        plan.batch_size,
        plan.zipf_theta,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-test"] {
        return selftest::run_self_test();
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload \
                 <estimate-distinct|batch-distinct|mixed-zipf> --seed <n> --seconds <s> \
                 --trace <0|1>\n       perfbench --self-test"
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full();
    match run(&opts, &plan, Faults::default()) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("{:>36} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", stamp(&opts, &plan));
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
