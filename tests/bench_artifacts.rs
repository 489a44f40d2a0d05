//! The benchmark artifacts at the workspace root back the numbers the docs
//! cite, so each must come from a full-scale run. A quick smoke run
//! (`MINSKEW_QUICK=1`) writes under `target/bench-smoke/` instead.

use std::path::Path;

#[test]
fn committed_bench_artifacts_are_full_scale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(root).expect("read the workspace root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        seen += 1;
        let json: String = std::fs::read_to_string(&path)
            .expect("readable artifact")
            .split_whitespace()
            .collect();
        assert!(
            !json.contains("\"quick\":true"),
            "{name} is a quick smoke run; regenerate it at full scale"
        );
    }
    assert!(seen > 0, "no BENCH_*.json at the workspace root");
}

#[test]
fn committed_obs_artifact_records_the_flight_recorder_overhead() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_obs.json");
    let json = std::fs::read_to_string(&path).expect("BENCH_obs.json is committed");
    assert!(
        json.contains("\"recorder_overhead_pct\""),
        "BENCH_obs.json lacks the recorder_overhead_pct column; regenerate it with \
         `cargo bench -p minskew-bench --bench obs_overhead`"
    );
}
