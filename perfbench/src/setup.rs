//! Set-up: the served table (rows loaded in process, statistics built by a
//! wire `ANALYZE`, saved by a wire `SNAPSHOT ... SAVE`) behind an
//! in-process `serve`, and one client connection to it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use minskew_engine::{
    serve, AnalyzeOptions, CatalogEntry, ServeOptions, ServerHandle, SpatialCatalog, TableOptions,
};
use minskew_geom::Rect;

use crate::loadgen::{Client, TABLE};
use crate::stats::ns_since;

/// Min-Skew bucket budget (β) of the served statistics.
pub const BUCKETS: usize = 1000;
/// Min-Skew grid regions (the paper's §5.5 default).
pub const REGIONS: usize = 10_000;

/// Table options: Min-Skew at β = [`BUCKETS`] and [`REGIONS`] regions;
/// everything else (metrics, the 1024-entry reader cache, one worker
/// thread) at its default.
pub fn table_options() -> TableOptions {
    TableOptions {
        analyze: AnalyzeOptions {
            buckets: BUCKETS,
            regions: REGIONS,
            ..AnalyzeOptions::default()
        },
        ..TableOptions::default()
    }
}

/// A running server over one loaded and analyzed table, with the
/// benchmark's connection to it.
pub struct Served {
    pub entry: Arc<CatalogEntry>,
    pub client: Client,
    server: Option<ServerHandle>,
}

impl Served {
    /// Closes the connection and stops the server, waiting for every
    /// server thread to end.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            drop(self.client);
            server.shutdown();
        }
    }
}

/// The served table and what setting it up measured.
pub struct SetUp {
    pub served: Served,
    pub stats: SetUpStats,
}

/// What the set-ups measured.
pub struct SetUpStats {
    /// Wall time of each set-up (load, serve, connect, `ANALYZE`, `SAVE`).
    pub setup_s: Vec<f64>,
    /// Round trip of each set-up `ANALYZE`.
    pub analyze_ns: Vec<u64>,
    /// Size of the snapshot the last set-up saved.
    pub stats_bytes: u64,
}

/// Sends `ANALYZE` and checks the reply's `OK analyzed <t>` prefix (the
/// rest of the reply is not part of the contract). Returns the round trip.
pub fn wire_analyze(client: &mut Client) -> io::Result<u64> {
    let t = Instant::now();
    let reply = client.control(&format!("ANALYZE {TABLE}"))?;
    let ns = ns_since(t);
    if !reply.starts_with(&format!("OK analyzed {TABLE}")) {
        return Err(io::Error::other(format!("ANALYZE failed: {reply:?}")));
    }
    Ok(ns)
}

/// Sends `SNAPSHOT <t> SAVE <path>`, checks the `OK` reply and returns the
/// saved file's size.
pub fn wire_save(client: &mut Client, path: &Path) -> io::Result<u64> {
    let reply = client.control(&format!("SNAPSHOT {TABLE} SAVE {}", path.display()))?;
    if !reply.starts_with("OK saved") {
        return Err(io::Error::other(format!("SNAPSHOT SAVE failed: {reply:?}")));
    }
    Ok(std::fs::metadata(path)?.len())
}

fn set_up_once(rows: &[Rect], snapshot_path: &Path) -> io::Result<(Served, f64, u64, u64)> {
    let t = Instant::now();
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create(TABLE, table_options())
        .map_err(|e| io::Error::other(format!("create table: {e}")))?;
    {
        let mut table = entry.table();
        for r in rows {
            table.insert(*r);
        }
    }
    let server = serve(catalog, ServeOptions::default())?;
    let mut client = Client::connect(server.addr())?;
    let analyze = wire_analyze(&mut client)?;
    let bytes = wire_save(&mut client, snapshot_path)?;
    let secs = t.elapsed().as_secs_f64();
    let served = Served {
        entry,
        client,
        server: Some(server),
    };
    Ok((served, secs, analyze, bytes))
}

/// Sets the served table up `repeats` times (each previous instance is
/// shut down first, outside the timed region) and keeps the last one.
pub fn set_up(rows: &[Rect], repeats: usize, snapshot_path: &Path) -> io::Result<SetUp> {
    let mut setup_s = Vec::new();
    let mut analyze_ns = Vec::new();
    let mut last: Option<(Served, u64)> = None;
    for _ in 0..repeats.max(1) {
        if let Some((served, _)) = last.take() {
            served.shutdown();
        }
        let (served, secs, analyze, bytes) = set_up_once(rows, snapshot_path)?;
        setup_s.push(secs);
        analyze_ns.push(analyze);
        last = Some((served, bytes));
    }
    let (served, stats_bytes) = last.expect("at least one set-up ran");
    Ok(SetUp {
        served,
        stats: SetUpStats {
            setup_s,
            analyze_ns,
            stats_bytes,
        },
    })
}

/// Directory for the snapshot files a run writes: `perfbench/` under the
/// cargo target directory (`CARGO_TARGET_DIR`, else `target`).
pub fn scratch_dir() -> io::Result<PathBuf> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("perfbench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
