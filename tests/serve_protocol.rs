//! Golden tests for the serving wire protocol: pinned request/response
//! byte transcripts for every verb, error replies mapped onto the CLI's
//! exit-code taxonomy (2 usage, 3 I/O, 4 malformed data, 5 corrupt stats,
//! 6 build failure), and a malformed-input fuzz pass proving that junk
//! always yields a typed `ERR` reply — the server never panics, never
//! wedges a connection, and keeps serving afterwards.
//!
//! The fixture data is chosen so estimates are trivially exact (`OK 4`),
//! making the estimate replies themselves part of the golden transcript.
//! Under `--features exhaustive` the whole shared corpus in `tests/common`
//! also goes through the wire, as `ESTIMATE`s and as `BATCH`es.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use minskew::prelude::*;

/// One live connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Sends raw bytes (caller includes the newline) and reads one reply.
    fn send_raw(&mut self, bytes: &[u8]) -> String {
        self.reader
            .get_mut()
            .write_all(bytes)
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end_matches('\n').to_string()
    }

    fn send(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes())
    }

    /// Sends a framed verb (`FLIGHT` / `METRICS`): reads the `OK <k>`
    /// header, then exactly `k` body lines. Returns `(header, body)`.
    fn send_framed(&mut self, line: &str) -> (String, Vec<String>) {
        let header = self.send(line);
        let count = header
            .strip_prefix("OK ")
            .and_then(|rest| rest.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = Vec::with_capacity(count);
        for _ in 0..count {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read frame line");
            body.push(line.trim_end_matches('\n').to_string());
        }
        (header, body)
    }
}

fn start_server() -> ServerHandle {
    serve(Arc::new(SpatialCatalog::new()), ServeOptions::default()).expect("bind server")
}

#[test]
fn golden_transcript_for_every_verb() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    let dir = std::env::temp_dir().join(format!("minskew-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("t.snap").display().to_string();

    // Structural verbs, pinned byte for byte.
    assert_eq!(c.send("PING"), "OK pong");
    assert_eq!(c.send("TABLES"), "OK 0");
    assert_eq!(c.send("CREATE t buckets=4"), "OK created t");
    assert_eq!(
        c.send("CREATE t"),
        "ERR 2 usage: table \"t\" already exists"
    );
    assert_eq!(
        c.send("CREATE u shards=2"),
        "ERR 2 usage: unknown option \"shards\""
    );
    assert_eq!(c.send("TABLES"), "OK 1 t");

    // Four identical rects: every estimate below is exact, so the numeric
    // replies are part of the golden transcript.
    for id in 0..4 {
        assert_eq!(c.send("INSERT t 0 0 10 10"), format!("OK {id}"));
    }
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "no-stats fallback");
    assert_eq!(c.send("ESTIMATE t 20 20 30 30"), "OK 0");
    assert_eq!(c.send("ANALYZE t"), "OK analyzed t buckets=1 fallback=none");
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "histogram estimate");
    assert_eq!(c.send("BATCH t 2 0 0 10 10 20 20 30 30"), "OK 4 0");
    // No-arg STATS carries the request-latency quantiles; the counts and
    // bounds depend on wall-clock timing, so pin shape rather than bytes.
    let stats = c.send("STATS");
    assert!(
        stats.starts_with("OK {\"tables\":1,\"active_connections\":1,\"request_ns\":{\"count\":"),
        "{stats}"
    );
    for key in ["\"p50\":", "\"p95\":", "\"p99\":"] {
        assert!(stats.contains(key), "{stats}");
    }
    assert_eq!(
        c.send("STATS t"),
        "OK {\"table\":\"t\",\"rows\":4,\"buckets\":1,\
         \"generation\":5,\"fallback\":\"none\",\"maintenance\":\"reanalyze\",\
         \"staleness\":0.000000}"
    );
    // The three computed wire ESTIMATEs above (two on the fallback, one
    // after ANALYZE flushed the reader cache) are the audited sample; the
    // BATCH and the cache hit are not. Every one of them is exact.
    let audit = if minskew_obs::enabled() {
        "accuracy: 0.0000 avg rel error over 3 sampled queries (3 observed)"
    } else {
        "accuracy: no sampled queries yet"
    };
    assert_eq!(
        c.send("MAINTAIN t"),
        format!("OK maintained t mode=reanalyze {audit}; action: none"),
        "fresh statistics need no repair"
    );
    assert_eq!(
        c.send("MAINTAIN t MODE refine"),
        "OK maintenance t mode=refine"
    );
    assert_eq!(
        c.send("MAINTAIN t MODE bogus"),
        "ERR 2 usage: unknown maintenance mode \"bogus\" (expected off, reanalyze, or refine)"
    );
    assert_eq!(
        c.send(&format!("SNAPSHOT t SAVE {snap}")),
        "OK saved t buckets=1"
    );
    assert_eq!(
        c.send(&format!("SNAPSHOT t LOAD {snap}")),
        "OK loaded t buckets=1"
    );
    assert_eq!(c.send("DELETE t 3"), "OK deleted 3");
    assert_eq!(c.send("DELETE t 9"), "ERR 2 usage: unknown rowid 9");
    assert_eq!(c.send("DROP t"), "OK dropped t");
    assert_eq!(c.send("TABLES"), "OK 0");

    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

#[test]
fn error_replies_cover_the_exit_code_taxonomy() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    let dir = std::env::temp_dir().join(format!("minskew-proto-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");

    assert_eq!(c.send("CREATE t"), "OK created t");
    assert_eq!(c.send("INSERT t 0 0 10 10"), "OK 0");

    // 2 — usage: unknown verbs/tables, malformed queries, empty requests,
    // and SAVE with no statistics installed.
    assert_eq!(c.send("FROB"), "ERR 2 usage: unknown verb \"FROB\"");
    assert_eq!(c.send(""), "ERR 2 usage: empty request");
    assert_eq!(
        c.send("ESTIMATE ghost 0 0 1 1"),
        "ERR 2 usage: unknown table \"ghost\""
    );
    assert_eq!(
        c.send("ESTIMATE t nan 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite"
    );
    assert_eq!(
        c.send("ESTIMATE t 1e400 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite",
        "overflow to infinity is rejected, not folded"
    );
    let save_no_stats = c.send(&format!("SNAPSHOT t SAVE {}", dir.join("x").display()));
    assert!(save_no_stats.starts_with("ERR 2 "), "{save_no_stats}");

    // 3 — I/O: loading a snapshot that does not exist.
    let missing = c.send(&format!(
        "SNAPSHOT t LOAD {}",
        dir.join("missing").display()
    ));
    assert!(missing.starts_with("ERR 3 "), "{missing}");

    // 4 — malformed data: unparsable row payloads.
    assert_eq!(c.send("INSERT t a b c d"), "ERR 4 bad coordinate \"a\"");

    // 5 — corrupt statistics: a snapshot file full of garbage.
    let garbage = dir.join("garbage.snap");
    std::fs::write(&garbage, b"this is not a snapshot container").expect("write");
    let corrupt = c.send(&format!("SNAPSHOT t LOAD {}", garbage.display()));
    assert!(corrupt.starts_with("ERR 5 "), "{corrupt}");

    // 6 — build failure: table options the engine rejects.
    let build = c.send("CREATE bad buckets=0");
    assert!(build.starts_with("ERR 6 "), "{build}");

    // The connection survived every error class.
    assert_eq!(c.send("PING"), "OK pong");
    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

#[test]
fn malformed_input_fuzz_yields_typed_errors_and_never_wedges() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");

    let fuzz: Vec<Vec<u8>> = vec![
        b"\x00\x01\x02\xff\xfe binary junk".to_vec(),
        b"\xc3\x28 invalid utf8".to_vec(), // overlong/invalid UTF-8 sequence
        b"ESTIMATE".to_vec(),
        b"ESTIMATE t".to_vec(),
        b"ESTIMATE t 1 2 3".to_vec(),
        b"ESTIMATE t 1 2 3 4 5".to_vec(),
        b"BATCH t -1".to_vec(),
        b"BATCH t 999999 0 0 1 1".to_vec(),
        b"BATCH t 2 0 0 1 1".to_vec(), // count/coordinate mismatch
        b"INSERT t 1e99999 0 1 1".to_vec(),
        b"DELETE t not-a-number".to_vec(),
        b"SNAPSHOT t TWIST /tmp/x".to_vec(),
        b"CREATE x buckets=huge".to_vec(),
        b"CREATE x frobnicate=1".to_vec(),
        b"create-with-trailing-space ".to_vec(),
        " \t ".as_bytes().to_vec(),
        vec![b'A'; 4096], // one long unknown verb
        // Malformed trace ids: empty token, illegal characters, over-long
        // token. All must yield a typed error with NO `TID=` echo.
        b"TID= PING".to_vec(),
        b"TID=bad!token PING".to_vec(),
        b"TID=qu\"ote PING".to_vec(),
        {
            let mut long = b"TID=".to_vec();
            long.extend(std::iter::repeat_n(b'a', 65));
            long.extend(b" PING");
            long
        },
    ];
    for (i, case) in fuzz.iter().enumerate() {
        let mut request = case.clone();
        request.push(b'\n');
        let reply = c.send_raw(&request);
        assert!(
            reply.starts_with("ERR "),
            "fuzz case {i} must yield a typed error (and malformed trace \
             ids must never be echoed), got {reply:?}"
        );
        // The connection still serves normal traffic: no wedge, no panic.
        assert_eq!(
            c.send("PING"),
            "OK pong",
            "fuzz case {i} wedged the connection"
        );
    }

    // A second connection is unaffected by the first one's abuse.
    let mut c2 = Client::connect(handle.addr());
    assert_eq!(c2.send("TABLES"), "OK 1 t");
    handle.shutdown();
}

#[test]
fn trace_ids_and_observability_verbs_round_trip() {
    // A server whose wire flight recorder samples every estimate, so the
    // FLIGHT drain below is deterministic.
    let catalog = Arc::new(SpatialCatalog::new());
    let armed = TableOptions {
        flight_sample: 1,
        metrics_sampling: 1,
        ..TableOptions::default()
    };
    let handle = serve(
        Arc::clone(&catalog),
        ServeOptions {
            table_options: armed,
            ..ServeOptions::default()
        },
    )
    .expect("bind server");
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");
    for id in 0..4 {
        assert_eq!(c.send("INSERT t 0 0 10 10"), format!("OK {id}"));
    }
    assert_eq!(c.send("ANALYZE t"), "OK analyzed t buckets=1 fallback=none");

    // Valid trace ids echo on success and on typed errors alike, and the
    // un-tagged replies stay byte-identical to the golden transcript.
    assert_eq!(c.send("TID=q1 PING"), "TID=q1 OK pong");
    assert_eq!(
        c.send("TID=q1 FROB"),
        "TID=q1 ERR 2 usage: unknown verb \"FROB\""
    );
    assert_eq!(c.send("TID=q2 ESTIMATE t 0 0 10 10"), "TID=q2 OK 4");
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "no tag, no echo");
    // The full token alphabet survives the round trip.
    assert_eq!(c.send("TID=a.Z-9_x PING"), "TID=a.Z-9_x OK pong");

    // EXPLAIN: the headline field is byte-identical to the ESTIMATE reply
    // (both print the same bits through the same formatter).
    let explain = c.send("EXPLAIN t 0 0 10 10");
    assert!(explain.starts_with("OK {\"estimate\":4,"), "{explain}");
    for key in ["\"path\":", "\"cache\":", "\"generation\":", "\"detail\":"] {
        assert!(explain.contains(key), "{explain}");
    }
    assert_eq!(
        c.send("EXPLAIN t nan 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite"
    );

    // FLIGHT: framed `OK <k>` + k pinned JSONL lines, carrying the trace
    // id stamped on the sampled ESTIMATE above.
    let (header, body) = c.send_framed("FLIGHT");
    if minskew_obs::enabled() {
        assert!(
            !body.is_empty(),
            "sample-every recorder drained nothing: {header}"
        );
        assert_eq!(header, format!("OK {}", body.len()));
        for line in &body {
            assert!(
                line.starts_with("{\"schema\":\"minskew-obs/flight-v1\","),
                "{line}"
            );
        }
        assert!(
            body.iter().any(|l| l.contains("\"tid\":\"q2\"")),
            "trace id q2 missing from flight records: {body:?}"
        );
        // A bounded drain returns at most that many records.
        let (_, bounded) = c.send_framed("FLIGHT 1");
        assert_eq!(bounded.len(), 1);
    } else {
        assert_eq!(header, "OK 0", "noop build records nothing");
    }
    // The per-table recorder drains through the same verb.
    let (table_header, _) = c.send_framed("FLIGHT t");
    assert!(table_header.starts_with("OK "), "{table_header}");
    assert!(
        c.send("FLIGHT ghost").starts_with("ERR 2 "),
        "unknown table"
    );

    // METRICS: framed registry scrape in both formats, server and table.
    let (header, body) = c.send_framed("METRICS");
    assert!(header.starts_with("OK "), "{header}");
    assert_eq!(body.first().map(String::as_str), Some("{"));
    let doc = body.join("\n");
    assert!(doc.contains("\"schema\": \"minskew-obs/v1\""), "{doc}");
    if minskew_obs::enabled() {
        assert!(doc.contains("serve.verb.ping"), "{doc}");
        assert!(doc.contains("serve.flight.recorded"), "{doc}");
    }
    let (_, text_body) = c.send_framed("METRICS text");
    if minskew_obs::enabled() {
        assert!(
            text_body.iter().any(|l| l.starts_with("serve.requests")),
            "{text_body:?}"
        );
    }
    let (_, table_body) = c.send_framed("METRICS t json");
    if minskew_obs::enabled() {
        assert!(
            table_body.iter().any(|l| l.contains("engine.")),
            "table scrape must expose engine metrics: {table_body:?}"
        );
    }
    assert!(c.send("METRICS t yaml").starts_with("ERR 2 "), "bad format");
    assert!(
        c.send("METRICS ghost").starts_with("ERR 2 "),
        "unknown table"
    );

    // The connection survived the whole tour.
    assert_eq!(c.send("PING"), "OK pong");
    handle.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server_cleanly() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");
    assert_eq!(c.send("INSERT t 0 0 5 5"), "OK 0");
    assert_eq!(c.send("SHUTDOWN"), "OK bye");
    assert!(handle.shutdown_requested());
    // join() drains the accept loop and every connection thread, then
    // returns the final metrics: the request counters must have seen us
    // (unless minskew-obs is compiled to no-ops, where nothing records).
    let metrics = handle.join();
    let text = metrics.to_text();
    if minskew_obs::enabled() {
        assert!(text.contains("serve.requests"), "{text}");
        assert!(text.contains("serve.verb.shutdown"), "{text}");
    }
    // New connections are refused or go unanswered after shutdown.
    assert!(
        TcpStream::connect_timeout(
            &"127.0.0.1:1".parse().expect("addr"),
            std::time::Duration::from_millis(10),
        )
        .is_err(),
        "sanity: connecting to a dead port errors"
    );
}

#[test]
fn batch_replies_preserve_request_order_and_library_bits() {
    // BATCH evaluates in Morton order of the query centres; the wire reply
    // must nevertheless come back in **request** order, with every value
    // bit-identical to the library. The query mix is scattered across the
    // extent (distinct answers) and reversed, so request order is far from
    // Morton order — any order leak would misalign the replies.
    let data = minskew_datagen::charminar_with(1_500, 79);
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let handle = serve(catalog, ServeOptions::default()).expect("bind");
    let mut c = Client::connect(handle.addr());
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    let mut queries = Vec::new();
    for i in 0..16 {
        let f = i as f64 / 16.0;
        let x = mbr.lo.x + f * w * 0.5;
        let y = mbr.lo.y + (1.0 - f) * h * 0.5;
        let size = 0.1 + 0.05 * i as f64;
        queries.push(Rect::new(x, y, x + size * w, y + size * h));
    }
    queries.reverse();
    let expected: Vec<f64> = {
        let table = entry.table();
        queries.iter().map(|q| table.estimate(q)).collect()
    };
    let distinct: std::collections::HashSet<u64> = expected.iter().map(|v| v.to_bits()).collect();
    assert!(
        distinct.len() > 8,
        "query mix must produce distinct answers for the order check: {expected:?}"
    );
    let mut line = format!("BATCH roads {}", queries.len());
    for q in &queries {
        line.push_str(&format!(" {} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y));
    }
    let reply = c.send(&line);
    let values: Vec<f64> = reply
        .strip_prefix("OK ")
        .expect("batch reply")
        .split(' ')
        .map(|t| t.parse().expect("parse batch value"))
        .collect();
    assert_eq!(values.len(), expected.len(), "reply arity: {reply:?}");
    for (i, (got, want)) in values.iter().zip(&expected).enumerate() {
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "batch reply {i} out of order or off by bits: reply {reply:?}"
        );
    }
    handle.shutdown();
}

/// The wire form of a query's coordinates. `Display` prints the shortest
/// decimal that round-trips, so the server parses back the exact bits.
fn coords(q: &Rect) -> String {
    format!("{} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y)
}

/// The values of an `OK <v1> <v2> ...` reply.
fn parse_ok(reply: &str) -> Vec<f64> {
    reply
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("expected an OK reply, got {reply:?}"))
        .split(' ')
        .map(|t| t.parse().expect("parse estimate"))
        .collect()
}

/// Sends every query to `table` as an `ESTIMATE`, then all of them as one
/// `BATCH`, and asserts each reply carries exactly the bits `expected`
/// gives for the rectangle the server parses. A query with a non-finite
/// coordinate must be refused with a usage error, alone or in a batch.
fn assert_wire_bits(
    c: &mut Client,
    table: &str,
    queries: &[Rect],
    expected: impl Fn(&Rect) -> f64,
    context: &str,
) {
    let mut finite = Vec::new();
    let mut want = Vec::new();
    for q in queries {
        let reply = c.send(&format!("ESTIMATE {table} {}", coords(q)));
        match Rect::try_new(q.lo.x, q.lo.y, q.hi.x, q.hi.y) {
            Ok(parsed) => {
                let value = expected(&parsed);
                assert_eq!(
                    parse_ok(&reply)[0].to_bits(),
                    value.to_bits(),
                    "ESTIMATE changed the bits: {context} q={q} want={value} reply={reply:?}"
                );
                finite.push(*q);
                want.push(value);
            }
            Err(_) => assert!(
                reply.starts_with("ERR 2 "),
                "non-finite ESTIMATE not refused: {context} q={q} reply={reply:?}"
            ),
        }
    }
    let batch = |qs: &[Rect]| {
        let body: Vec<String> = qs.iter().map(coords).collect();
        format!("BATCH {table} {} {}", qs.len(), body.join(" "))
    };
    let reply = c.send(&batch(&finite));
    assert_eq!(
        common::bits(&parse_ok(&reply)),
        common::bits(&want),
        "BATCH changed the bits or the order: {context}"
    );
    if finite.len() < queries.len() {
        let reply = c.send(&batch(queries));
        assert!(
            reply.starts_with("ERR 2 "),
            "BATCH with a non-finite query not refused: {context} reply={reply:?}"
        );
    }
}

#[test]
fn estimates_over_the_wire_are_bit_identical_to_the_library() {
    // The wire uses shortest-round-trip f64 formatting, so parsing the
    // reply must recover exactly the bits the engine computed.
    let data = minskew_datagen::charminar_with(1_500, 61);
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let handle = serve(catalog.clone(), ServeOptions::default()).expect("bind");
    let mut c = Client::connect(handle.addr());
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    let queries: Vec<Rect> = (0..25)
        .map(|i| {
            let f = i as f64 / 25.0;
            let (x, y) = (mbr.lo.x + f * w * 0.8, mbr.lo.y + (1.0 - f) * h * 0.8);
            Rect::new(x, y, x + 0.1 * w, y + 0.1 * h)
        })
        .collect();
    {
        let table = entry.table();
        let library = |q: &Rect| table.estimate(q);
        assert_wire_bits(&mut c, "roads", &queries, library, "charminar");
    }
    if common::EXHAUSTIVE {
        // The whole corpus: every histogram is installed into a table
        // holding its dataset's rows, and every wire reply must equal the
        // reference fold clamped to [0, rows] — which the library must
        // serve too.
        for (name, data) in common::datasets(common::SCALE) {
            let entry = catalog
                .create(name, TableOptions::default())
                .expect("create");
            for r in data.rects() {
                entry.table().insert(*r);
            }
            let mbr = data.stats().mbr;
            for (context, hist) in common::histograms(name, &data) {
                entry.table().load_stats(&hist.to_bytes());
                let table = entry.table();
                let rows = table.len() as f64;
                let oracle = |q: &Rect| {
                    let raw = hist.estimate_count_reference(q);
                    let served = if raw.is_finite() {
                        raw.clamp(0.0, rows)
                    } else {
                        0.0
                    };
                    assert_eq!(
                        table.estimate(q).to_bits(),
                        served.to_bits(),
                        "library diverged from the clamped reference: {context} q={q}"
                    );
                    served
                };
                let queries = common::adversarial_queries(&hist, mbr);
                assert_wire_bits(&mut c, name, &queries, oracle, &context);
            }
        }
    }
    handle.shutdown();
}

/// The value of counter `name` in a `METRICS <t> json` body (0 if absent).
fn json_counter(body: &[String], name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let value = |line: &String| {
        line.trim()
            .strip_prefix(&key)?
            .trim_end_matches(',')
            .parse()
            .ok()
    };
    body.iter().find_map(value).unwrap_or(0)
}

#[test]
fn wire_estimates_feed_the_tables_accuracy_monitor_and_metrics() {
    // Every connection's reader reports into the table's one sink: the
    // accuracy reservoir MAINTAIN audits and the counters METRICS scrapes
    // see wire traffic exactly as they see library traffic.
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t buckets=20"), "OK created t");
    for i in 0..300 {
        let (x, y) = (f64::from(i % 20) * 10.0, f64::from(i / 20) * 10.0);
        let reply = c.send(&format!("INSERT t {x} {y} {} {}", x + 6.0, y + 6.0));
        assert_eq!(reply, format!("OK {i}"));
    }
    assert!(c.send("ANALYZE t").starts_with("OK analyzed t "));
    // Audit without repair, so no install flushes the caches mid-test.
    assert_eq!(c.send("MAINTAIN t MODE off"), "OK maintenance t mode=off");

    // 40 distinct queries, each sent 5 times: 40 computed, 160 cache hits.
    const DISTINCT: usize = 40;
    const REPEATS: usize = 5;
    let query = |k: usize| {
        let s = k as f64 * 4.0;
        format!("ESTIMATE t {s} {} {} {}", s / 2.0, s + 35.0, s / 2.0 + 50.0)
    };
    let n = (DISTINCT * REPEATS) as u64;
    for _ in 0..REPEATS {
        for k in 0..DISTINCT {
            assert!(c.send(&query(k)).starts_with("OK "));
        }
    }
    let maintained = c.send("MAINTAIN t");
    let (_, metrics) = c.send_framed("METRICS t json");
    if minskew_obs::enabled() {
        assert!(
            maintained.contains("over 40 sampled queries (40 observed)"),
            "MAINTAIN must audit the wire-served queries: {maintained}"
        );
        assert_eq!(json_counter(&metrics, "engine.query.calls"), n);
        let hits = json_counter(&metrics, "engine.cache.hits");
        let misses = json_counter(&metrics, "engine.cache.misses");
        assert_eq!((hits, misses), (n - DISTINCT as u64, DISTINCT as u64));
    } else {
        assert!(
            maintained.contains("no sampled queries yet"),
            "{maintained}"
        );
    }

    // A second connection's reader has a cold cache of its own but feeds
    // the same sink: its computed queries join the same reservoir.
    let mut c2 = Client::connect(handle.addr());
    for k in 0..DISTINCT {
        assert!(c2.send(&query(k)).starts_with("OK "));
    }
    let maintained = c2.send("MAINTAIN t");
    let (_, metrics) = c.send_framed("METRICS t json");
    if minskew_obs::enabled() {
        assert!(
            maintained.contains("over 80 sampled queries (80 observed)"),
            "both connections must feed one reservoir: {maintained}"
        );
        let calls = json_counter(&metrics, "engine.query.calls");
        let hits = json_counter(&metrics, "engine.cache.hits");
        let misses = json_counter(&metrics, "engine.cache.misses");
        assert_eq!(calls, n + DISTINCT as u64);
        assert_eq!(hits + misses, calls);
        assert_eq!(misses, 2 * DISTINCT as u64);
    }
    handle.shutdown();
}
