//! `served_mix`: a seeded mix of short parametrized statements sent over
//! TCP to an in-process `wf_bench::server` with `repro serve` defaults, by
//! a closed loop of two connections.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wf_bench::server::{run_serve, ServeOptions};
use wfopt::common::Row;
use wfopt::core::planner::Scheme;
use wfopt::datagen::{WsColumn, WsConfig};
use wfopt::storage::SpillBackendKind;
use wfopt::{Database, DatabaseConfig};

use crate::engine::{self, call_timings, Exec};
use crate::oracle::{Call, Frame, Func, Statement};
use crate::report::{Report, Timed};
use crate::rng::Rng;
use crate::stats::{beyond, median};
use crate::{Args, SETUP_REPS};

/// Rows of the served table (generated by the server with the generator's
/// default seed; the mix, not the table, comes from `--seed`).
const ROWS: usize = 20_000;
/// Client connections of the closed loop (= cores of the reference host).
const CONNECTIONS: usize = 2;
/// Statements every end-to-end run makes at least, so that at least ten
/// samples lie beyond p99.
const MIN_STATEMENTS: usize = 1_100;
/// Statements of the in-process per-layer passes.
const LAYER_STATEMENTS: usize = 200;
/// Statement classes of the mix, in metric order.
const CLASSES: [&str; 4] = [
    "rank_where",
    "rows_agg",
    "warehouse_row_number",
    "two_window",
];

fn options(port: u16) -> ServeOptions {
    ServeOptions {
        port,
        rows: ROWS,
        threads: 2,
        max_concurrent: 4,
        per_query_blocks: 64,
    }
}

/// The server's table, generated the way the server generates it.
fn table_config() -> WsConfig {
    WsConfig {
        rows: ROWS,
        ..WsConfig::default()
    }
}

/// The in-process twin of the server's database, every field pinned to
/// what `repro serve` resolves to under the pinned environment (no
/// queue timeout: the server waits indefinitely).
fn twin_config() -> DatabaseConfig {
    let o = options(0);
    DatabaseConfig::new()
        .scheme(Scheme::Cso)
        .memory_blocks(o.per_query_blocks * o.max_concurrent as u64)
        .max_concurrent(o.max_concurrent)
        .per_query_blocks(o.per_query_blocks)
        .queue_depth(o.max_concurrent)
        .worker_threads(1)
        .spill_backend(SpillBackendKind::Mem)
        .compress_spill(false)
        .prefetch_blocks(0)
}

/// The statement stream of one connection.
struct Mix(Rng);

impl Mix {
    fn new(seed: u64, connection: usize) -> Mix {
        Mix(Rng::new(
            seed ^ (connection as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        ))
    }

    fn next(&mut self) -> (usize, Statement) {
        use WsColumn::{OrderNumber, Quantity, SoldDate, SoldTime, Warehouse};
        let r = &mut self.0;
        let pick = r.below(100);
        let aggs = [
            Func::Sum(Quantity),
            Func::Count,
            Func::Min(Quantity),
            Func::Avg(Quantity),
        ];
        if pick < 35 {
            let d = r.below(1_800 - 4) as i64;
            (
                0,
                Statement {
                    filter: Some((SoldDate, d, d + 3)),
                    calls: vec![Call {
                        alias: "r",
                        func: Func::Rank,
                        partition: vec![Warehouse],
                        order: vec![(Quantity, true)],
                        frame: Frame::Default,
                    }],
                    projection: Some(vec![OrderNumber, Warehouse, Quantity]),
                },
            )
        } else if pick < 65 {
            let i = r.below(20_000 - 200) as i64;
            let func = aggs[r.below(3) as usize];
            let frame = [Frame::Rows(3, 0), Frame::Rows(2, 2)][r.below(2) as usize];
            (
                1,
                Statement {
                    filter: Some((WsColumn::Item, i, i + 199)),
                    calls: vec![Call {
                        alias: "a",
                        func,
                        partition: vec![Warehouse],
                        order: vec![(SoldTime, false), (OrderNumber, false)],
                        frame,
                    }],
                    projection: Some(vec![OrderNumber, Warehouse, SoldTime, Quantity]),
                },
            )
        } else if pick < 95 {
            let t = r.below(43_200 - 400) as i64;
            (
                2,
                Statement {
                    filter: Some((SoldTime, t, t + 399)),
                    calls: vec![Call {
                        alias: "rn",
                        func: Func::RowNumber,
                        partition: vec![Warehouse],
                        order: vec![(SoldTime, false), (OrderNumber, false)],
                        frame: Frame::Default,
                    }],
                    projection: Some(vec![OrderNumber, Warehouse, SoldTime]),
                },
            )
        } else {
            let d = r.below(1_800 - 90) as i64;
            let func = aggs[r.below(4) as usize];
            (
                3,
                Statement {
                    filter: Some((SoldDate, d, d + 89)),
                    calls: vec![
                        Call {
                            alias: "prev",
                            func: Func::Lag(Quantity),
                            partition: vec![Warehouse],
                            order: vec![(SoldDate, false), (OrderNumber, false)],
                            frame: Frame::Default,
                        },
                        Call {
                            alias: "a",
                            func,
                            partition: vec![Warehouse],
                            order: vec![(SoldDate, false)],
                            frame: Frame::RangePreceding(7),
                        },
                    ],
                    projection: Some(vec![OrderNumber, Warehouse, SoldDate, Quantity]),
                },
            )
        }
    }
}

/// One line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// One response: the status line and everything up to the `.` terminator.
struct Response {
    status: String,
    body: String,
    bytes: usize,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut bytes = status.len();
        let mut body = String::new();
        if status.starts_with("ok") && status.trim_end() != "ok bye" {
            loop {
                let n = body.len();
                if self.reader.read_line(&mut body)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                bytes += body.len() - n;
                if &body[n..] == ".\n" {
                    body.truncate(n);
                    break;
                }
            }
        }
        Ok(Response {
            status: status.trim_end().to_string(),
            body,
            bytes,
        })
    }
}

/// A running in-process server.
struct Server {
    port: u16,
    handle: JoinHandle<bool>,
}

impl Server {
    /// Start a server and wait until it answers `.stats`; returns it with
    /// the seconds that took.
    fn start() -> (Server, f64) {
        let port = TcpListener::bind(("127.0.0.1", 0))
            .and_then(|l| l.local_addr())
            .expect("a free local port")
            .port();
        let start = Instant::now();
        let handle = thread::spawn(move || run_serve(&options(port)));
        loop {
            if let Ok(mut c) = Conn::open(port) {
                if c.request(".stats")
                    .map(|r| r.status == "ok stats")
                    .unwrap_or(false)
                {
                    break;
                }
            }
            assert!(
                !handle.is_finished(),
                "server on port {port} exited during start"
            );
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "server did not start"
            );
            thread::sleep(Duration::from_millis(1));
        }
        (Server { port, handle }, start.elapsed().as_secs_f64())
    }

    /// Admission counters from `.stats`.
    fn stats(&self) -> Vec<(String, f64)> {
        let r = Conn::open(self.port)
            .and_then(|mut c| c.request(".stats"))
            .expect(".stats");
        r.body
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    }

    /// `.shutdown`, poke the accept loop, and join.
    fn stop(self) {
        let r = Conn::open(self.port).and_then(|mut c| c.request(".shutdown"));
        assert_eq!(r.expect(".shutdown").status, "ok bye");
        drop(TcpStream::connect(("127.0.0.1", self.port)));
        assert!(self.handle.join().expect("server thread"), "server failed");
    }
}

/// Server starts per run; `setup_s` is their median. A start takes tens of
/// milliseconds, so more of them than batch set-ups are cheap.
const SERVER_STARTS: usize = 15;

/// Start `SERVER_STARTS` servers, stopping all but the last. Records
/// `setup_s`.
fn setup(report: &mut Report) -> Server {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SERVER_STARTS {
        if let Some(s) = last.take() {
            Server::stop(s);
        }
        let (server, secs) = Server::start();
        times.push(secs);
        last = Some(server);
    }
    report.set("setup_s", median(&times), "s", times.len());
    last.expect("at least one server")
}

/// One statement as the client saw it, already checked.
struct Sample {
    class: usize,
    latency_ms: f64,
    /// What the server reported, or why the statement failed.
    outcome: Result<Served, String>,
}

/// The server's side of a correct reply.
struct Served {
    /// Client latency minus the wall in the `ok` header.
    wire_ms: f64,
    bytes: usize,
    queue_ms: f64,
}

/// Check one reply against the reference.
fn check(
    statement: &Statement,
    response: std::io::Result<Response>,
    latency_ms: f64,
    rows: &Arc<Vec<Row>>,
) -> Result<Served, String> {
    let sql = statement.sql();
    let r = response.map_err(|e| format!("`{sql}`: connection failed: {e}"))?;
    let fields: Vec<&str> = r.status.split(' ').collect();
    let (Some(&"ok"), Some(wall), Some(queue)) = (fields.first(), fields.get(3), fields.get(4))
    else {
        return Err(format!("`{sql}` failed: {}", r.status));
    };
    let number = |v: &str| {
        v.parse::<f64>()
            .map_err(|e| format!("`{sql}`: bad header {}: {e}", r.status))
    };
    let (wall, queue_ms) = (number(wall)?, number(queue)?);
    let mut lines = r.body.lines();
    let columns: Vec<String> = lines
        .next()
        .unwrap_or("")
        .split('\t')
        .map(str::to_string)
        .collect();
    let cells: Vec<Vec<String>> = lines
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect();
    statement
        .expected(Arc::clone(rows))
        .check_text(&columns, &cells)
        .map_err(|e| format!("`{sql}` returned a wrong result: {e}"))?;
    Ok(Served {
        wire_ms: latency_ms - wall,
        bytes: r.bytes,
        queue_ms,
    })
}

/// The closed loop: every connection sends its next statement when the
/// previous reply is complete and checked, until `seconds` have passed and
/// at least `min_statements` were sent. Checking happens between the
/// timed requests, so it is the loop's think time.
fn closed_loop(
    port: u16,
    seed: u64,
    seconds: f64,
    min_statements: usize,
    rows: &Arc<Vec<Row>>,
) -> (Vec<Sample>, f64) {
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    let samples = thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let sent = &sent;
                s.spawn(move || {
                    let mut conn = Conn::open(port).expect("connect to the server");
                    let mut mix = Mix::new(seed, c);
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds
                        || sent.load(Ordering::Relaxed) < min_statements
                    {
                        let (class, statement) = mix.next();
                        let sql = statement.sql();
                        let t = Instant::now();
                        let response = conn.request(&sql);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        sent.fetch_add(1, Ordering::Relaxed);
                        let broken = response.is_err();
                        out.push(Sample {
                            class,
                            latency_ms,
                            outcome: check(&statement, response, latency_ms, rows),
                        });
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Count every sample as attempted and every failed one as failed;
/// returns the correct replies.
fn tally<'a>(samples: &'a [Sample], report: &mut Report) -> Vec<(usize, &'a Served)> {
    let mut ok = Vec::with_capacity(samples.len());
    for s in samples {
        report.attempted += 1;
        match &s.outcome {
            Ok(served) => ok.push((s.class, served)),
            Err(e) => report.fail(e.clone()),
        }
    }
    ok
}

/// The end-to-end run.
pub fn run(args: &Args, report: &mut Report) {
    let rows = table_config().generate().shared_rows();
    let server = setup(report);
    let (samples, elapsed) =
        closed_loop(server.port, args.seed, args.seconds, MIN_STATEMENTS, &rows);
    server.stop();
    tally(&samples, report);
    let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    // Reported as measured (see `host`), so the host-speed mark is unused.
    let timed: Vec<Timed> = all.iter().map(|&ms| (ms, 0)).collect();
    for (c, name) in CLASSES.iter().enumerate() {
        let w: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.latency_ms)
            .collect();
        println!("class{} = {name}", c + 1);
        report.set(&format!("class{}_p50_ms", c + 1), median(&w), "ms", w.len());
    }
    println!(
        "stmt_p99_ms: {} of {} samples beyond",
        beyond(&all, 0.99),
        all.len()
    );
    report.statements(&timed, elapsed, ROWS as f64);
}

/// The per-layer run: the wire and admission numbers over TCP, then one
/// untraced and one traced in-process pass over the mix's first
/// statements against a twin of the server's database.
pub fn run_layers(args: &Args, report: &mut Report) {
    let (mut gen, mut reg) = (Vec::new(), Vec::new());
    let mut twin = None;
    for _ in 0..SETUP_REPS {
        drop(twin.take());
        let t0 = Instant::now();
        let table = table_config().generate();
        let t1 = Instant::now();
        let db = twin_config().open();
        db.register("web_sales", table)
            .expect("register generated table");
        gen.push((t1 - t0).as_secs_f64());
        reg.push(t1.elapsed().as_secs_f64());
        twin = Some(db);
    }
    let twin: Database = twin.expect("at least one setup");
    report.set("setup.generate_s", median(&gen), "s", gen.len());
    report.set("setup.register_s", median(&reg), "s", reg.len());
    let rows = twin.table("web_sales").expect("registered").shared_rows();

    let server = setup(report);
    let (samples, _) = closed_loop(server.port, args.seed, args.seconds / 2.0, 1, &rows);
    let stats = server.stats();
    server.stop();
    let ok = tally(&samples, report);
    let mean =
        |f: fn(&Served) -> f64| ok.iter().map(|(_, s)| f(s)).sum::<f64>() / ok.len().max(1) as f64;
    report.set("server.wire_ms", mean(|s| s.wire_ms), "ms", ok.len());
    report.set(
        "server.result_bytes",
        mean(|s| s.bytes as f64),
        "bytes",
        ok.len(),
    );
    // Recorded after the in-process passes, which record their own.
    let queue_wait_ms = mean(|s| s.queue_ms);
    for (c, name) in CLASSES.iter().enumerate() {
        let w: Vec<f64> = ok
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, s)| s.wire_ms)
            .collect();
        println!(
            "wire {name}: median {:.3} ms over {} statements",
            median(&w),
            w.len()
        );
    }
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    let admitted = stat("admitted") as usize;
    report.set("admission.rejected", stat("rejected"), "count", admitted);
    report.set("admission.timed_out", stat("timed_out"), "count", admitted);

    let mut mix = Mix::new(args.seed, 0);
    let statements: Vec<(usize, Statement)> = (0..LAYER_STATEMENTS).map(|_| mix.next()).collect();
    let sqls: Vec<String> = statements.iter().map(|(_, s)| s.sql()).collect();
    call_timings(report, &twin, options(0).per_query_blocks, 1, &sqls);
    let pass = |traced: bool, report: &mut Report| -> Vec<Exec> {
        statements
            .iter()
            .zip(&sqls)
            .filter_map(|((_, s), sql)| {
                engine::run(&twin, sql, &s.expected(rows.clone()), traced, report)
            })
            .collect()
    };
    let spill_before = twin.spill_stats();
    let plain = pass(false, report);
    let spill_after = twin.spill_stats();
    let traced = pass(true, report);
    engine::layer_metrics(report, &plain, &traced, &spill_before, &spill_after);
    report.set("admission.queue_wait_ms", queue_wait_ms, "ms", ok.len());
    if plain.len() == statements.len() && traced.len() == statements.len() {
        let labels: Vec<&str> = statements.iter().map(|(c, _)| CLASSES[*c]).collect();
        engine::print_breakdown(&labels, &plain, &traced);
    }
    for label in ["q6", "q7", "q8", "q9"] {
        report.set(&format!("planner.regret.{label}"), 0.0, "ratio", 0);
    }
    report.set("scheduler.speedup_vs_serial", 0.0, "x", 0);
}
