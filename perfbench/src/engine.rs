//! Running statements in process through the session API, and folding what
//! each run reports publicly into per-layer numbers.

use std::time::Instant;

use wfopt::core::cost::TableStats;
use wfopt::core::planner::{optimize, Scheme};
use wfopt::core::runtime::ExecEnv;
use wfopt::sql::{bind, parse, Catalog};
use wfopt::storage::BackendStats;
use wfopt::Database;

use crate::oracle::Expected;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Folded};

/// The deterministic counts of one execution. Rows, modeled counters and
/// pool traffic are bit-identical across repetitions by the engine's
/// contract, so these must repeat exactly for one statement and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub comparisons: u64,
    pub key_encodes: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    /// `f64::to_bits` of the modeled time.
    pub modeled_ms_bits: u64,
    /// Pool blocks spilled, from `Database::pool_snapshot` deltas.
    pub pool_written: u64,
    /// Pool blocks read back, from `Database::pool_snapshot` deltas.
    pub pool_read: u64,
}

impl Counts {
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {:016x} {} {}",
            self.comparisons,
            self.key_encodes,
            self.blocks_read,
            self.blocks_written,
            self.modeled_ms_bits,
            self.pool_written,
            self.pool_read
        )
    }
}

/// Step kinds of `ExecReport::step_metrics`, keyed by label prefix.
pub const STEP_KINDS: [&str; 6] = ["scan", "fs", "hs", "ss", "par", "none"];

fn step_kind(label: &str) -> &'static str {
    match label.split(' ').next().unwrap_or("") {
        "scan+filter" => "scan",
        "FS→" => "fs",
        "HS→" => "hs",
        "SS→" => "ss",
        "PAR→" => "par",
        _ => "none",
    }
}

/// One checked execution.
pub struct Exec {
    /// Wall time of the `Session::execute` call, in ms.
    pub wall_ms: f64,
    pub counts: Counts,
    /// Own wall time per step kind (ms), in `STEP_KINDS` order.
    pub step_ms: [f64; 6],
    /// `QueryOutcome::wall` minus the report's wall minus the queue wait:
    /// final ORDER BY, projection and EXPLAIN ANALYZE rendering.
    pub overhead_ms: f64,
    pub queue_wait_ms: f64,
    pub peak_resident_blocks: u64,
    /// The executed plan's chain (`ws FS→ wf1 …`).
    pub chain: String,
    pub trace: Option<Folded>,
}

/// Execute `sql` (traced or not), check the result against `expected`, and
/// count the attempt. `None` when the statement failed or a check did.
pub fn run(
    db: &Database,
    sql: &str,
    expected: &Expected,
    traced: bool,
    report: &mut Report,
) -> Option<Exec> {
    report.attempted += 1;
    let before = db.pool_snapshot();
    let start = Instant::now();
    let result = db.session().with_trace(traced).execute(sql);
    let wall = start.elapsed();
    let after = db.pool_snapshot();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            report.fail(format!("`{sql}` errored: {e}"));
            return None;
        }
    };
    let columns: Vec<String> = outcome
        .table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    if let Err(e) = expected.check_rows(&columns, outcome.table.rows()) {
        report.fail(format!("`{sql}` returned a wrong result: {e}"));
        return None;
    }
    let r = &outcome.report;
    let mut step_ms = [0.0; 6];
    for m in &r.step_metrics {
        let k = STEP_KINDS
            .iter()
            .position(|&k| k == step_kind(&m.label))
            .expect("listed kind");
        step_ms[k] += m.wall.as_secs_f64() * 1e3;
    }
    let trace = match outcome.trace.as_deref().map(trace::fold) {
        None => None,
        Some(Ok(f)) => Some(f),
        Some(Err(e)) => {
            report.fail(format!("`{sql}`: unreadable trace: {e}"));
            return None;
        }
    };
    Some(Exec {
        wall_ms: wall.as_secs_f64() * 1e3,
        counts: Counts {
            comparisons: r.work.comparisons,
            key_encodes: r.work.key_encodes,
            blocks_read: r.work.blocks_read,
            blocks_written: r.work.blocks_written,
            modeled_ms_bits: r.modeled_ms.to_bits(),
            pool_written: after.spill_blocks_written - before.spill_blocks_written,
            pool_read: after.spill_blocks_read - before.spill_blocks_read,
        },
        step_ms,
        overhead_ms: (outcome
            .wall
            .saturating_sub(r.wall)
            .saturating_sub(outcome.queue_wait))
        .as_secs_f64()
            * 1e3,
        queue_wait_ms: outcome.queue_wait.as_secs_f64() * 1e3,
        peak_resident_blocks: r.store.peak_resident_blocks(),
        chain: outcome.plan.chain_string(),
        trace,
    })
}

/// Time the public front-end calls on each statement: `wf_sql::parse`,
/// `wf_sql::bind`, `wf_core::planner::optimize` and `Session::prepare`
/// (which runs all three). Each metric is the mean over statements of the
/// per-statement median, in µs.
pub fn call_timings(
    report: &mut Report,
    db: &Database,
    budget: u64,
    workers: usize,
    sqls: &[String],
) {
    let reps = (200 / sqls.len()).clamp(3, 50);
    let table = db.table("web_sales").expect("registered");
    let mut catalog = Catalog::new();
    catalog.register("web_sales", table.schema().clone());
    let stats = TableStats::from_table(&table);
    let env = ExecEnv::with_memory_blocks(budget)
        .with_par_workers(workers)
        .with_worker_threads(workers);
    let mut per = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for sql in sqls {
        let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..reps {
            let s0 = Instant::now();
            let stmt = parse(sql).expect("benchmark SQL parses");
            let s1 = Instant::now();
            let query = bind(&stmt, &catalog).expect("benchmark SQL binds");
            let s2 = Instant::now();
            optimize(&query, &stats, Scheme::Cso, &env).expect("plans");
            let s3 = Instant::now();
            db.session().prepare(sql).expect("prepares");
            let s4 = Instant::now();
            for (k, (a, b)) in [(s0, s1), (s1, s2), (s2, s3), (s3, s4)]
                .into_iter()
                .enumerate()
            {
                t[k].push((b - a).as_secs_f64() * 1e6);
            }
        }
        for k in 0..4 {
            per[k].push(median(&t[k]));
        }
    }
    let names = [
        "sql.parse_us",
        "sql.bind_us",
        "planner.optimize_us",
        "session.prepare_us",
    ];
    for (name, v) in names.iter().zip(&per) {
        report.set(
            name,
            v.iter().sum::<f64>() / v.len().max(1) as f64,
            "us",
            v.len() * reps,
        );
    }
}

/// Record the per-layer numbers of one untraced pass (`plain`) and one
/// traced pass (`traced`) over the same statements; the spill backend's
/// counters are read before and after the untraced pass.
pub fn layer_metrics(
    report: &mut Report,
    plain: &[Exec],
    traced: &[Exec],
    spill_before: &BackendStats,
    spill_after: &BackendStats,
) {
    let n = plain.len();
    let sum = |f: &dyn Fn(&Exec) -> f64| plain.iter().map(f).sum::<f64>();
    for (k, kind) in STEP_KINDS.iter().enumerate() {
        report.set(
            &format!("runtime.step_ms.{kind}"),
            sum(&|e| e.step_ms[k]),
            "ms",
            n,
        );
    }
    let counts =
        |f: &dyn Fn(&Counts) -> u64| plain.iter().map(|e| f(&e.counts)).sum::<u64>() as f64;
    report.set("exec.comparisons", counts(&|c| c.comparisons), "count", n);
    report.set("exec.key_encodes", counts(&|c| c.key_encodes), "count", n);
    report.set("exec.blocks_read", counts(&|c| c.blocks_read), "count", n);
    report.set(
        "exec.blocks_written",
        counts(&|c| c.blocks_written),
        "count",
        n,
    );
    report.set(
        "exec.modeled_ms",
        sum(&|e| f64::from_bits(e.counts.modeled_ms_bits)),
        "ms",
        n,
    );
    report.set(
        "pool.blocks_written",
        counts(&|c| c.pool_written),
        "count",
        n,
    );
    report.set("pool.blocks_read", counts(&|c| c.pool_read), "count", n);
    let peak = plain
        .iter()
        .map(|e| e.peak_resident_blocks)
        .max()
        .unwrap_or(0);
    report.set("pool.peak_resident_blocks", peak as f64, "count", n);
    let spill = |f: fn(&BackendStats) -> u64| (f(spill_after) - f(spill_before)) as f64;
    report.set(
        "spill.bytes_written",
        spill(|s| s.bytes_written),
        "bytes",
        n,
    );
    report.set("spill.bytes_read", spill(|s| s.bytes_read), "bytes", n);
    report.set("spill.put_requests", spill(|s| s.put_requests), "count", n);
    report.set("spill.get_requests", spill(|s| s.get_requests), "count", n);
    report.set("session.overhead_ms", sum(&|e| e.overhead_ms), "ms", n);
    report.set(
        "admission.queue_wait_ms",
        sum(&|e| e.queue_wait_ms) / n.max(1) as f64,
        "ms",
        n,
    );

    let traced_wall: f64 = traced.iter().map(|e| e.wall_ms).sum();
    let plain_wall = sum(&|e| e.wall_ms);
    let t = traced.len();
    let mut spanned = 0.0;
    for bucket in trace::BUCKETS {
        let v: f64 = traced
            .iter()
            .filter_map(|e| e.trace.as_ref())
            .map(|f| f.self_ms[bucket])
            .sum();
        spanned += v;
        report.set(bucket, v, "ms", t);
    }
    report.set("trace.stmt_wall_ms", traced_wall, "ms", t);
    report.set("trace.unspanned_ms", traced_wall - spanned, "ms", t);
    report.set(
        "trace.overhead_ratio",
        if plain_wall > 0.0 {
            traced_wall / plain_wall
        } else {
            0.0
        },
        "ratio",
        t,
    );
    let workers: Vec<f64> = traced
        .iter()
        .filter_map(|e| e.trace.as_ref())
        .flat_map(|f| f.worker_ms.iter().copied())
        .collect();
    let busy: f64 = workers.iter().sum();
    report.set("worker.busy_ms", busy, "ms", workers.len());
    let imbalance = if workers.is_empty() {
        0.0
    } else {
        workers.iter().copied().fold(0.0, f64::max) / (busy / workers.len() as f64)
    };
    report.set("worker.imbalance", imbalance, "ratio", workers.len());
}

/// Print where traced statements' wall went: for the first statement of
/// each label, the self-time buckets, the unspanned remainder and the step
/// kinds of its untraced twin; then the whole pass by layer.
pub fn print_breakdown(labels: &[&str], plain: &[Exec], traced: &[Exec]) {
    let mut seen = Vec::new();
    for ((label, p), t) in labels.iter().zip(plain).zip(traced) {
        let Some(f) = &t.trace else { continue };
        if seen.contains(label) {
            continue;
        }
        seen.push(*label);
        let mut parts: Vec<String> = trace::BUCKETS
            .iter()
            .filter(|b| f.self_ms[**b] > 0.0)
            .map(|b| format!("{b}={:.1}", f.self_ms[*b]))
            .collect();
        let spanned: f64 = f.self_ms.values().sum();
        parts.push(format!("unspanned={:.1}", t.wall_ms - spanned));
        println!(
            "trace {label}: wall={:.1} ms = {}",
            t.wall_ms,
            parts.join(" + ")
        );
        let steps: f64 = p.step_ms.iter().sum();
        let shares: Vec<String> = STEP_KINDS
            .iter()
            .zip(p.step_ms)
            .filter(|(_, ms)| *ms > 0.0)
            .map(|(k, ms)| format!("{k}={:.0}%", 100.0 * ms / steps.max(1e-9)))
            .collect();
        println!("steps {label}: {} [{}]", shares.join(" "), p.chain);
        println!("spans {label}: {:?}", f.spans);
    }
    // Whole pass, by layer: the first component of each bucket's name.
    let wall: f64 = traced.iter().map(|t| t.wall_ms).sum();
    let mut layers: Vec<(&str, f64)> = Vec::new();
    for f in traced.iter().filter_map(|t| t.trace.as_ref()) {
        for (bucket, ms) in &f.self_ms {
            let layer = match bucket.split('.').next().unwrap_or(bucket) {
                "trace" => "other",
                layer => layer,
            };
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ms,
                None => layers.push((layer, *ms)),
            }
        }
    }
    let spanned: f64 = layers.iter().map(|(_, ms)| ms).sum();
    layers.push(("unspanned", wall - spanned));
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares: Vec<String> = layers
        .iter()
        .filter(|(_, ms)| *ms > 0.0)
        .map(|(l, ms)| format!("{l}={:.0}%", 100.0 * ms / wall.max(1e-9)))
        .collect();
    println!(
        "layers of the traced pass ({wall:.0} ms): {}",
        shares.join(" ")
    );
}
