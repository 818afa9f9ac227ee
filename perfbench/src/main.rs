//! Wall-clock benchmark of the wfopt engine, driven only through its public
//! API: the paper's queries spilled and resident, a served statement mix
//! over the line protocol, and the parallel chain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_spill|paper_resident|served_mix|par_chain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` makes the per-layer run. The last line of
//! standard output is the result as one JSON object. See `README.md` for
//! the metrics and what each should move.

mod batch;
mod engine;
mod host;
mod oracle;
mod repeat;
mod report;
mod rng;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

use crate::batch::Batch;
use crate::report::Report;

/// End-to-end metrics, printed by `--trace 0`.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "rows_per_s",
    "class1_p50_ms",
    "class2_p50_ms",
    "class3_p50_ms",
    "class4_p50_ms",
    "stmt_p50_ms",
    "stmt_p99_ms",
    "qps",
    "ok_frac",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by `--trace 1`.
const PER_LAYER: [&str; 54] = [
    "sql.parse_us",
    "sql.bind_us",
    "planner.optimize_us",
    "session.prepare_us",
    "session.overhead_ms",
    "planner.regret.q6",
    "planner.regret.q7",
    "planner.regret.q8",
    "planner.regret.q9",
    "admission.queue_wait_ms",
    "admission.rejected",
    "admission.timed_out",
    "runtime.step_ms.scan",
    "runtime.step_ms.fs",
    "runtime.step_ms.hs",
    "runtime.step_ms.ss",
    "runtime.step_ms.par",
    "runtime.step_ms.none",
    "sort.run_formation_ms",
    "sort.merge_ms",
    "sort.in_memory_ms",
    "sort.hs_partition_ms",
    "sort.hs_bucket_sort_ms",
    "window.eval_ms",
    "window.eval_spilled_ms",
    "step.self_ms",
    "exec.comparisons",
    "exec.key_encodes",
    "exec.blocks_read",
    "exec.blocks_written",
    "exec.modeled_ms",
    "pool.blocks_written",
    "pool.blocks_read",
    "pool.peak_resident_blocks",
    "pool.spill_out_ms",
    "spill.bytes_written",
    "spill.bytes_read",
    "spill.put_requests",
    "spill.get_requests",
    "par.scatter_ms",
    "par.merge_ms",
    "worker.busy_ms",
    "worker.imbalance",
    "scheduler.speedup_vs_serial",
    "server.wire_ms",
    "server.result_bytes",
    "setup.generate_s",
    "setup.register_s",
    "trace.overhead_ratio",
    "trace.stmt_wall_ms",
    "trace.unspanned_ms",
    "trace.other_ms",
    "host.cores",
    "host.kernel_ms",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Environment variables the engine reads. The benchmark refuses to run
/// when any is set and pins each itself, so the environment cannot change
/// what is measured.
const PINNED_ENV: [(&str, &str); 4] = [
    ("WF_SPILL_BACKEND", "mem"),
    ("WF_SPILL_COMPRESS", "0"),
    ("WF_PREFETCH_BLOCKS", "0"),
    ("WF_WORKERS", "1"),
];

/// Where the file spill backend writes (`TMPDIR`), inside the checkout.
const SPILL_DIR: &str = "perfbench/.spill";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_spill|paper_resident|served_mix|par_chain> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let args = Args {
        workload: match value("--workload")? {
            w @ ("paper_spill" | "paper_resident" | "served_mix" | "par_chain") => w.to_string(),
            other => return Err(format!("unknown workload {other}")),
        },
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} set in the environment; the benchmark pins them",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // Single-threaded here: no other thread reads the environment yet.
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
    let spill_dir = std::path::Path::new(SPILL_DIR);
    if let Err(e) = std::fs::create_dir_all(spill_dir) {
        eprintln!("cannot create {SPILL_DIR}: {e}");
        return ExitCode::from(2);
    }
    std::env::set_var(
        "TMPDIR",
        spill_dir.canonicalize().expect("spill dir exists"),
    );

    let mut report = Report::default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} cores {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let batch = match args.workload.as_str() {
        "paper_spill" => Some(Batch::paper_spill(args.seed)),
        "paper_resident" => Some(Batch::paper_resident(args.seed)),
        "par_chain" => Some(Batch::par_chain(args.seed)),
        _ => None,
    };
    match (&batch, args.trace) {
        (Some(b), false) => b.run(&args, &mut report),
        (Some(b), true) => b.run_layers(&args, &mut report),
        (None, false) => served::run(&args, &mut report),
        (None, true) => served::run_layers(&args, &mut report),
    }
    report.set("host.cores", cores as f64, "count", 1);
    report.record_host();
    let _ = std::fs::remove_dir_all(spill_dir);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.finish(names) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
