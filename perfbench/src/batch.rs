//! The single-client, in-process workloads: the paper's queries spilled
//! (`paper_spill`) and resident (`paper_resident`), and the parallel chain
//! (`par_chain`).

use std::time::{Duration, Instant};

use wfopt::core::planner::Scheme;
use wfopt::datagen::{WsColumn, WsConfig};
use wfopt::storage::{SpillBackendKind, Table};
use wfopt::{Database, DatabaseConfig};

use crate::engine::{self, call_timings, Exec};
use crate::oracle::{Call, Expected, Frame, Func, Statement};
use crate::repeat::Repeats;
use crate::report::{Report, Timed};
use crate::rng::Rng;
use crate::stats::median;
use crate::{Args, SETUP_REPS};

/// A batch workload: one generated table, one pinned configuration, a
/// fixed list of statement classes run in order by one client.
pub struct Batch {
    pub name: &'static str,
    /// The generator's configuration, with its default seed: the values
    /// are fixed, so that run times do not depend on `--seed`.
    pub table: WsConfig,
    /// `--seed`, which draws the order the rows arrive in.
    pub order_seed: u64,
    /// Per-query budget in blocks, from the table's block count.
    pub budget: fn(u64) -> u64,
    pub workers: usize,
    pub classes: Vec<(&'static str, Statement)>,
    /// Back-to-back executions of each class per round: more samples of
    /// the short statements, whose medians would otherwise rest on a few,
    /// in proportions that put the median of all statements (`stmt_p50_ms`)
    /// in the middle of one class's samples rather than between two.
    pub reps: Vec<usize>,
    /// Every execution's plan must contain a `PAR→` span.
    pub require_par: bool,
}

/// Whole rounds every run makes at least, so each class repeats.
const MIN_ROUNDS: usize = 2;

/// Seconds of set-ups a run makes at least: a small table's set-up takes
/// tens of ms, and its median needs more samples than `SETUP_REPS`.
const SETUP_SECONDS: f64 = 2.0;
/// Set-ups a run makes at most.
const MAX_SETUPS: usize = 60;

fn paper_queries() -> Vec<(&'static str, Statement)> {
    use WsColumn::{Bill, Item, ShipDate as Ship, SoldDate as Date, SoldTime as Time};
    let q = |calls: Vec<Call>| Statement {
        filter: None,
        calls,
        projection: None,
    };
    vec![
        (
            "q6",
            q(vec![
                Call::rank("wf1", &[Item], &[Date]),
                Call::rank("wf2", &[Item], &[Bill]),
            ]),
        ),
        (
            "q7",
            q(vec![
                Call::rank("wf1", &[Date, Time, Ship], &[]),
                Call::rank("wf2", &[Time, Date], &[]),
                Call::rank("wf3", &[Item], &[]),
                Call::rank("wf4", &[], &[Item, Bill]),
                Call::rank("wf5", &[Date, Time, Item, Bill], &[Ship]),
            ]),
        ),
        (
            "q8",
            q(vec![
                Call::rank("wf1", &[Date, Time, Ship], &[]),
                Call::rank("wf2", &[Time, Date], &[]),
                Call::rank("wf3", &[Item], &[]),
                Call::rank("wf4", &[Item], &[Bill]),
                Call::rank("wf5", &[Date, Time, Item], &[Bill, Ship]),
            ]),
        ),
        (
            "q9",
            q(vec![
                Call::rank("wf1", &[Item], &[Bill, Date]),
                Call::rank("wf2", &[Item, Time], &[Date]),
                Call::rank("wf3", &[Item], &[Time]),
                Call::rank("wf4", &[], &[Item, Date]),
                Call::rank("wf5", &[Bill, Date], &[Time]),
                Call::rank("wf6", &[Bill], &[Time]),
                Call::rank("wf7", &[Date, Time], &[]),
                Call::rank("wf8", &[], &[Time]),
            ]),
        ),
    ]
}

impl Batch {
    /// The paper's Q6–Q9 on 50k rows under a 75-paper-MB budget.
    pub fn paper_spill(seed: u64) -> Batch {
        Batch {
            name: "paper_spill",
            table: WsConfig {
                rows: 50_000,
                ..WsConfig::default()
            },
            order_seed: seed,
            budget: |blocks| wf_bench::paper_mb_to_blocks(75.0, blocks),
            workers: 1,
            classes: paper_queries(),
            reps: vec![2, 1, 1, 1],
            require_par: false,
        }
    }

    /// The paper's Q6–Q9 on 12.5k rows under four times the relation.
    pub fn paper_resident(seed: u64) -> Batch {
        Batch {
            name: "paper_resident",
            table: WsConfig {
                rows: 12_500,
                ..WsConfig::default()
            },
            order_seed: seed,
            budget: |blocks| 4 * blocks,
            workers: 1,
            classes: paper_queries(),
            reps: vec![3, 1, 5, 1],
            require_par: false,
        }
    }

    /// `repro regress`'s parallel chain (rank + SUM sharing the partition
    /// key) on 150k rows, two workers, at a budget where CSO plans `PAR→`.
    pub fn par_chain(seed: u64) -> Batch {
        use WsColumn::{Item, Quantity, SoldTime, Warehouse};
        let rows = 150_000;
        Batch {
            name: "par_chain",
            table: WsConfig {
                rows,
                d_item: rows as u64 / 100,
                d_bill: rows as u64 / 10,
                ..WsConfig::default()
            },
            order_seed: seed,
            budget: |_| 128,
            workers: 2,
            classes: vec![(
                "par_chain",
                Statement {
                    filter: None,
                    calls: vec![
                        Call::rank("r", &[Item], &[SoldTime]),
                        Call {
                            alias: "s",
                            func: Func::Sum(Quantity),
                            partition: vec![Item],
                            order: vec![(Warehouse, false)],
                            frame: Frame::Default,
                        },
                    ],
                    projection: None,
                },
            )],
            reps: vec![1],
            require_par: true,
        }
    }

    /// The generated rows in the order `--seed` draws.
    fn generate(&self) -> Table {
        let table = self.table.generate();
        let schema = table.schema().clone();
        let mut rows = table.into_rows();
        Rng::new(self.order_seed).shuffle(&mut rows);
        Table::from_rows(schema, rows).expect("rows of the generator's schema")
    }

    /// Every `DatabaseConfig` field, pinned.
    fn config(&self, budget: u64, scheme: Scheme, workers: usize) -> DatabaseConfig {
        DatabaseConfig::new()
            .scheme(scheme)
            .memory_blocks(budget)
            .max_concurrent(1)
            .per_query_blocks(budget)
            .queue_depth(1)
            .worker_threads(workers)
            .queue_timeout(Duration::from_secs(600))
            .spill_backend(SpillBackendKind::Mem)
            .compress_spill(false)
            .prefetch_blocks(0)
    }

    fn labels(&self) -> Vec<&'static str> {
        self.classes.iter().map(|(l, _)| *l).collect()
    }

    /// Generate, open and register at least `SETUP_REPS` times and until
    /// `SETUP_SECONDS` have passed (at most `MAX_SETUPS` times), with the
    /// host-speed kernel after each; keep the last database. Records
    /// `setup_s` and the `setup.*` split.
    fn setup(&self, report: &mut Report) -> (Database, u64) {
        let (mut total, mut gen, mut reg) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        let start = Instant::now();
        while total.len() < SETUP_REPS
            || (start.elapsed().as_secs_f64() < SETUP_SECONDS && total.len() < MAX_SETUPS)
        {
            drop(last.take());
            let mark = report.host.runs();
            let t0 = Instant::now();
            let table = self.generate();
            let t1 = Instant::now();
            let budget = (self.budget)(table.block_count());
            let db = self.config(budget, Scheme::Cso, self.workers).open();
            db.register("web_sales", table)
                .expect("register generated table");
            let t2 = Instant::now();
            gen.push(((t1 - t0).as_secs_f64(), mark));
            reg.push(((t2 - t1).as_secs_f64(), mark));
            total.push(((t2 - t0).as_secs_f64(), mark));
            last = Some((db, budget));
            report.host.sample();
        }
        report.set_timed("setup_s", &total, median, "s");
        report.set_timed("setup.generate_s", &gen, median, "s");
        report.set_timed("setup.register_s", &reg, median, "s");
        last.expect("at least one setup")
    }

    fn fingerprint(&self, budget: u64) -> String {
        let sqls: Vec<String> = self.classes.iter().map(|(_, s)| s.sql()).collect();
        format!(
            "{:?} {budget} {} {}",
            self.table,
            self.workers,
            sqls.join(";")
        )
    }

    fn expected(&self, db: &Database) -> Vec<Expected> {
        let rows = db.table("web_sales").expect("registered").shared_rows();
        self.classes
            .iter()
            .map(|(_, s)| s.expected(rows.clone()))
            .collect()
    }

    /// Run one class, checking the result, the plan shape and the counts.
    fn exec(
        &self,
        db: &Database,
        class: usize,
        expected: &[Expected],
        traced: bool,
        repeats: &mut Repeats,
        report: &mut Report,
    ) -> Option<Exec> {
        let sql = self.classes[class].1.sql();
        let e = engine::run(db, &sql, &expected[class], traced, report)?;
        if self.require_par && !e.chain.contains("PAR→") {
            report.fail(format!("{}: plan has no PAR→ span: {}", self.name, e.chain));
            return None;
        }
        repeats.observe(report, class, e.counts);
        Some(e)
    }

    /// The end-to-end run: whole rounds over the classes, in order, each
    /// class `reps` times, until `seconds` have passed (at least
    /// `MIN_ROUNDS`). The host-speed kernel runs after every statement,
    /// outside its time.
    pub fn run(&self, args: &Args, report: &mut Report) {
        report.scale_to_host = true;
        let (db, budget) = self.setup(report);
        let expected = self.expected(&db);
        let mut repeats = Repeats::new(
            self.name,
            args.seed,
            &self.labels(),
            &self.fingerprint(budget),
        );
        // Warm-up: let the allocator and caches settle; checked, not timed.
        self.exec(&db, 0, &expected, false, &mut repeats, report);
        let mut walls: Vec<Vec<Timed>> = vec![Vec::new(); self.classes.len()];
        let mut paused_ms = 0.0;
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
            for (class, w) in walls.iter_mut().enumerate() {
                for _ in 0..self.reps[class] {
                    let mark = report.host.runs();
                    if let Some(e) = self.exec(&db, class, &expected, false, &mut repeats, report) {
                        if rounds == 0 && w.is_empty() {
                            println!("plan {}: {}", self.classes[class].0, e.chain);
                        }
                        w.push((e.wall_ms, mark));
                    }
                    paused_ms += report.host.sample();
                }
            }
            rounds += 1;
        }
        let elapsed = start.elapsed().as_secs_f64() - paused_ms / 1e3;
        repeats.finish(report);
        let labels = self.labels();
        for slot in 0..4 {
            // A workload with fewer classes repeats its last one.
            let class = slot.min(self.classes.len() - 1);
            let ms: Vec<String> = walls[class].iter().map(|w| format!("{:.0}", w.0)).collect();
            println!(
                "class{} = {}: measured {} ms",
                slot + 1,
                labels[class],
                ms.join(" ")
            );
            report.set_timed(
                &format!("class{}_p50_ms", slot + 1),
                &walls[class],
                median,
                "ms",
            );
        }
        report.statements(&walls.concat(), elapsed, self.table.rows as f64);
    }

    /// The per-layer run: public-call timings, one untraced and one traced
    /// pass over the classes, then the scheme comparison (`paper_*`: plan
    /// regret) or the serial comparison (`par_chain`: speedup) until
    /// `seconds` have passed (at least one round).
    pub fn run_layers(&self, args: &Args, report: &mut Report) {
        let (db, budget) = self.setup(report);
        let expected = self.expected(&db);
        let sqls: Vec<String> = self.classes.iter().map(|(_, s)| s.sql()).collect();
        call_timings(report, &db, budget, self.workers, &sqls);
        let mut repeats = Repeats::new(
            self.name,
            args.seed,
            &self.labels(),
            &self.fingerprint(budget),
        );
        self.exec(&db, 0, &expected, false, &mut repeats, report);

        let start = Instant::now();
        let spill_before = db.spill_stats();
        let plain: Vec<Exec> = (0..self.classes.len())
            .filter_map(|c| self.exec(&db, c, &expected, false, &mut repeats, report))
            .collect();
        let spill_after = db.spill_stats();
        let traced: Vec<Exec> = (0..self.classes.len())
            .filter_map(|c| self.exec(&db, c, &expected, true, &mut repeats, report))
            .collect();
        engine::layer_metrics(report, &plain, &traced, &spill_before, &spill_after);
        if plain.len() == self.classes.len() && traced.len() == self.classes.len() {
            engine::print_breakdown(&self.labels(), &plain, &traced);
        }
        // No wire on the in-process workloads.
        report.set("server.wire_ms", 0.0, "ms", 0);
        report.set("server.result_bytes", 0.0, "bytes", 0);
        let adm = db.admission_stats();
        report.set(
            "admission.rejected",
            adm.rejected as f64,
            "count",
            adm.admitted as usize,
        );
        report.set(
            "admission.timed_out",
            adm.timed_out as f64,
            "count",
            adm.admitted as usize,
        );

        // Scheme comparison. `paper_*`: CSO (this database, the planner's
        // pick) against BFO, ORCL and PSQL. `par_chain`: the PAR plan against
        // every scheme's serial plan. The untraced pass is the first sample
        // of this database; each round adds one sample of everything.
        let table = db.table("web_sales").expect("registered");
        let rivals: Vec<(Scheme, Database)> =
            [Scheme::Cso, Scheme::Bfo, Scheme::Orcl, Scheme::Psql]
                .into_iter()
                .filter(|&s| self.require_par || s != Scheme::Cso)
                .map(|s| {
                    let rival = self
                        .config(budget, s, if self.require_par { 1 } else { self.workers })
                        .open();
                    rival
                        .register("web_sales", table.clone())
                        .expect("register generated table");
                    (s, rival)
                })
                .collect();
        let mut own: Vec<Vec<f64>> = plain.iter().map(|e| vec![e.wall_ms]).collect();
        let mut theirs = vec![vec![Vec::new(); self.classes.len()]; rivals.len()];
        let mut rounds = 0;
        while rounds < 1 || start.elapsed().as_secs_f64() < args.seconds {
            for (class, sql) in sqls.iter().enumerate() {
                if rounds > 0 {
                    if let Some(e) = self.exec(&db, class, &expected, false, &mut repeats, report) {
                        own[class].push(e.wall_ms);
                    }
                }
                for ((_, rival), walls) in rivals.iter().zip(&mut theirs) {
                    if let Some(e) = engine::run(rival, sql, &expected[class], false, report) {
                        walls[class].push(e.wall_ms);
                    }
                }
            }
            rounds += 1;
        }
        for (class, label) in self.labels().iter().enumerate() {
            let mine = median(&own[class]);
            let best = theirs
                .iter()
                .map(|w| median(&w[class]))
                .fold(f64::INFINITY, f64::min);
            let walls: Vec<String> = rivals
                .iter()
                .zip(&theirs)
                .map(|((s, _), w)| format!("{s:?}={:.0}", median(&w[class])))
                .collect();
            println!("{label}: this plan {mine:.0} ms; {} ms", walls.join(" "));
            if self.require_par {
                report.set(
                    "scheduler.speedup_vs_serial",
                    best / mine,
                    "x",
                    own[class].len(),
                );
            } else {
                report.set(
                    &format!("planner.regret.{label}"),
                    mine / best.min(mine),
                    "ratio",
                    own[class].len(),
                );
            }
        }
        if self.require_par {
            for label in ["q6", "q7", "q8", "q9"] {
                report.set(&format!("planner.regret.{label}"), 0.0, "ratio", 0);
            }
        } else {
            report.set("scheduler.speedup_vs_serial", 0.0, "x", 0);
        }
        repeats.finish(report);
    }
}
