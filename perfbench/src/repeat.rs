//! Exact-repeat checks of the deterministic counts: every execution of a
//! statement must report the counts of its first execution, in this run
//! and in every later run of the same workload, seed and statements (the
//! first run records them under `perfbench/.state/`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use crate::engine::Counts;
use crate::report::Report;

/// The reference counts per statement class.
pub struct Repeats {
    labels: Vec<String>,
    first: Vec<Option<Counts>>,
    file: PathBuf,
}

impl Repeats {
    /// Checks for one workload run. `fingerprint` is anything that decides
    /// the counts besides the seed: the statements' SQL and the database
    /// configuration.
    pub fn new(workload: &str, seed: u64, labels: &[&str], fingerprint: &str) -> Repeats {
        let mut h = DefaultHasher::new();
        fingerprint.hash(&mut h);
        Repeats {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            first: vec![None; labels.len()],
            file: PathBuf::from(format!(
                "perfbench/.state/counts-{workload}-{seed}-{:016x}.txt",
                h.finish()
            )),
        }
    }

    /// Compare an execution of class `class` with the class's first one.
    pub fn observe(&mut self, report: &mut Report, class: usize, counts: Counts) {
        match self.first[class] {
            None => self.first[class] = Some(counts),
            Some(first) if first == counts => {}
            Some(first) => report.fail(format!(
                "{}: counts changed between repetitions: {} then {}",
                self.labels[class],
                first.line(),
                counts.line()
            )),
        }
    }

    /// Compare this run's counts with the recorded ones (one attempt per
    /// class), or record them when this is the first run.
    pub fn finish(&self, report: &mut Report) {
        let lines: Vec<String> = self
            .labels
            .iter()
            .zip(&self.first)
            .filter_map(|(l, c)| c.map(|c| format!("{l} {}", c.line())))
            .collect();
        for line in &lines {
            println!("counts {line}");
        }
        match std::fs::read_to_string(&self.file) {
            Ok(recorded) => {
                for line in &lines {
                    report.attempted += 1;
                    let label = line.split(' ').next().unwrap_or("");
                    match recorded
                        .lines()
                        .find(|r| r.split(' ').next() == Some(label))
                    {
                        Some(r) if r == line => {}
                        Some(r) => report.fail(format!(
                            "counts differ from an earlier run with this seed: {r} then {line}"
                        )),
                        None => {}
                    }
                }
            }
            Err(_) => {
                let dir = self.file.parent().expect("state file has a directory");
                let written = std::fs::create_dir_all(dir)
                    .and_then(|_| std::fs::write(&self.file, lines.join("\n") + "\n"));
                if let Err(e) = written {
                    eprintln!("could not record counts in {}: {e}", self.file.display());
                }
            }
        }
    }
}
