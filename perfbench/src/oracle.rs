//! First-principles reference for every window function and frame the
//! workloads use, built by sorting and scanning the generated rows.
//!
//! A [`Statement`] is both the SQL the engine runs and the description the
//! reference evaluates, so the two can never drift apart. The reference
//! shares no code with the engine beyond the `Value` type: it sorts row
//! indices on `(PARTITION BY, ORDER BY, ws_order_number)` and walks each
//! partition once per call.

use std::sync::Arc;

use wfopt::common::{Row, Value};
use wfopt::datagen::WsColumn;

/// A window function of the workloads.
#[derive(Debug, Clone, Copy)]
pub enum Func {
    Rank,
    RowNumber,
    /// `lag(col)`: offset 1, NULL default.
    Lag(WsColumn),
    Sum(WsColumn),
    Avg(WsColumn),
    /// `count(*)`.
    Count,
    Min(WsColumn),
}

/// The frame of an aggregate call.
#[derive(Debug, Clone, Copy)]
pub enum Frame {
    /// SQL default: `RANGE UNBOUNDED PRECEDING .. CURRENT ROW` under an
    /// ORDER BY, the whole partition without one.
    Default,
    /// `ROWS BETWEEN p PRECEDING AND f FOLLOWING` (`f = 0`: CURRENT ROW).
    Rows(i64, i64),
    /// `RANGE BETWEEN p PRECEDING AND CURRENT ROW` over one ascending
    /// integer key.
    RangePreceding(i64),
}

/// One window call: `func OVER (PARTITION BY .. ORDER BY .. frame) AS alias`.
#[derive(Debug, Clone)]
pub struct Call {
    pub alias: &'static str,
    pub func: Func,
    pub partition: Vec<WsColumn>,
    /// `(column, descending)`.
    pub order: Vec<(WsColumn, bool)>,
    pub frame: Frame,
}

impl Call {
    /// `rank()` with ascending order keys — the paper's query shape.
    pub fn rank(alias: &'static str, partition: &[WsColumn], order: &[WsColumn]) -> Call {
        Call {
            alias,
            func: Func::Rank,
            partition: partition.to_vec(),
            order: order.iter().map(|&c| (c, false)).collect(),
            frame: Frame::Default,
        }
    }

    fn sql(&self) -> String {
        let func = match self.func {
            Func::Rank => "rank()".to_string(),
            Func::RowNumber => "row_number()".to_string(),
            Func::Lag(c) => format!("lag({})", c.name()),
            Func::Sum(c) => format!("sum({})", c.name()),
            Func::Avg(c) => format!("avg({})", c.name()),
            Func::Count => "count(*)".to_string(),
            Func::Min(c) => format!("min({})", c.name()),
        };
        let mut over = Vec::new();
        if !self.partition.is_empty() {
            let cols: Vec<&str> = self.partition.iter().map(|c| c.name()).collect();
            over.push(format!("PARTITION BY {}", cols.join(", ")));
        }
        if !self.order.is_empty() {
            let cols: Vec<String> = self
                .order
                .iter()
                .map(|(c, desc)| format!("{}{}", c.name(), if *desc { " DESC" } else { "" }))
                .collect();
            over.push(format!("ORDER BY {}", cols.join(", ")));
        }
        match self.frame {
            Frame::Default => {}
            Frame::Rows(p, 0) => over.push(format!("ROWS BETWEEN {p} PRECEDING AND CURRENT ROW")),
            Frame::Rows(p, f) => over.push(format!("ROWS BETWEEN {p} PRECEDING AND {f} FOLLOWING")),
            Frame::RangePreceding(p) => {
                over.push(format!("RANGE BETWEEN {p} PRECEDING AND CURRENT ROW"))
            }
        }
        format!("{func} OVER ({}) AS {}", over.join(" "), self.alias)
    }
}

/// A statement over `web_sales`: an optional `BETWEEN` filter, the window
/// calls, and an optional projection (`None` = `SELECT *`). Every
/// projection keeps `ws_order_number`, the key results are checked by.
#[derive(Debug, Clone)]
pub struct Statement {
    pub filter: Option<(WsColumn, i64, i64)>,
    pub calls: Vec<Call>,
    pub projection: Option<Vec<WsColumn>>,
}

impl Statement {
    pub fn sql(&self) -> String {
        let mut items: Vec<String> = match &self.projection {
            None => vec!["*".to_string()],
            Some(cols) => cols.iter().map(|c| c.name().to_string()).collect(),
        };
        items.extend(self.calls.iter().map(Call::sql));
        let mut sql = format!("SELECT {} FROM web_sales", items.join(", "));
        if let Some((col, lo, hi)) = self.filter {
            sql.push_str(&format!(" WHERE {} BETWEEN {lo} AND {hi}", col.name()));
        }
        sql
    }

    /// Output column names in order.
    pub fn columns(&self) -> Vec<String> {
        let base: Vec<String> = match &self.projection {
            None => ALL_COLUMNS.iter().map(|c| c.name().to_string()).collect(),
            Some(cols) => cols.iter().map(|c| c.name().to_string()).collect(),
        };
        base.into_iter()
            .chain(self.calls.iter().map(|c| c.alias.to_string()))
            .collect()
    }

    /// The reference result over `rows`, the generated table in any row
    /// order (its `ws_order_number`s are `0..rows.len()`).
    pub fn expected(&self, rows: Arc<Vec<Row>>) -> Expected {
        let sel: Vec<usize> = (0..rows.len())
            .filter(|&i| match self.filter {
                None => true,
                Some((col, lo, hi)) => {
                    let v = int(&rows[i], col);
                    lo <= v && v <= hi
                }
            })
            .collect();
        let calls = self
            .calls
            .iter()
            .map(|c| evaluate(c, &rows, &sel))
            .collect();
        let mut slot = vec![u32::MAX; rows.len()];
        for (k, &i) in sel.iter().enumerate() {
            let key = usize::try_from(int(&rows[i], WsColumn::OrderNumber))
                .expect("generated order numbers are non-negative");
            slot[key] = k as u32;
        }
        let base: Vec<WsColumn> = self.projection.clone().unwrap_or(ALL_COLUMNS.to_vec());
        let order_col = base
            .iter()
            .position(|&c| c == WsColumn::OrderNumber)
            .expect("every statement outputs ws_order_number");
        Expected {
            columns: self.columns(),
            base,
            order_col,
            rows,
            sel,
            slot,
            calls,
        }
    }
}

/// The generator's columns in schema order.
pub const ALL_COLUMNS: [WsColumn; 9] = [
    WsColumn::SoldDate,
    WsColumn::SoldTime,
    WsColumn::ShipDate,
    WsColumn::Item,
    WsColumn::Bill,
    WsColumn::Warehouse,
    WsColumn::Quantity,
    WsColumn::OrderNumber,
    WsColumn::Padding,
];

/// A statement's reference result.
pub struct Expected {
    columns: Vec<String>,
    base: Vec<WsColumn>,
    order_col: usize,
    rows: Arc<Vec<Row>>,
    sel: Vec<usize>,
    /// `ws_order_number` → position in `sel` (`u32::MAX`: filtered out).
    slot: Vec<u32>,
    /// Per call, its value for each selected row.
    calls: Vec<Vec<Value>>,
}

impl Expected {
    /// The expected output row with this `ws_order_number`.
    fn row(&self, key: i64) -> Option<Vec<&Value>> {
        let i = usize::try_from(key).ok()?;
        let k = *self.slot.get(i)?;
        if k == u32::MAX {
            return None;
        }
        let row = &self.rows[self.sel[k as usize]];
        let base = self.base.iter().map(|c| row.get(c.attr()));
        Some(
            base.chain(self.calls.iter().map(|v| &v[k as usize]))
                .collect(),
        )
    }

    /// Check a result given as rows of values (the in-process path).
    pub fn check_rows(&self, columns: &[String], rows: &[Row]) -> Result<(), String> {
        self.check(
            columns,
            rows.len(),
            rows.iter().map(|r| r.values()),
            |got, want| got == want,
        )
    }

    /// Check a result given as text cells (the line-protocol path): each
    /// cell must read exactly as the expected value's `Display`.
    pub fn check_text(&self, columns: &[String], rows: &[Vec<String>]) -> Result<(), String> {
        self.check(
            columns,
            rows.len(),
            rows.iter().map(|r| r.as_slice()),
            |got, want| *got == want.to_string(),
        )
    }

    fn check<'a, T: Key + std::fmt::Debug + 'a>(
        &self,
        columns: &[String],
        n: usize,
        rows: impl Iterator<Item = &'a [T]>,
        same: impl Fn(&T, &Value) -> bool,
    ) -> Result<(), String> {
        if columns != self.columns.as_slice() {
            return Err(format!("columns {columns:?}, expected {:?}", self.columns));
        }
        if n != self.sel.len() {
            return Err(format!("{n} rows, expected {}", self.sel.len()));
        }
        let mut seen = vec![false; self.rows.len()];
        for row in rows {
            let key = row
                .get(self.order_col)
                .and_then(Key::key)
                .ok_or("row without a readable ws_order_number")?;
            let want = self.row(key).ok_or(format!("unexpected row {key}"))?;
            let seen = &mut seen[key as usize];
            if std::mem::replace(seen, true) {
                return Err(format!("row {key} returned twice"));
            }
            if row.len() != want.len() || row.iter().zip(&want).any(|(g, w)| !same(g, w)) {
                return Err(format!("row {key}: got {row:?}, expected {want:?}"));
            }
        }
        Ok(())
    }
}

/// Reading the `ws_order_number` cell of a result row.
trait Key {
    fn key(&self) -> Option<i64>;
}

impl Key for Value {
    fn key(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl Key for String {
    fn key(&self) -> Option<i64> {
        self.parse().ok()
    }
}

fn int(row: &Row, col: WsColumn) -> i64 {
    match row.get(col.attr()) {
        Value::Int(v) => *v,
        other => panic!("{} is not an integer: {other:?}", col.name()),
    }
}

/// Evaluate one call over the selected rows; the result is aligned with
/// `sel`.
/// Key columns a call may use, plus the `ws_order_number` tiebreak.
const KEY_WIDTH: usize = 8;

fn evaluate(call: &Call, rows: &[Row], sel: &[usize]) -> Vec<Value> {
    let (np, no) = (call.partition.len(), call.order.len());
    assert!(np + no < KEY_WIDTH, "{} key columns", np + no);
    // One fixed-width key per selected row: the partition values, the order
    // values (negated when descending; the generator's integers are
    // non-negative and never NULL), then ws_order_number, which makes the
    // order total.
    let mut keyed: Vec<([i64; KEY_WIDTH], usize)> = sel
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let r = &rows[i];
            let mut key = [0; KEY_WIDTH];
            for (j, &c) in call.partition.iter().enumerate() {
                key[j] = int(r, c);
            }
            for (j, &(c, desc)) in call.order.iter().enumerate() {
                key[np + j] = if desc { -int(r, c) } else { int(r, c) };
            }
            key[np + no] = int(r, WsColumn::OrderNumber);
            (key, k)
        })
        .collect();
    keyed.sort_unstable();
    let mut out = vec![Value::Null; sel.len()];
    let mut ps = 0;
    while ps < keyed.len() {
        let mut pe = ps + 1;
        while pe < keyed.len() && keyed[pe].0[..np] == keyed[ps].0[..np] {
            pe += 1;
        }
        let part = &keyed[ps..pe];
        let order = |p: usize| &part[p].0[np..np + no];
        // Peer group of each position: [peer_start, peer_end).
        let mut peer_end = vec![0; part.len()];
        let mut peer_start = vec![0; part.len()];
        let mut g = 0;
        while g < part.len() {
            let mut h = g + 1;
            while h < part.len() && order(h) == order(g) {
                h += 1;
            }
            for p in g..h {
                peer_start[p] = g;
                peer_end[p] = h;
            }
            g = h;
        }
        let value = |p: usize, col: WsColumn| rows[sel[part[p].1]].get(col.attr()).clone();
        for p in 0..part.len() {
            let v = match call.func {
                Func::Rank => Value::Int(peer_start[p] as i64 + 1),
                Func::RowNumber => Value::Int(p as i64 + 1),
                Func::Lag(col) => {
                    if p == 0 {
                        Value::Null
                    } else {
                        value(p - 1, col)
                    }
                }
                Func::Sum(_) | Func::Avg(_) | Func::Count | Func::Min(_) => {
                    let (s, e) = match call.frame {
                        Frame::Default if no == 0 => (0, part.len()),
                        Frame::Default => (0, peer_end[p]),
                        Frame::Rows(pre, fol) => (
                            p.saturating_sub(pre as usize),
                            (p + fol as usize + 1).min(part.len()),
                        ),
                        Frame::RangePreceding(pre) => {
                            assert!(no == 1 && !call.order[0].1, "one ascending key");
                            let lo = order(p)[0] - pre;
                            (part.partition_point(|k| k.0[np] < lo), peer_end[p])
                        }
                    };
                    aggregate(call.func, s..e, value)
                }
            };
            out[part[p].1] = v;
        }
        ps = pe;
    }
    out
}

fn aggregate(
    func: Func,
    frame: std::ops::Range<usize>,
    value: impl Fn(usize, WsColumn) -> Value,
) -> Value {
    let mut count = 0i64;
    let mut sum = 0i128;
    let mut min: Option<i64> = None;
    for q in frame {
        count += 1;
        let col = match func {
            Func::Sum(c) | Func::Avg(c) | Func::Min(c) => c,
            _ => continue,
        };
        let Value::Int(v) = value(q, col) else {
            panic!("aggregates run over integer columns");
        };
        sum += v as i128;
        min = Some(min.map_or(v, |m| m.min(v)));
    }
    match func {
        Func::Count => Value::Int(count),
        _ if count == 0 => Value::Null,
        Func::Sum(_) => Value::Int(sum as i64),
        Func::Avg(_) => Value::Float(sum as f64 / count as f64),
        Func::Min(_) => Value::Int(min.expect("non-empty frame")),
        _ => unreachable!("not an aggregate"),
    }
}
