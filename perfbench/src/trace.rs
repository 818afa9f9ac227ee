//! Folding a statement's trace (Chrome trace-event JSON, as
//! `QueryOutcome::trace` carries it) into per-layer self time.
//!
//! The spans are the ones the engine already emits: `step` per metered
//! pull, `sort`, `window`, `spill`, `par` and `worker`. On the lane of the
//! thread that ran the statement, each span's self time (its duration
//! minus its children's) lands in one layer bucket, so the buckets plus the
//! unspanned remainder add up to the statement's wall. Worker lanes run
//! concurrently with that lane and are reported on their own.

use std::collections::BTreeMap;

/// Self-time buckets of the calling thread's lane, in reporting order.
pub const BUCKETS: [&str; 12] = [
    "step.self_ms",
    "sort.run_formation_ms",
    "sort.merge_ms",
    "sort.in_memory_ms",
    "sort.hs_partition_ms",
    "sort.hs_bucket_sort_ms",
    "window.eval_ms",
    "window.eval_spilled_ms",
    "pool.spill_out_ms",
    "par.scatter_ms",
    "par.merge_ms",
    "trace.other_ms",
];

fn bucket(cat: &str, name: &str) -> &'static str {
    match (cat, name) {
        ("step", _) => "step.self_ms",
        ("sort", n) if n.starts_with("run_formation") => "sort.run_formation_ms",
        ("sort", n)
            if n.starts_with("merge_pass")
                || n.starts_with("final_merge")
                || n.starts_with("merge_handles") =>
        {
            "sort.merge_ms"
        }
        ("sort", n) if n.starts_with("in_memory") => "sort.in_memory_ms",
        ("sort", n) if n.starts_with("hs.partition") => "sort.hs_partition_ms",
        ("sort", n) if n.starts_with("hs.bucket_sort") => "sort.hs_bucket_sort_ms",
        ("window", "eval") => "window.eval_ms",
        ("window", "eval_spilled") => "window.eval_spilled_ms",
        ("spill", _) => "pool.spill_out_ms",
        ("par", n) if n.starts_with("scatter") => "par.scatter_ms",
        ("par", "merge") => "par.merge_ms",
        _ => "trace.other_ms",
    }
}

struct Span {
    cat: String,
    name: String,
    lane: u64,
    start: u64,
    dur: u64,
}

/// One statement's trace, folded.
#[derive(Debug, Default, Clone)]
pub struct Folded {
    /// Self time per bucket on the calling thread's lane, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Top-level `worker` span durations on the other lanes, in ms.
    pub worker_ms: Vec<f64>,
    /// Spans per category, all lanes.
    pub spans: BTreeMap<String, u64>,
}

/// The flat fields of one JSON object written on one line, as raw strings
/// (string values unescaped). `None` when the line is not such an object.
///
/// The engine writes one trace event per line; reading them this way keeps
/// the fold linear in the trace size.
fn flat_fields(line: &str) -> Option<Vec<(String, String)>> {
    let mut chars = line.trim().trim_end_matches(',').chars().peekable();
    let string = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Option<String> {
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
    };
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    loop {
        match chars.next()? {
            '}' => return Some(fields),
            ',' | ' ' => continue,
            '"' => {}
            _ => return None,
        }
        let key = string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = if chars.peek() == Some(&'"') {
            chars.next();
            string(&mut chars)?
        } else {
            let mut v = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                v.push(c);
                chars.next();
            }
            v
        };
        fields.push((key, value));
    }
}

/// Fold one Chrome trace-event document as `TraceSink::to_chrome_json`
/// writes it.
pub fn fold(chrome_json: &str) -> Result<Folded, String> {
    if !chrome_json.starts_with("{\"traceEvents\":[") {
        return Err("not a trace-event document".into());
    }
    let mut spans = Vec::new();
    for line in chrome_json.lines().skip(1) {
        let Some(fields) = flat_fields(line) else {
            continue;
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
        if get("ph") != Some("X") {
            continue;
        }
        let num = |k: &str| -> Result<u64, String> {
            get(k)
                .and_then(|v| v.parse().ok())
                .ok_or(format!("span without {k}: {line}"))
        };
        spans.push(Span {
            cat: get("cat").unwrap_or("").to_string(),
            name: get("name").unwrap_or("").to_string(),
            lane: num("tid")?,
            start: num("ts")?,
            dur: num("dur")?,
        });
    }
    // Per lane, by start, longer (enclosing) spans first.
    spans.sort_by(|a, b| (a.lane, a.start, b.dur).cmp(&(b.lane, b.start, a.dur)));
    let mut out = Folded::default();
    let Some(main_lane) = spans
        .iter()
        .min_by_key(|s| (s.start, u64::MAX - s.dur))
        .map(|s| s.lane)
    else {
        return Ok(out);
    };
    for b in BUCKETS {
        out.self_ms.insert(b, 0.0);
    }
    let mut child_us = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let s = &spans[i];
        *out.spans.entry(s.cat.clone()).or_default() += 1;
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.lane != s.lane || s.start >= t.start + t.dur {
                stack.pop();
            } else {
                break;
            }
        }
        match stack.last() {
            Some(&parent) => child_us[parent] += s.dur,
            None if s.lane != main_lane && s.cat == "worker" => {
                out.worker_ms.push(s.dur as f64 / 1e3)
            }
            None => {}
        }
        stack.push(i);
    }
    for (s, child) in spans.iter().zip(child_us) {
        if s.lane == main_lane {
            let self_us = s.dur.saturating_sub(child);
            *out.self_ms
                .get_mut(bucket(&s.cat, &s.name))
                .expect("every bucket listed") += self_us as f64 / 1e3;
        }
    }
    Ok(out)
}
