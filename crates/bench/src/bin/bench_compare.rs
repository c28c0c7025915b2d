//! Perf-trajectory gate: compares a freshly regenerated `BENCH_*.json`
//! against the committed baseline and fails (exit 1) when the summed
//! wall-clock regresses beyond the allowed percentage.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json>
//! ```
//!
//! Only end-to-end timing keys (`wall_ms`, `total_ms`) count toward the
//! wall-clock comparison — per-iteration and build times are diagnostics,
//! and the counters (bytes, planner rewrites, speculation) are asserted
//! by the test suites, not by this gate. The threshold defaults to 25%
//! and can be widened/tightened with `BENCH_REGRESSION_PCT` for noisy
//! runners. Before that verdict every timing cell is printed on its own
//! row (baseline, current, change, largest increase first): the sum is
//! dominated by two or three cells, and the table is where the others
//! show.
//!
//! The gate also tracks the memory trajectory: `memory_peak_bytes` keys
//! (the run's post-spill resident peak) are summed and compared under
//! `BENCH_MEMORY_REGRESSION_PCT` (default 25%). A baseline that predates
//! the memory export skips this half of the gate rather than failing it.
//! Hand-rolled parsing because the workspace carries no external
//! dependencies.

use std::process::ExitCode;

/// The keys whose values are summed into each file's wall-clock score.
const TIMING_KEYS: &[&str] = &["wall_ms", "total_ms"];

/// The keys whose values are summed into each file's memory-peak score.
const MEMORY_KEYS: &[&str] = &["memory_peak_bytes"];

/// A minimal JSON value — just enough structure to walk the bench
/// artifacts. Numbers are kept as f64; `null` (an aborted timing) parses
/// as 0 so a baseline with a hole never divides the gate by nothing.
#[derive(Debug, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // The artifacts never emit surrogate pairs.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| !matches!(b, b'"' | b'\\'))
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    if p.peek().is_some() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

/// Named values of an artifact: `(cell, value)`.
type Cells = Vec<(String, f64)>;

/// Every numeric value stored under one of `keys`, at any nesting depth,
/// as `(cell, value)`. A cell is named by the `name` and `op` strings of
/// the objects that enclose it — `mouse-like/MtM`, `twitter-like` — and an
/// artifact-level value has the empty name.
fn cells(value: &Value, keys: &[&str]) -> Cells {
    fn walk(value: &Value, keys: &[&str], path: &mut Vec<String>, out: &mut Cells) {
        match value {
            Value::Arr(items) => items.iter().for_each(|v| walk(v, keys, path, out)),
            Value::Obj(entries) => {
                let depth = path.len();
                for (key, v) in entries {
                    if let ("name" | "op", Value::Str(s)) = (key.as_str(), v) {
                        path.push(s.clone());
                    }
                }
                for (key, v) in entries {
                    match v {
                        Value::Num(n) if keys.contains(&key.as_str()) => {
                            out.push((path.join("/"), *n))
                        }
                        nested => walk(nested, keys, path, out),
                    }
                }
                path.truncate(depth);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(value, keys, &mut Vec::new(), &mut out);
    out
}

/// Sums every numeric value stored under one of `keys`, at any nesting
/// depth.
fn sum_keys(value: &Value, keys: &[&str]) -> f64 {
    cells(value, keys).iter().map(|(_, v)| v).sum()
}

/// The per-key table printed before the summed verdict: every timing cell
/// of either artifact with its baseline, its fresh value and the change,
/// largest increase first. The verdict sums cells that span three orders
/// of magnitude, so a cell that tripled can hide in it; here it cannot.
fn per_key_table(baseline: &Cells, fresh: &Cells) -> String {
    let find =
        |cells: &[(String, f64)], key: &str| cells.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    let mut keys: Vec<&str> = baseline.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in fresh {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    let mut rows: Vec<(&str, Option<f64>, Option<f64>, f64)> = keys
        .into_iter()
        .map(|key| {
            let (b, f) = (find(baseline, key), find(fresh, key));
            let change = match (b, f) {
                (Some(b), Some(f)) if b > 0.0 => (f / b - 1.0) * 100.0,
                // Present on one side only: sorts below every real change.
                _ => f64::NEG_INFINITY,
            };
            (key, b, f, change)
        })
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max(3);
    let ms = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    let mut table = format!(
        "  {:<width$} {:>12} {:>12} {:>9}\n",
        "key", "baseline ms", "current ms", "change"
    );
    for (key, b, f, change) in rows {
        let change = if change.is_finite() {
            format!("{change:+.1}%")
        } else {
            "-".to_string()
        };
        table += &format!("  {key:<width$} {:>12} {:>12} {change:>9}\n", ms(b), ms(f));
    }
    table
}

/// One artifact's gated scores: its timing cells (their sum is the gated
/// wall-clock) and summed memory peak (0 when the file predates the memory
/// export).
fn load(path: &str) -> Result<(Cells, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let value = parse(&text).map_err(|err| format!("{path}: {err}"))?;
    let timings = cells(&value, TIMING_KEYS);
    if timings.iter().map(|(_, v)| v).sum::<f64>() <= 0.0 {
        return Err(format!(
            "{path}: no {TIMING_KEYS:?} keys found — wrong file?"
        ));
    }
    Ok((timings, sum_keys(&value, MEMORY_KEYS)))
}

fn pct_from_env(var: &str, default: f64) -> Result<f64, String> {
    match std::env::var(var) {
        Ok(raw) => raw
            .parse()
            .map_err(|_| format!("{var}={raw} is not a number")),
        Err(_) => Ok(default),
    }
}

/// The figure tag of an artifact path: `out/BENCH_fig10.json` → `fig10`.
/// Falls back to the file stem so hand-named files still get a label.
fn figure_label(path: &str) -> &str {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    stem.strip_prefix("BENCH_").unwrap_or(stem)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (pct, mem_pct) = match (
        pct_from_env("BENCH_REGRESSION_PCT", 25.0),
        pct_from_env("BENCH_MEMORY_REGRESSION_PCT", 25.0),
    ) {
        (Ok(p), Ok(m)) => (p, m),
        (p, m) => {
            for err in [p.err(), m.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::from(2);
        }
    };
    let ((baseline_cells, baseline_mem), (fresh_cells, fresh_mem)) =
        match (load(baseline_path), load(fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for err in [b.err(), f.err()].into_iter().flatten() {
                    eprintln!("{err}");
                }
                return ExitCode::from(2);
            }
        };
    let figure = figure_label(fresh_path);
    print!(
        "bench_compare {figure}: per-key wall, largest increase first\n{}",
        per_key_table(&baseline_cells, &fresh_cells)
    );
    let baseline: f64 = baseline_cells.iter().map(|(_, v)| v).sum();
    let fresh: f64 = fresh_cells.iter().map(|(_, v)| v).sum();
    let limit = baseline * (1.0 + pct / 100.0);
    let change = (fresh / baseline - 1.0) * 100.0;
    let memory = if baseline_mem > 0.0 {
        let mem_change = (fresh_mem / baseline_mem - 1.0) * 100.0;
        format!(
            "memory {:.0} KiB vs {:.0} KiB ({mem_change:+.1}%, limit +{mem_pct:.0}%)",
            fresh_mem / 1024.0,
            baseline_mem / 1024.0,
        )
    } else {
        "memory gate skipped (baseline has no memory_peak_bytes)".to_string()
    };
    // After the table, green runs get exactly one verdict line per figure
    // so CI logs still show the perf trajectory; the detail lines below
    // are failure-only.
    println!(
        "bench_compare {figure}: wall {fresh:.1} ms vs {baseline:.1} ms \
         ({change:+.1}%, limit +{pct:.0}%), {memory}"
    );
    let mut failed = false;
    if fresh > limit {
        eprintln!(
            "perf regression in {figure}: fresh wall-clock {fresh:.1} ms exceeds \
             {limit:.1} ms (+{pct:.0}% over baseline {baseline:.1} ms)"
        );
        failed = true;
    }
    if baseline_mem > 0.0 {
        let mem_limit = baseline_mem * (1.0 + mem_pct / 100.0);
        if fresh_mem > mem_limit {
            eprintln!(
                "memory regression in {figure}: fresh resident peak {:.0} KiB exceeds \
                 {:.0} KiB (+{mem_pct:.0}% over baseline {:.0} KiB)",
                fresh_mem / 1024.0,
                mem_limit / 1024.0,
                baseline_mem / 1024.0,
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_sums_nested_timing_keys() {
        let v = parse(
            r#"{"figure":"f","memory_peak_bytes":4096,"workloads":[
                {"ops":[{"op":"MxV","wall_ms":10.5},{"op":"MtM","wall_ms":2.0}]},
                {"total_ms":7.5,"build_ms":99.0,"note":"build time is not gated"}
            ]}"#,
        )
        .unwrap();
        assert!((sum_keys(&v, TIMING_KEYS) - 20.0).abs() < 1e-9);
        assert!((sum_keys(&v, MEMORY_KEYS) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn cells_are_named_by_their_enclosing_objects_and_tabled_by_change() {
        let baseline = parse(
            r#"{"figure":"f","workloads":[{"name":"mouse-like","ops":[
                {"op":"MxV","wall_ms":2.0,"queue_wait_ms":9.0},{"op":"MtM","wall_ms":400.0}]}],
                "graphs":[{"name":"twitter-like","build_ms":5.0,"total_ms":800.0}]}"#,
        )
        .unwrap();
        let fresh = parse(
            r#"{"workloads":[{"name":"mouse-like","ops":[
                {"op":"MxV","wall_ms":6.0},{"op":"MtM","wall_ms":380.0},{"op":"VtxM","wall_ms":1.0}]}],
                "graphs":[{"name":"twitter-like","total_ms":200.0}]}"#,
        )
        .unwrap();
        let (b, f) = (cells(&baseline, TIMING_KEYS), cells(&fresh, TIMING_KEYS));
        assert_eq!(
            b,
            vec![
                ("mouse-like/MxV".to_string(), 2.0),
                ("mouse-like/MtM".to_string(), 400.0),
                ("twitter-like".to_string(), 800.0),
            ]
        );
        // The sum falls by half while one cell triples: the table leads
        // with it.
        let table = per_key_table(&b, &f);
        let keys: Vec<&str> = table
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(
            keys,
            [
                "mouse-like/MxV",
                "mouse-like/MtM",
                "twitter-like",
                "mouse-like/VtxM"
            ]
        );
        assert!(
            table.contains("+200.0%") && table.contains("-75.0%"),
            "{table}"
        );
        let unmatched = table.lines().last().unwrap();
        assert!(unmatched.contains(" - ") && unmatched.trim_end().ends_with('-'));
    }

    #[test]
    fn pre_memory_baselines_sum_to_zero() {
        // A baseline generated before the memory export simply has no
        // such keys; the gate must read that as "skip", not fail.
        let v = parse(r#"{"workloads":[{"wall_ms":5.0}]}"#).unwrap();
        assert_eq!(sum_keys(&v, MEMORY_KEYS), 0.0);
    }

    #[test]
    fn null_timings_and_escapes_parse() {
        let v = parse(r#"{"total_ms":null,"s":"a\"bA\n","xs":[1,-2.5e1,true]}"#).unwrap();
        assert_eq!(sum_keys(&v, TIMING_KEYS), 0.0);
        match v {
            Value::Obj(entries) => {
                assert_eq!(entries[1].1, Value::Str("a\"bA\n".into()));
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn figure_labels_strip_the_artifact_prefix() {
        assert_eq!(figure_label("BENCH_fig10.json"), "fig10");
        assert_eq!(figure_label("/tmp/x/BENCH_fig11.json"), "fig11");
        assert_eq!(figure_label("custom.json"), "custom");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} junk").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,").is_err());
    }
}
