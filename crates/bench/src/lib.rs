#![warn(missing_docs)]

//! Shared harness utilities for the paper-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! Spangle paper (see DESIGN.md §3 for the index) and prints the same
//! rows/series the paper reports. Run them in release mode:
//!
//! ```text
//! cargo run -p spangle-bench --release --bin fig7
//! cargo run -p spangle-bench --release --bin fig8
//! cargo run -p spangle-bench --release --bin fig9a
//! cargo run -p spangle-bench --release --bin fig9b
//! cargo run -p spangle-bench --release --bin fig10
//! cargo run -p spangle-bench --release --bin fig11
//! cargo run -p spangle-bench --release --bin fig12
//! cargo run -p spangle-bench --release --bin table3
//! ```

use std::time::{Duration, Instant};

pub mod criterion;

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with two decimals, for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Seconds with three decimals, for table cells.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Mebibytes with two decimals.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// A simple fixed-width table printer for harness output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("| {} |", line.join(" | "));
        };
        print_row(&self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            print_row(row);
        }
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, description: &str) {
    println!("== {id}: {description}");
    println!("== cluster: simulated in-process executors; times are wall-clock on this machine");
    println!();
}

/// A JSON value for the machine-readable `BENCH_*.json` artifacts the
/// figure harnesses drop at the repository root. Hand-rolled because the
/// workspace carries no external dependencies.
#[derive(Clone, Debug)]
pub enum Json {
    /// An unsigned integer (counters, byte totals).
    U64(u64),
    /// A float (times in milliseconds, ratios).
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object entries.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:.3}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).render_into(out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a figure harness's machine-readable results to
/// `BENCH_<name>.json` at the repository root and prints the path.
pub fn write_bench_json(name: &str, value: &Json) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    let mut body = value.render();
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
        assert_eq!(secs(Duration::from_millis(2500)), "2.500");
        assert_eq!(mib(3 * 1024 * 1024), "3.00");
    }

    #[test]
    fn time_reports_the_closure_result() {
        let (value, elapsed) = time(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(elapsed < Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn json_renders_nested_values_with_escapes() {
        let v = Json::obj(vec![
            ("n", Json::U64(3)),
            ("t", Json::F64(1.5)),
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"n":3,"t":1.500,"s":"a\"b\\c\nd","xs":[1,2]}"#
        );
    }
}
