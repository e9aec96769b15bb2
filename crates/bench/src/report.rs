//! The one shape every `BENCH_*.json` report takes:
//!
//! ```text
//! {
//!   "experiment": "E19",
//!   "threads": 2,
//!   "parameters": { ... },
//!   "rows": [ { ... }, ... ]
//! }
//! ```
//!
//! `threads` is the host's hardware thread count, so every number
//! carries the machine it was measured on. A report is built as an
//! [`ermesd::json::Value`] and printed with its `to_string_pretty`,
//! which escapes strings, so every file parses with
//! [`ermesd::json::parse`]. A non-finite number is written as `null`.

use ermesd::json::Value;

/// A value a report field can hold.
pub trait Field {
    /// The field as JSON.
    fn into_value(self) -> Value;
}

impl Field for f64 {
    fn into_value(self) -> Value {
        if self.is_finite() {
            Value::Number(self)
        } else {
            Value::Null
        }
    }
}

impl Field for u64 {
    fn into_value(self) -> Value {
        Value::Number(self as f64)
    }
}

impl Field for usize {
    fn into_value(self) -> Value {
        Value::Number(self as f64)
    }
}

impl Field for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
}

impl Field for &str {
    fn into_value(self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Field> Field for Option<T> {
    fn into_value(self) -> Value {
        self.map_or(Value::Null, Field::into_value)
    }
}

impl<T: Field + Copy> Field for &[T] {
    fn into_value(self) -> Value {
        Value::Array(self.iter().map(|&v| v.into_value()).collect())
    }
}

/// An ordered set of named fields: one row, or a report's parameters.
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new() -> Self {
        Row::default()
    }

    /// The row with `key` appended.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Field) -> Self {
        self.0.push((key.to_string(), value.into_value()));
        self
    }
}

/// One experiment's machine-readable record.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: &'static str,
    parameters: Row,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report of `experiment` (an id such as `"E19"`).
    #[must_use]
    pub fn new(experiment: &'static str, parameters: Row) -> Self {
        Report {
            experiment,
            parameters,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The report as JSON.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("experiment".into(), Value::String(self.experiment.into())),
            ("threads".into(), parx::max_jobs().into_value()),
            (
                "parameters".into(),
                Value::Object(self.parameters.0.clone()),
            ),
            (
                "rows".into(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|row| Value::Object(row.0.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the report to `path` and says so on standard output (a
    /// failed write is reported on standard error and does not stop the
    /// run).
    pub fn write(&self, path: &str) {
        let mut text = self.to_value().to_string_pretty();
        text.push('\n');
        match std::fs::write(path, text) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("\ncould not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_parse_back_with_one_top_level_shape() {
        let mut report = Report::new(
            "E0",
            Row::new()
                .with("targets", &[1u64, 2, 3][..])
                .with("system", "a \"quoted\" name\\"),
        );
        report.push(
            Row::new()
                .with("ms", 1.5)
                .with("skipped", None::<f64>)
                .with("ratio", f64::NAN)
                .with("ok", true)
                .with("count", 7usize),
        );
        let text = report.to_value().to_string_pretty();
        let parsed = ermesd::json::parse(&text).expect("the report is JSON");
        let Value::Object(fields) = &parsed else {
            panic!("top level is an object: {text}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "threads", "parameters", "rows"]);
        assert_eq!(parsed.get("experiment").and_then(Value::as_str), Some("E0"));
        assert!(parsed.get("threads").and_then(Value::as_u64) >= Some(1));
        let parameters = parsed.get("parameters").expect("parameters");
        assert_eq!(
            parameters.get("system").and_then(Value::as_str),
            Some("a \"quoted\" name\\")
        );
        assert_eq!(
            parameters
                .get("targets")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(3)
        );
        let rows = parsed.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("ms").and_then(Value::as_f64), Some(1.5));
        assert_eq!(rows[0].get("skipped"), Some(&Value::Null));
        assert_eq!(rows[0].get("ratio"), Some(&Value::Null));
        assert_eq!(rows[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(rows[0].get("count").and_then(Value::as_u64), Some(7));
    }
}
