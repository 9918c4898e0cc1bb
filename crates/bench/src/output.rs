//! Exhibit formatting and persistence.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One regenerated paper exhibit (a figure or table).
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Identifier, e.g. `"fig11"` or `"table2"`.
    pub id: String,
    /// Human title matching the paper caption.
    pub title: String,
    /// Rendered text (what gets printed).
    pub text: String,
    /// Machine-readable payload (what gets written to `results/`).
    pub json: serde_json::Value,
}

impl Exhibit {
    /// Creates an exhibit.
    pub fn new(id: &str, title: &str) -> Self {
        Exhibit {
            id: id.to_string(),
            title: title.to_string(),
            text: String::new(),
            json: serde_json::Value::Null,
        }
    }

    /// Appends one line to the rendered text.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Appends a formatted table from a header and rows.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut line = String::new();
        for (h, w) in header.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ", w = w);
        }
        self.line(line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        self.line("-".repeat(total.min(120)));
        for row in rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            self.line(line.trim_end());
        }
    }

    /// Prints the exhibit to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        println!("{}", self.text);
    }

    /// Writes the JSON payload to `dir/<id>.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join(format!("{}.json", self.id)),
            serde_json::to_string_pretty(&self.json).expect("serializable"),
        )
    }
}

/// Reads a JSON file back into a [`serde_json::Value`], mapping parse
/// failures to [`std::io::ErrorKind::InvalidData`] — how the golden gate
/// reads a committed golden.
///
/// # Errors
///
/// Returns the read error, or `InvalidData` when the contents do not parse.
pub fn load_json(path: &Path) -> std::io::Result<serde_json::Value> {
    let text = fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: malformed JSON: {e:?}", path.display()),
        )
    })
}

/// Formats a float with 3 decimals, or a marker for missing values.
pub fn fmt_acc(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "Fail".to_string(),
    }
}

/// Formats seconds as minutes with one decimal.
pub fn fmt_min(secs: f64) -> String {
    format!("{:.1}", secs / 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut e = Exhibit::new("t", "test");
        e.table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2.25".into()],
            ],
        );
        assert!(e.text.contains("name"));
        assert!(e.text.contains("longer"));
        let lines: Vec<&str> = e.text.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_acc(Some(0.9191)), "0.919");
        assert_eq!(fmt_acc(None), "Fail");
        assert_eq!(fmt_min(90.0), "1.5");
    }

    #[test]
    fn save_writes_json() {
        let mut e = Exhibit::new("unit_test_exhibit", "test");
        e.json = serde_json::json!({"x": 1});
        let dir = std::env::temp_dir().join("ss-bench-test");
        e.save(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("unit_test_exhibit.json")).unwrap();
        assert!(content.contains("\"x\": 1"));
    }

    #[test]
    fn save_and_load_json_round_trip() {
        let mut e = Exhibit::new("unit_test_round_trip", "test");
        e.json = serde_json::json!({"sweep": [{"workers": 4}]});
        let dir = std::env::temp_dir()
            .join("ss-bench-test-nested")
            .join("dir");
        e.save(&dir).unwrap();
        let v = load_json(&dir.join("unit_test_round_trip.json")).unwrap();
        let sweep = v.get("sweep").and_then(|s| s.as_array()).unwrap();
        assert_eq!(sweep[0].get("workers").and_then(|w| w.as_u64()), Some(4));
    }

    #[test]
    fn load_json_rejects_malformed() {
        let path = std::env::temp_dir().join("ss-bench-malformed.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(load_json(Path::new("/nonexistent/nope.json")).is_err());
    }
}
