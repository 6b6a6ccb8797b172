//! Table printing, CSV output, and the `results/` file writer for the
//! experiment regenerators.

use std::io::Write;
use std::path::PathBuf;

/// A simple column-aligned table with a title, printed to stdout and
/// optionally persisted as CSV under the workspace `results/` directory.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are displayed verbatim).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string (what `print` writes to stdout).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write as CSV to `results/<name>.csv` (workspace root), returning
    /// the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(format!("{name}.csv"));
        std::fs::create_dir_all(path.parent().expect("has parent"))?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()?;
        Ok(path)
    }

    /// Print the table, then write it as `results/<name>.csv`.
    pub fn publish(&self, name: &str) -> std::io::Result<()> {
        self.print();
        self.write_csv(name).map(drop)
    }
}

/// Write `text` to `results/<name>`, creating the directory if needed,
/// and report the outcome on stdout/stderr. Errors are non-fatal (the
/// numbers were already printed); returns the path on success.
pub fn write_results_text(name: &str, text: &str) -> Option<PathBuf> {
    let path = results_dir().join(name);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(path.parent().expect("has parent"))?;
        let mut f = std::fs::File::create(&path)?;
        f.write_all(text.as_bytes())
    };
    match write() {
        Ok(()) => {
            println!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// The workspace `results/` directory (relative to this crate's
/// manifest: `crates/bench/../../results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}

/// Format a float with 4 significant decimals for table cells.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["p", "long-header"]);
        t.row(vec!["0.1".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert!(s.contains("0.1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("csv-test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let path = t.write_csv("_csv_selftest").expect("writable");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        let _ = std::fs::remove_file(path);
    }
}
