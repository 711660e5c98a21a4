//! Tabular experiment reports: built programmatically, rendered as
//! GitHub-flavoured markdown and serializable to JSON.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One experiment's output: a titled table plus free-form notes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Experiment id, e.g. "E4".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The paper artifact being reproduced ("Theorem 2", "Figure 1", ...).
    pub paper_claim: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Interpretation note appended under the table.
    pub notes: Vec<String>,
    /// Overall verdict: did the measured shape match the claim?
    pub pass: bool,
}

impl Report {
    /// Start a report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_claim: impl Into<String>,
        columns: &[&str],
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            paper_claim: paper_claim.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            pass: true,
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record a check; failing any check fails the report.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("PASS: {what}"));
        } else {
            self.notes.push(format!("FAIL: {what}"));
            self.pass = false;
        }
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {} — {}", self.id, self.title);
        let _ = writeln!(s, "\n*Paper claim:* {}\n", self.paper_claim);
        let _ = writeln!(s, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(s, "\n- {n}");
        }
        let _ = writeln!(
            s,
            "\n**Verdict: {}**\n",
            if self.pass { "reproduced" } else { "MISMATCH" }
        );
        s
    }
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut r = Report::new("E0", "demo", "claim", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.check(true, "looks good");
        let md = r.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("PASS"));
        assert!(md.contains("reproduced"));
    }

    #[test]
    fn failing_check_flips_verdict() {
        let mut r = Report::new("E0", "demo", "claim", &["a"]);
        r.check(false, "broken");
        assert!(!r.pass);
        assert!(r.to_markdown().contains("MISMATCH"));
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn row_length_is_enforced() {
        let mut r = Report::new("E0", "demo", "claim", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(1.23456), "1.2346");
    }
}
