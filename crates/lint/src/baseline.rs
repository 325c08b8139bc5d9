//! The ratchet baseline.
//!
//! `LINT_BASELINE.tsv` (committed at the workspace root) records the
//! accepted pre-existing findings so that turning on a new pass
//! doesn't block CI on day one while *new* findings still fail the
//! gate. Entries match on `(file, pass-key, message)` — line numbers
//! are deliberately excluded so unrelated edits that shift a finding
//! up or down don't un-baseline it. The file is plain tab-separated
//! text so diffs review like code; burn-down means deleting lines.

use crate::pass::Diagnostic;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// The default baseline file name, resolved against the lint root.
pub const DEFAULT_FILE: &str = "LINT_BASELINE.tsv";

/// A loaded ratchet baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// Parses the tab-separated text. Blank lines and `#` comments
    /// are skipped; short lines are ignored (they can match
    /// nothing).
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.splitn(3, '\t');
            if let (Some(file), Some(key), Some(message)) = (cols.next(), cols.next(), cols.next())
            {
                entries.insert((file.to_owned(), key.to_owned(), message.to_owned()));
            }
        }
        Baseline { entries }
    }

    /// Loads the baseline at `path`; a missing file is an empty
    /// baseline (the ratchet starts fully engaged), any other I/O
    /// error propagates.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(err) => Err(err),
        }
    }

    /// Whether the finding is covered by a baseline entry.
    pub fn contains(&self, d: &Diagnostic) -> bool {
        self.entries.contains(&(
            d.file.display().to_string(),
            d.pass.key().to_owned(),
            d.message.clone(),
        ))
    }

    /// Splits findings into (new, baselined).
    pub fn partition<'a>(
        &self,
        findings: &'a [Diagnostic],
    ) -> (Vec<&'a Diagnostic>, Vec<&'a Diagnostic>) {
        findings.iter().partition(|d| !self.contains(d))
    }

    /// Renders findings as baseline text (stable order, deduped —
    /// two findings differing only by line collapse to one entry).
    pub fn render(findings: &[Diagnostic]) -> String {
        let rows: BTreeSet<String> = findings
            .iter()
            .map(|d| format!("{}\t{}\t{}", d.file.display(), d.pass.key(), d.message))
            .collect();
        let mut out = String::from(
            "# obs_lint ratchet baseline: accepted pre-existing findings.\n\
             # Matching is (file, pass-key, message); lines are not part of the key.\n\
             # Regenerate with `obs_lint check --write-baseline`; burn-down = delete rows.\n",
        );
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Pass;
    use std::path::PathBuf;

    fn diag(file: &str, line: u32, pass: Pass, message: &str) -> Diagnostic {
        Diagnostic {
            file: PathBuf::from(file),
            line,
            pass,
            message: message.to_owned(),
        }
    }

    #[test]
    fn round_trip_ignores_lines() {
        let findings = vec![
            diag("crates/live/src/a.rs", 10, Pass::PanicFreedom, "boom"),
            diag("crates/live/src/a.rs", 99, Pass::PanicFreedom, "boom"),
        ];
        let baseline = Baseline::parse(&Baseline::render(&findings));
        let moved = diag("crates/live/src/a.rs", 1234, Pass::PanicFreedom, "boom");
        assert!(baseline.contains(&moved));
        let other = diag("crates/live/src/a.rs", 10, Pass::CommitOrdering, "boom");
        assert!(!baseline.contains(&other));
    }

    #[test]
    fn partition_separates_new_findings() {
        let old = diag("a.rs", 1, Pass::PanicReachability, "stale");
        let baseline = Baseline::parse(&Baseline::render(std::slice::from_ref(&old)));
        let fresh = diag("a.rs", 2, Pass::PanicReachability, "brand new");
        let findings = vec![old.clone(), fresh.clone()];
        let (new, baselined) = baseline.partition(&findings);
        assert_eq!(new, vec![&fresh]);
        assert_eq!(baselined, vec![&old]);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let baseline = Baseline::parse("# header\n\na.rs\tpanic\tmsg\n");
        assert!(baseline.contains(&diag("a.rs", 7, Pass::PanicFreedom, "msg")));
    }
}
