//! Output formats for findings: plain text and GitHub workflow
//! annotations. Hand-rolled (the linter is zero-dep by design — it
//! must gate every crate without sitting downstream of one).

use crate::pass::Diagnostic;
use std::fmt::Write;

/// The CLI's `--format` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `file:line: [pass] message`, one per finding.
    Text,
    /// `::error file=…,line=…` GitHub workflow annotations.
    Github,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

/// Renders the full report for one run.
pub fn render(format: Format, findings: &[Diagnostic]) -> String {
    match format {
        Format::Text => render_text(findings),
        Format::Github => render_github(findings),
    }
}

fn render_text(findings: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in findings {
        let _ = writeln!(out, "{d}");
    }
    if findings.is_empty() {
        let _ = writeln!(out, "obs_lint: workspace clean");
    } else {
        let _ = writeln!(out, "obs_lint: {} finding(s)", findings.len());
    }
    out
}

fn render_github(findings: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in findings {
        let _ = writeln!(
            out,
            "::error file={},line={},title=obs_lint {}::{}",
            property_escape(&d.file.display().to_string()),
            d.line,
            property_escape(d.pass.name()),
            data_escape(&d.message)
        );
    }
    let _ = writeln!(out, "obs_lint: {} finding(s)", findings.len());
    out
}

/// Escapes the message part of a workflow command.
fn data_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property (also `,` and `:`).
fn property_escape(s: &str) -> String {
    data_escape(s).replace(',', "%2C").replace(':', "%3A")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Pass;
    use std::path::PathBuf;

    fn diag(message: &str) -> Diagnostic {
        Diagnostic {
            file: PathBuf::from("crates/live/src/a.rs"),
            line: 7,
            pass: Pass::PanicReachability,
            message: message.to_owned(),
        }
    }

    #[test]
    fn github_annotations_escape_newlines_and_commas() {
        let d = diag("chain: a → b,\nthen c");
        let out = render_github(&[d]);
        assert!(out.starts_with("::error file=crates/live/src/a.rs,line=7,"));
        assert!(out.contains("%0A"));
        assert!(!out.lines().next().unwrap().contains('\n'));
    }
}
