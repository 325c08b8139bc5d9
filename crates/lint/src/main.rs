//! CLI: `obs_lint check [ROOT] [--format text|github]`.
//!
//! Exits non-zero on any finding — CI runs this as a required gate,
//! so every finding is either fixed or carries a justified
//! `lint:allow` pragma.

use obs_lint::emit::{self, Format};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    format: Format,
}

fn usage() -> ExitCode {
    eprintln!("usage: obs_lint check [ROOT] [--format text|github]");
    eprintln!();
    eprintln!("Lints the workspace at ROOT (default: current directory)");
    eprintln!("with the repo-specific invariant passes:");
    for key in obs_lint::Pass::KEYS {
        let pass = obs_lint::Pass::from_key(key).expect("KEYS are valid keys");
        eprintln!("  {:<14} {}", key, pass.name());
    }
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("check") {
        return None;
    }
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut saw_root = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => format = Format::parse(&args.next()?)?,
            flag if flag.starts_with('-') => return None,
            path if !saw_root => {
                root = PathBuf::from(path);
                saw_root = true;
            }
            _ => return None,
        }
    }
    Some(Args { root, format })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let findings = obs_lint::check(&args.root);
    print!("{}", emit::render(args.format, &findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
