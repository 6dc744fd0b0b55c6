//! Workspace invariant checker driver.
//!
//! ```text
//! cargo run --release --bin orv-lint              # human output, exit 1 on findings
//! cargo run --release --bin orv-lint -- --json    # one JSON object per finding
//! cargo run --release --bin orv-lint -- --github  # GitHub Actions annotations
//! cargo run --release --bin orv-lint -- path/     # lint a different root
//! ```
//!
//! Exit codes: 0 clean, 1 findings (including malformed suppressions),
//! 2 I/O failure while walking or reading sources.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use orv_lint::{exit_code, lint_workspace, Diagnostic, RULE_IDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
orv-lint — workspace invariant checker (rules L003, L005, L007..L010; file
rules are DESIGN.md §10, structural rules L008..L010 are DESIGN.md §15;
L001, L002, L004 and L006 are enforced by clippy)

USAGE: orv-lint [--json | --github] [ROOT]

  --json    one JSON object per finding (JSON lines), no summary
  --github  GitHub Actions `::error` workflow commands, one per finding,
            so the CI gate renders findings as inline PR annotations
  ROOT      workspace root to lint (default: current directory)

Suppress a finding at its site with a justified comment:
  // orv-lint: allow(L003) -- <why this site is provably fine>
";

/// `::error file=…,line=…,title=…::…` — one workflow command per finding.
/// Evidence steps ride in the message (annotations are single blocks);
/// GitHub requires `%0A` for newlines inside a command value.
fn github_annotation(d: &Diagnostic) -> String {
    let mut msg = d.message.clone();
    for ev in &d.evidence {
        msg.push_str(&format!("%0A  {}:{}: {}", ev.file, ev.line, ev.note));
    }
    format!(
        "::error file={},line={},title=orv-lint {}::{}",
        d.file,
        d.line,
        d.rule,
        msg.replace('\n', "%0A")
    )
}

#[derive(PartialEq)]
enum Output {
    Human,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut output = Output::Human;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => output = Output::Json,
            "--github" => output = Output::Github,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let diags = match lint_workspace(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("orv-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    match output {
        Output::Json => {
            for d in &diags {
                println!("{}", d.to_json());
            }
        }
        Output::Github => {
            for d in &diags {
                println!("{}", github_annotation(d));
            }
        }
        Output::Human => {
            for d in &diags {
                println!("{}", d.human());
            }
            if diags.is_empty() {
                println!(
                    "orv-lint: clean ({} rules: {})",
                    RULE_IDS.len() - 1,
                    RULE_IDS[1..].join(", ")
                );
            } else {
                println!("orv-lint: {} finding(s)", diags.len());
            }
        }
    }
    ExitCode::from(exit_code(&diags))
}
