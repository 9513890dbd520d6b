//! `sapla-audit` — in-repo static analysis and model checking for the
//! SAPLA workspace.
//!
//! Two subsystems:
//!
//! 1. **Lint pass** ([`lexer`], [`block`], [`lints`], [`lock_order`],
//!    [`allowlist`], [`walk`], [`run_audit`]): a dependency-free,
//!    hand-rolled Rust lexer plus a brace-tree/item parser drive seven
//!    project-specific lints over every `crates/*/src/**/*.rs` file —
//!    six per-file ([`lints`]) and one cross-file lock-acquisition
//!    analysis ([`lock_order`]). Violations must be fixed or
//!    allowlisted in `audit.toml` with a one-line justification; the
//!    `sapla-audit` binary exits nonzero on any unallowlisted finding
//!    *or* any stale allowlist entry, and CI runs it as a blocking
//!    gate (`just audit`).
//!
//! 2. **Interleaving explorer** ([`model`]; exercised by this crate's
//!    `tests/model.rs` and `tests/model_serve.rs`): a deterministic
//!    scheduler that enumerates interleavings of protocols written over
//!    its model-aware `AtomicCell`, `Mutex` and `Condvar` — the serve
//!    admission queue, with spurious-wakeup injection and deadlock
//!    detection — with bounded preemptions. Any failing schedule prints
//!    a replayable schedule ID.
//!
//! See DESIGN.md, "Static analysis & model checking".

pub mod allowlist;
pub mod block;
pub mod lexer;
pub mod lints;
pub mod lock_order;
pub mod model;
pub mod walk;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use allowlist::AllowEntry;
use lints::Finding;

/// Everything one audit run produced, pre-partitioned for reporting.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist entry — these fail the run.
    pub violations: Vec<Finding>,
    /// Findings absorbed by the allowlist, with the entry that did.
    pub allowlisted: Vec<(Finding, AllowEntry)>,
    /// Allowlist entries that matched nothing — these also fail the run.
    pub unused_allows: Vec<AllowEntry>,
    /// Number of files linted.
    pub files: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allows.is_empty()
    }

    /// Render the full human-readable report (diagnostics + summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.violations {
            let _ = writeln!(out, "{}", f.render());
        }
        for e in &self.unused_allows {
            let _ = writeln!(
                out,
                "audit.toml:{}: [stale-allow] entry ({} @ {} contains {:?}) matched nothing — \
                 remove it",
                e.line, e.lint, e.path, e.contains
            );
        }
        let _ = writeln!(
            out,
            "audit: {} file(s), {} violation(s), {} allowlisted, {} stale allowlist entr(ies)",
            self.files,
            self.violations.len(),
            self.allowlisted.len(),
            self.unused_allows.len()
        );
        out
    }
}

/// Errors that stop the audit before it can produce a [`Report`].
#[derive(Debug)]
pub enum AuditError {
    Io(String),
    Allowlist(Vec<String>),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io(msg) => write!(f, "{msg}"),
            AuditError::Allowlist(errs) => {
                writeln!(f, "audit.toml parse error(s):")?;
                for e in errs {
                    writeln!(f, "  audit.toml:{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Run the full lint pass over the workspace at `root`, applying the
/// allowlist at `root/audit.toml` (a missing allowlist is an empty
/// one).
pub fn run_audit(root: &Path) -> Result<Report, AuditError> {
    let allow_path = root.join("audit.toml");
    let entries = if allow_path.is_file() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| AuditError::Io(format!("read {}: {e}", allow_path.display())))?;
        allowlist::parse(&text).map_err(AuditError::Allowlist)?
    } else {
        Vec::new()
    };
    let files = walk::workspace_sources(root)
        .map_err(|e| AuditError::Io(format!("walk {}: {e}", root.display())))?;

    let mut report = Report { files: files.len(), ..Report::default() };
    let mut used = vec![false; entries.len()];
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let source = fs::read_to_string(&file.abs)
            .map_err(|e| AuditError::Io(format!("read {}: {e}", file.abs.display())))?;
        sources.push((file.rel.clone(), source));
    }
    let mut findings = Vec::new();
    for (rel, source) in &sources {
        findings.extend(lints::lint_file(rel, source));
    }
    // The lock-acquisition graph is cross-file: an inconsistent order
    // needs both directions, wherever each lives.
    findings.extend(lock_order::analyze(&sources));
    for finding in findings {
        match entries.iter().position(|e| e.matches(&finding)) {
            Some(idx) => {
                used[idx] = true;
                report.allowlisted.push((finding, entries[idx].clone()));
            }
            None => report.violations.push(finding),
        }
    }
    report.unused_allows =
        entries.iter().zip(&used).filter(|(_, &u)| !u).map(|(e, _)| e.clone()).collect();
    Ok(report)
}
