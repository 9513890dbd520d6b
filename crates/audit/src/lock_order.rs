//! `lock-order` — a static lock-acquisition analysis over the
//! concurrency crates (`crates/serve`, `crates/parallel`) and the model
//! checker's lock shims (`crates/audit/src/model.rs`).
//!
//! Three rules, built on [`crate::block`]'s brace tree and a
//! guard-scope approximation:
//!
//! 1. **Inconsistent order**: if one site acquires lock `b` while a
//!    guard for lock `a` is live, and another site (any file in scope)
//!    acquires `a` while holding `b`, both sites are flagged — a
//!    cross-thread deadlock needs only those two interleaved.
//! 2. **Double-lock**: acquiring a lock while a guard for the *same*
//!    lock is live self-deadlocks with `std::sync::Mutex` (UB-free but
//!    hangs forever).
//! 3. **Wait-in-loop**: in files that use `Condvar`, every `.wait(…)` /
//!    `.wait_timeout(…)` must sit inside a `loop`/`while`/`for` body in
//!    its function, because spurious wakeups mean the predicate must be
//!    re-checked (`wait_while` embeds the loop and is exempt).
//!
//! Locks are identified by the last field identifier of the acquiring
//! expression (`lock(&shared.queue)`, `self.queue.lock()` → `queue`) —
//! a name-based abstraction, so two fields with the same name on
//! different structs alias. Guard scopes: a `let g = <acq>;` binding
//! lives to the end of its block (truncated at `drop(g)`), anything
//! else is a temporary living to the end of its statement. Known false
//! negatives: acquisitions reached through function calls are not
//! inlined (the graph is per-function nesting only), and guards
//! returned from functions are not tracked.

use crate::block::BlockTree;
use crate::lexer::{lex, Tok, TokKind};
use crate::lints::Finding;

/// Path prefixes the lock-order analysis covers.
const SCOPE: &[&str] = &["crates/serve/", "crates/parallel/", "crates/audit/src/model.rs"];

/// One static lock acquisition site.
#[derive(Debug, Clone)]
struct Acq {
    /// Lock name (last field identifier of the acquiring expression).
    name: String,
    /// Token index of the acquisition.
    tok: usize,
    /// Token index at which the guard is dead.
    scope_end: usize,
    /// Source line of the acquisition.
    line: u32,
}

/// Run the analysis over every in-scope file of the workspace and
/// return findings (same shape as the per-file lints, same allowlist
/// machinery).
pub fn analyze(files: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    // (held, acquired) -> first site, for the cross-file order check.
    let mut edges: Vec<(String, String, String, u32, String)> = Vec::new();
    for (rel, source) in files {
        if !SCOPE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let toks = lex(source);
        let lines: Vec<&str> = source.lines().collect();
        let tree = BlockTree::build(&toks);
        let acqs = acquisitions(&toks, &tree);
        for (ai, a) in acqs.iter().enumerate() {
            for b in &acqs[ai + 1..] {
                if b.tok <= a.tok || b.tok > a.scope_end {
                    continue;
                }
                if b.name == a.name {
                    out.push(finding(
                        rel,
                        &lines,
                        b.line,
                        format!(
                            "`{}` acquired while a guard for `{}` is already live — \
                             self-deadlock with `std::sync` locks",
                            b.name, a.name
                        ),
                    ));
                } else if !edges.iter().any(|(h, q, ..)| h == &a.name && q == &b.name) {
                    edges.push((
                        a.name.clone(),
                        b.name.clone(),
                        rel.clone(),
                        b.line,
                        lines
                            .get(b.line as usize - 1)
                            .map_or_else(String::new, |l| (*l).to_string()),
                    ));
                }
            }
        }
        wait_in_loop(rel, &toks, &lines, &tree, &mut out);
    }
    for (i, (h1, q1, p1, l1, text1)) in edges.iter().enumerate() {
        for (h2, q2, p2, l2, text2) in &edges[i + 1..] {
            if h1 == q2 && q1 == h2 {
                for (ph, lh, texth, qh, hh, po, lo) in
                    [(p1, l1, text1, q1, h1, p2, l2), (p2, l2, text2, q2, h2, p1, l1)]
                {
                    out.push(Finding {
                        path: ph.clone(),
                        line: *lh,
                        lint: "lock-order",
                        message: format!(
                            "inconsistent lock order: `{qh}` acquired while holding `{hh}` \
                             here, but the reverse order occurs at {po}:{lo} — pick one global \
                             order"
                        ),
                        line_text: texth.clone(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn finding(rel: &str, lines: &[&str], line: u32, message: String) -> Finding {
    Finding {
        path: rel.to_string(),
        line,
        lint: "lock-order",
        message,
        line_text: lines.get(line as usize - 1).map_or_else(String::new, |l| (*l).to_string()),
    }
}

/// Collect acquisition sites with their guard scopes, in token order.
fn acquisitions(toks: &[Tok], tree: &BlockTree) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `lock(&shared.queue)` — the workspace's poison-ignoring
        // helper. Skip its own definition (`fn lock…`) and method
        // position (`.lock(` is handled below).
        let helper = toks[i].is_ident("lock")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && i.checked_sub(1).is_none_or(|k| !(toks[k].is_punct(".") || toks[k].is_ident("fn")));
        // `x.lock()` / `x.try_lock()` / `x.read()` / `x.write()` with
        // empty argument lists (so `io::Read::read(&mut buf)` and
        // friends don't fire).
        let method = toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| {
                matches!(n.text.as_str(), "lock" | "try_lock" | "read" | "write")
                    && n.kind == TokKind::Ident
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(")"));
        let (name, expr_end) = if helper {
            let Some(close) = matching_fwd(toks, i + 1, "(", ")") else { continue };
            let Some(name) = toks[i + 2..close].iter().rev().find(|t| t.kind == TokKind::Ident)
            else {
                continue;
            };
            (name.text.clone(), close)
        } else if method {
            // Receiver's last field identifier sits right before the dot.
            let Some(name) =
                i.checked_sub(1).map(|k| &toks[k]).filter(|t| t.kind == TokKind::Ident)
            else {
                continue;
            };
            (name.text.clone(), i + 3)
        } else {
            continue;
        };
        let line = toks[i].line;
        out.push(Acq { name, tok: i, scope_end: guard_scope_end(toks, tree, i, expr_end), line });
    }
    out
}

/// Where the guard acquired at `acq` (whose acquiring expression ends
/// at `expr_end`) dies.
fn guard_scope_end(toks: &[Tok], tree: &BlockTree, acq: usize, expr_end: usize) -> usize {
    // `let g = <acq-expr>;` — guard bound for the rest of the block.
    let next = (expr_end + 1..toks.len()).find(|&k| toks[k].kind != TokKind::Comment);
    let stmt_start = statement_start(toks, acq);
    let bound_let = next.is_some_and(|n| toks[n].is_punct(";"))
        && toks[stmt_start..acq].iter().any(|t| t.is_ident("let"));
    if bound_let {
        let block_end = tree.innermost(acq).map_or(toks.len() - 1, |b| tree.blocks[b].close);
        // The binding's name: first identifier after `let` (skipping
        // `mut`), used to honour an explicit `drop(name)`.
        let binding = toks[stmt_start..acq]
            .iter()
            .skip_while(|t| !t.is_ident("let"))
            .skip(1)
            .find(|t| t.kind == TokKind::Ident && t.text != "mut")
            .map(|t| t.text.clone());
        if let Some(bname) = binding {
            for k in expr_end..block_end {
                if toks[k].is_ident("drop")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(k + 2).is_some_and(|n| n.is_ident(&bname))
                    && toks.get(k + 3).is_some_and(|n| n.is_punct(")"))
                {
                    return k;
                }
            }
        }
        return block_end;
    }
    // Temporary guard: lives to the end of the enclosing statement.
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate().skip(expr_end + 1) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return k,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len() - 1
}

/// Token index where the statement containing `at` begins: just after
/// the previous `;`, `{` or `}` at this nesting level.
fn statement_start(toks: &[Tok], at: usize) -> usize {
    let mut k = at;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ";" | "{" | "}" => return k + 1,
            ")" | "]" => {
                let close_sym = t.text.clone();
                let open_sym = if close_sym == ")" { "(" } else { "[" };
                let mut depth = 1usize;
                while k > 0 && depth > 0 {
                    k -= 1;
                    if toks[k].is_punct(&close_sym) {
                        depth += 1;
                    } else if toks[k].is_punct(open_sym) {
                        depth -= 1;
                    }
                }
            }
            _ => {}
        }
    }
    0
}

/// Forward bracket matcher (same contract as `lints::matching`, local
/// copy to keep module boundaries simple).
fn matching_fwd(toks: &[Tok], open: usize, open_sym: &str, close_sym: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_sym) {
            depth += 1;
        } else if t.is_punct(close_sym) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Rule 3: `.wait(…)` / `.wait_timeout(…)` in Condvar-using files must
/// be inside a loop in their function.
fn wait_in_loop(rel: &str, toks: &[Tok], lines: &[&str], tree: &BlockTree, out: &mut Vec<Finding>) {
    if !toks.iter().any(|t| t.is_ident("Condvar")) {
        return;
    }
    for i in 0..toks.len() {
        let is_wait = toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| matches!(n.text.as_str(), "wait" | "wait_timeout"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("));
        if !is_wait {
            continue;
        }
        let in_loop = tree.enclosing_fn(i).is_some_and(|f| tree.in_loop_within_fn(i, f));
        if !in_loop {
            out.push(finding(
                rel,
                lines,
                toks[i + 1].line,
                format!(
                    "`.{}(…)` outside a predicate-checked loop — spurious wakeups require \
                     re-checking the condition (use `while !pred {{ guard = cv.wait(guard) }}` \
                     or `wait_while`)",
                    toks[i + 1].text
                ),
            ));
        }
    }
}
