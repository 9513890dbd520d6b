//! Fixture tests for the seven lints: for each one a positive case
//! (the lint fires on a planted bug), a negative case (correct code
//! stays clean), and an allowlist case (a matching `audit.toml` entry
//! absorbs the finding). The final test runs the real audit over this
//! workspace and requires it to pass clean — the CI gate in test form.

use sapla_audit::allowlist::{self, AllowEntry};
use sapla_audit::lints::{lint_file, Finding};
use sapla_audit::{lock_order, run_audit};

const LIB: &str = "crates/core/src/fixture.rs";

fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_block_without_safety_comment_fires() {
    let src = r#"
pub fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["unsafe-safety"]);
    assert_eq!(f[0].line, 3);
    assert!(f[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_impl_without_safety_comment_fires() {
    let src = "struct S;\nunsafe impl Sync for S {}\n";
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["unsafe-safety"]);
}

#[test]
fn safety_comment_silences_unsafe() {
    let src = r#"
pub fn read(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads.
    unsafe { *p }
}

struct S;
// SAFETY: S holds no data.
unsafe impl Sync for S {}

// SAFETY: attributes between the comment and the impl are fine.
#[allow(dead_code)]
unsafe impl Send for S {}
"#;
    assert!(lint_file(LIB, src).is_empty());
}

#[test]
fn unsafe_fn_declarations_need_no_local_comment() {
    // The contract of an `unsafe fn` lives in its docs, not a comment.
    let src = "pub unsafe fn f() {}\npub unsafe trait T {}\n";
    assert!(lint_file(LIB, src).is_empty());
}

#[test]
fn unsafe_applies_even_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
    assert_eq!(lints_of(&lint_file(LIB, src)), ["unsafe-safety"]);
}

// -------------------------------------------------------------- no-panic

#[test]
fn unwrap_expect_panic_todo_fire_in_library_code() {
    let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a > b {
        panic!("impossible");
    }
    todo!()
}
"#;
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["no-panic"; 4]);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [3, 4, 6, 8]);
}

#[test]
fn test_code_and_harness_crates_are_exempt_from_no_panic() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}

#[test]
fn top_level_test() {
    None::<u32>.expect("fine");
}
"#;
    assert!(lint_file(LIB, src).is_empty());
    // The cli / bench / tests crates may panic freely.
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_file("crates/cli/src/main.rs", src).is_empty());
    assert!(lint_file("crates/bench/src/perf.rs", src).is_empty());
    assert!(lint_file("crates/tests/src/lib.rs", src).is_empty());
    // ...but library code next to a test module is still checked.
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(lints_of(&lint_file(LIB, src)), ["no-panic"]);
}

#[test]
fn lookalikes_do_not_fire() {
    let src = r##"
pub fn f(x: Option<u32>) -> u32 {
    // A comment mentioning .unwrap() and panic! is fine.
    let s = "so is .unwrap() inside a string, or panic!";
    let r = r#"and .expect("inside a raw string")"#;
    let _ = (s, r);
    x.unwrap_or_else(|| 7)
}
#[cfg(not(test))]
pub fn g(x: Option<u32>) -> u32 {
    x.unwrap()
}
"##;
    // `unwrap_or_else` is not `unwrap`; `cfg(not(test))` is NOT a test
    // gate, so `g` is still flagged.
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["no-panic"]);
    assert_eq!(f[0].line, 11);
}

// -------------------------------------------------------------- float-eq

#[test]
fn float_equality_fires_on_literals_and_constants() {
    let src = r#"
pub fn f(x: f64) -> bool {
    let a = x == 1.0;
    let b = x != 2.5e-3;
    let c = x == f64::INFINITY;
    a && b && c
}
"#;
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["float-eq"; 3]);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [3, 4, 5]);
}

#[test]
fn integer_equality_and_exempt_files_stay_clean() {
    let clean = r#"
pub fn f(x: usize, y: f64, z: f64) -> bool {
    let a = x == 1;
    let b = (y - 2.5).abs() < 1e-9;
    let c = y.to_bits() == z.to_bits() && y < 4.0;
    a && b && c
}
"#;
    // Bit comparison (`to_bits`), tolerance comparison and `<` ordering
    // are the sanctioned forms and stay clean.
    assert!(lint_file(LIB, clean).is_empty());
    // ordf64.rs implements the total order and may compare floats.
    let raw = "pub fn eq(a: f64, b: f64) -> bool { a == 1.0 }\n";
    assert!(lint_file("crates/core/src/ordf64.rs", raw).is_empty());
    // Test code is exempt.
    let test = "#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> bool { x == 1.0 }\n}\n";
    assert!(lint_file(LIB, test).is_empty());
}

// -------------------------------------------------------------- no-alloc

#[test]
fn allocations_fire_only_inside_annotated_functions() {
    let src = r#"
// audit: no_alloc
pub fn hot(buf: &mut Vec<u64>) -> String {
    let v = Vec::new();
    buf.push(1);
    let s = format!("{v:?}");
    s.clone()
}

pub fn cold() -> Vec<u64> {
    let mut v = Vec::new();
    v.push(1);
    v.clone()
}
"#;
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["no-alloc"; 3]);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [4, 6, 7]);
    assert!(f[0].message.contains("Vec::new") && f[0].message.contains("`hot`"));
    assert!(f[1].message.contains("format!"));
    assert!(f[2].message.contains(".clone()"));
}

#[test]
fn clean_annotated_function_passes() {
    let src = r#"
// audit: no_alloc — steady-state claim loop, no heap traffic.
#[inline]
pub fn claim(slots: &mut [u64], next: &mut usize) -> Option<u64> {
    let i = *next;
    if i >= slots.len() {
        return None;
    }
    *next = i + 1;
    Some(slots[i])
}
"#;
    assert!(lint_file(LIB, src).is_empty());
}

// --------------------------------------------------------- unsafe-bounds

#[test]
fn unsafe_raw_access_without_bounds_evidence_fires() {
    // Planted bug: a raw pointer walk in an `unsafe` block whose
    // function carries neither a `debug_assert!` nor a length-invariant
    // comment. The SAFETY comment satisfies `unsafe-safety` but says
    // nothing about bounds, so `unsafe-bounds` must still fire.
    let src = r#"
pub fn sum2(p: *const f64, off: usize) -> f64 {
    // SAFETY: caller passes a valid pointer.
    unsafe { *p.add(off) + *p.add(off + 1) }
}
"#;
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["unsafe-bounds"]);
    assert!(f[0].message.contains("`add`") && f[0].message.contains("`sum2`"));
}

#[test]
fn bounds_assert_or_invariant_comment_silences_unsafe_bounds() {
    let asserted = r#"
pub fn sum2(p: *const f64, off: usize, n: usize) -> f64 {
    debug_assert!(off + 1 < n);
    // SAFETY: caller passes a pointer valid for `n` reads.
    unsafe { *p.add(off) + *p.add(off + 1) }
}
"#;
    assert!(lint_file(LIB, asserted).is_empty());
    let commented = r#"
pub fn sum2(p: *const f64, off: usize) -> f64 {
    // SAFETY: `off + 1 < n` by the caller's contract, so both reads
    // stay in bounds of the allocation.
    unsafe { *p.add(off) + *p.add(off + 1) }
}
"#;
    assert!(lint_file(LIB, commented).is_empty());
}

#[test]
fn safe_target_feature_fn_needs_a_contract_comment() {
    // Planted bug: a safe `#[target_feature]` fn with no SAFETY
    // contract explaining why safe callers are sound.
    let src = "#[target_feature(enable = \"avx2\")]\nfn combine(a: u64) -> u64 { a }\n";
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["unsafe-bounds"]);
    assert!(f[0].message.contains("target_feature") && f[0].message.contains("`combine`"));

    let ok = "// SAFETY contract: argument types are only constructible under AVX2.\n\
              #[target_feature(enable = \"avx2\")]\n\
              fn combine(a: u64) -> u64 { a }\n";
    assert!(lint_file(LIB, ok).is_empty());
}

// --------------------------------------------------------- cast-truncate

#[test]
fn narrowing_cast_without_annotation_fires() {
    // Planted bug: a silent `usize → u32` truncation in library code.
    let src = "pub fn count(xs: &[u64]) -> u32 { xs.len() as u32 }\n";
    let f = lint_file(LIB, src);
    assert_eq!(lints_of(&f), ["cast-truncate"]);
    assert!(f[0].message.contains("try_from"));
}

#[test]
fn float_to_wide_integer_cast_fires_and_int_widening_stays_clean() {
    // `f64 → usize` truncates and saturates; the float evidence
    // (`.floor()`) makes the wide target suspicious.
    let f = lint_file(LIB, "pub fn bucket(x: f64) -> usize { x.floor() as usize }\n");
    assert_eq!(lints_of(&f), ["cast-truncate"]);
    // Pure integer widening to a wide target carries no float
    // evidence and stays clean, as do casts in test code.
    assert!(lint_file(LIB, "pub fn up(x: u16) -> usize { x as usize }\n").is_empty());
    let test = "#[cfg(test)]\nmod tests {\n    fn t(x: usize) -> u32 { x as u32 }\n}\n";
    assert!(lint_file(LIB, test).is_empty());
}

#[test]
fn cast_ok_annotation_needs_a_justification() {
    let justified = "// audit: cast_ok — partition_point over ≤ 256 breakpoints fits u8.\n\
                     pub fn f(n: usize) -> u8 { n as u8 }\n";
    assert!(lint_file(LIB, justified).is_empty());
    let bare = "pub fn f(n: usize) -> u8 { n as u8 } // audit: cast_ok\n";
    let f = lint_file(LIB, bare);
    assert_eq!(lints_of(&f), ["cast-truncate"]);
    assert!(f[0].message.contains("without a justification"));
}

// ------------------------------------------------------------ lock-order

/// Wrap fixture sources for `lock_order::analyze`, which takes the
/// whole workspace's `(rel_path, source)` list.
fn lock_fixture(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect();
    lock_order::analyze(&owned)
}

#[test]
fn inverted_lock_order_across_files_fires_at_both_sites() {
    // Planted bug: one site nests `streams` under `queue`, the other
    // nests `queue` under `streams` — a classic ABBA deadlock.
    let ab =
        "pub fn ab(s: &S) {\n    let g1 = s.queue.lock();\n    let g2 = s.streams.lock();\n}\n";
    let ba =
        "pub fn ba(s: &S) {\n    let g1 = s.streams.lock();\n    let g2 = s.queue.lock();\n}\n";
    let f = lock_fixture(&[("crates/serve/src/a.rs", ab), ("crates/serve/src/b.rs", ba)]);
    assert_eq!(lints_of(&f), ["lock-order", "lock-order"]);
    assert!(f.iter().all(|x| x.message.contains("inconsistent lock order")));
    assert_eq!(f[0].path, "crates/serve/src/a.rs");
    assert_eq!(f[1].path, "crates/serve/src/b.rs");
    // Out-of-scope crates are not analysed.
    assert!(lock_fixture(&[("crates/core/src/a.rs", ab), ("crates/core/src/b.rs", ba)]).is_empty());
}

#[test]
fn dropping_the_first_guard_removes_the_nesting() {
    let ab = "pub fn ab(s: &S) {\n    let g1 = s.queue.lock();\n    drop(g1);\n    let g2 = s.streams.lock();\n}\n";
    let ba = "pub fn ba(s: &S) {\n    let g1 = s.streams.lock();\n    drop(g1);\n    let g2 = s.queue.lock();\n}\n";
    assert!(
        lock_fixture(&[("crates/serve/src/a.rs", ab), ("crates/serve/src/b.rs", ba)]).is_empty()
    );
}

#[test]
fn double_lock_of_the_same_name_fires() {
    let src = "pub fn f(s: &S) {\n    let g1 = s.queue.lock();\n    let g2 = s.queue.lock();\n}\n";
    let f = lock_fixture(&[("crates/parallel/src/x.rs", src)]);
    assert_eq!(lints_of(&f), ["lock-order"]);
    assert!(f[0].message.contains("self-deadlock"));
}

#[test]
fn condvar_wait_outside_a_loop_fires() {
    // Planted bug: `if`-guarded wait — a spurious wakeup skips the
    // predicate re-check.
    let src = "use std::sync::{Condvar, Mutex};\n\
               pub fn f(cv: &Condvar, m: &Mutex<bool>) {\n\
               \x20   let mut g = m.lock();\n\
               \x20   if !*g {\n\
               \x20       g = cv.wait(g);\n\
               \x20   }\n\
               }\n";
    let f = lock_fixture(&[("crates/serve/src/x.rs", src)]);
    assert_eq!(lints_of(&f), ["lock-order"]);
    assert!(f[0].message.contains("predicate-checked loop"));

    let looped = "use std::sync::{Condvar, Mutex};\n\
                  pub fn f(cv: &Condvar, m: &Mutex<bool>) {\n\
                  \x20   let mut g = m.lock();\n\
                  \x20   while !*g {\n\
                  \x20       g = cv.wait(g);\n\
                  \x20   }\n\
                  }\n";
    assert!(lock_fixture(&[("crates/serve/src/x.rs", looped)]).is_empty());
    // `wait_while` embeds the loop and is exempt.
    let wait_while = "use std::sync::{Condvar, Mutex};\n\
                      pub fn f(cv: &Condvar, m: &Mutex<bool>) {\n\
                      \x20   let g = m.lock();\n\
                      \x20   let _g = cv.wait_while(g, |done| !*done);\n\
                      }\n";
    assert!(lock_fixture(&[("crates/serve/src/x.rs", wait_while)]).is_empty());
}

// ------------------------------------------------------------- allowlist

#[test]
fn allowlist_entry_absorbs_matching_findings_only() {
    let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    x.expect("invariant: caller checked")
}
pub fn g(x: Option<u32>) -> u32 {
    x.expect("a different message")
}
"#;
    let findings = lint_file(LIB, src);
    assert_eq!(findings.len(), 2);
    let entry = AllowEntry {
        lint: "no-panic".to_string(),
        path: LIB.to_string(),
        contains: "invariant: caller checked".to_string(),
        reason: "fixture".to_string(),
        line: 1,
    };
    let absorbed: Vec<_> = findings.iter().filter(|f| entry.matches(f)).collect();
    assert_eq!(absorbed.len(), 1);
    assert_eq!(absorbed[0].line, 3);
    // Wrong path: nothing matches.
    let elsewhere = AllowEntry { path: "crates/index/src/knn.rs".to_string(), ..entry };
    assert!(!findings.iter().any(|f| elsewhere.matches(f)));
}

#[test]
fn allowlist_rejects_malformed_files() {
    assert!(allowlist::parse("[[allow]]\nlint = \"no-panic\"\n").is_err());
    assert!(allowlist::parse("lint = \"orphan\"\n").is_err());
    assert!(allowlist::parse("").unwrap().is_empty());
}

/// A stale entry naming one of the block-structured lints is reported
/// like any other: the allowlist cannot quietly carry exemptions for
/// `unsafe-bounds` / `cast-truncate` / `lock-order` findings that no
/// longer exist.
#[test]
fn stale_allowlist_entries_for_new_lints_fail_the_audit() {
    let dir = sapla_core::temp::TempPath::new("sapla-audit-stale", "");
    let root = dir.path();
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(src_dir.join("lib.rs"), "pub fn id(x: u64) -> u64 { x }\n").unwrap();
    std::fs::write(
        root.join("audit.toml"),
        "[[allow]]\nlint = \"lock-order\"\npath = \"crates/core/src/lib.rs\"\n\
         contains = \"never matches anything\"\nreason = \"stale on purpose\"\n",
    )
    .unwrap();
    let report = run_audit(root).expect("audit runs");
    assert!(report.violations.is_empty());
    assert_eq!(report.unused_allows.len(), 1);
    assert_eq!(report.unused_allows[0].lint, "lock-order");
    assert!(!report.is_clean(), "a stale entry must fail the audit");
}

// --------------------------------------------------------- the real gate

/// The workspace itself must audit clean with its checked-in allowlist —
/// the same check CI runs via `cargo run -p sapla-audit`.
#[test]
fn workspace_passes_audit_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf();
    let started = std::time::Instant::now();
    let report = run_audit(&root).expect("audit runs");
    let elapsed = started.elapsed();
    assert!(report.files > 50, "walker found only {} files", report.files);
    assert!(
        report.is_clean(),
        "workspace has unallowlisted findings or stale allowlist entries:\n{}",
        report.render()
    );
    // The allowlist stays small and justified (acceptance: ≤ 15 entries).
    assert!(report.allowlisted.len() <= 15 * 3, "allowlist absorbing too much");
    // Runtime budget: the audit gates every CI run and `just ci`; the
    // full pass (lex + block trees + seven lints over the workspace)
    // must stay interactive. Debug-profile runs take well under 10 s.
    assert!(elapsed.as_secs() < 10, "audit took {elapsed:?} — over the 10 s budget");
}
