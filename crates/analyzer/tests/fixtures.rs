//! Fixture suite for `iniva-lint`: known-bad snippets assert each rule
//! fires at the right line, known-good snippets assert silence (including
//! the lexer traps: `unsafe` inside strings, raw strings and nested block
//! comments), the suppression protocol is exercised end to end, and the
//! final test runs the analyzer over the live workspace asserting zero
//! unsuppressed findings — the same gate CI enforces via `iniva-lint
//! --check`.

use iniva_analyzer::rules::{
    RULE_ALLOW_REASON, RULE_BLOCKING, RULE_DECODE, RULE_PANIC, RULE_RELAXED, RULE_UNSAFE,
};
use iniva_analyzer::{analyze_source, analyze_workspace, load_config, Config, Finding};

/// A config that puts the fixture paths used below in every rule's scope.
fn fixture_cfg() -> Config {
    Config {
        hot_path_modules: vec!["crates/x/src/hot.rs".into()],
        relaxed_allowlist: vec!["crates/x/src/metrics.rs".into()],
        decode_modules: vec!["crates/x/src/decode.rs".into()],
        reactor_files: vec![
            "crates/x/src/poller.rs".into(),
            "crates/x/src/owned.rs".into(),
        ],
        node_local_files: vec!["crates/x/src/owned.rs".into()],
        exclude_dirs: Vec::new(),
    }
}

fn run(rel: &str, src: &str) -> Vec<Finding> {
    analyze_source(rel, src, &fixture_cfg())
}

fn active(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.is_active()).collect()
}

/// Assert exactly one active finding of `rule` at `line`.
fn assert_fires(findings: &[Finding], rule: &str, line: u32) {
    let hits: Vec<_> = active(findings)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected one {rule} finding, got {findings:?}"
    );
    assert_eq!(hits[0].line, line, "wrong line for {rule}: {findings:?}");
}

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_without_safety_comment_fires_at_the_unsafe_line() {
    let src = "fn f(p: *const u8) -> u8 {\n    let x = 1;\n    unsafe { *p }\n}\n";
    assert_fires(&run("crates/x/src/any.rs", src), RULE_UNSAFE, 3);
}

#[test]
fn unsafe_with_safety_comment_is_silent() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

#[test]
fn unsafe_rule_applies_even_in_test_paths() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_fires(&run("crates/x/tests/oracle.rs", src), RULE_UNSAFE, 2);
}

#[test]
fn unsafe_inside_string_literals_is_silent() {
    let src = r##"fn f() -> (&'static str, &'static str) {
    let a = "unsafe { transmute() }";
    let b = r#"unsafe fn g() {}"#;
    (a, b)
}
"##;
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

#[test]
fn unsafe_inside_nested_block_comments_is_silent() {
    let src = "/* outer /* unsafe { boom() } */ still one comment */\nfn ok() {}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

#[test]
fn unsafe_in_doc_comment_prose_is_silent() {
    let src = "/// Never uses `unsafe` anywhere.\nfn ok() {}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

// ------------------------------------------------------------ hot-path-panic

#[test]
fn unwrap_on_hot_path_fires() {
    let src = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    assert_fires(&run("crates/x/src/hot.rs", src), RULE_PANIC, 2);
}

#[test]
fn panic_macro_on_hot_path_fires() {
    let src = "fn f() {\n    let a = 1;\n    panic!(\"boom\");\n}\n";
    assert_fires(&run("crates/x/src/hot.rs", src), RULE_PANIC, 3);
}

#[test]
fn unwrap_off_hot_path_is_silent() {
    let src = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    assert!(active(&run("crates/x/src/cold.rs", src)).is_empty());
}

#[test]
fn unwrap_or_else_is_not_a_panic() {
    let src = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap_or_else(|| 0)\n}\n";
    assert!(active(&run("crates/x/src/hot.rs", src)).is_empty());
}

#[test]
fn unwrap_inside_cfg_test_module_on_hot_path_is_silent() {
    let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(v: Option<u8>) -> u8 {\n        v.unwrap()\n    }\n}\n";
    assert!(active(&run("crates/x/src/hot.rs", src)).is_empty());
}

// -------------------------------------------------- atomics-ordering-audit

#[test]
fn relaxed_without_order_comment_fires() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n";
    assert_fires(&run("crates/x/src/any.rs", src), RULE_RELAXED, 2);
}

#[test]
fn relaxed_with_order_comment_is_silent() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    // ORDER: monotone stat counter, nothing synchronizes on it.\n    c.load(Ordering::Relaxed)\n}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

#[test]
fn relaxed_in_allowlisted_module_is_silent() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n";
    assert!(active(&run("crates/x/src/metrics.rs", src)).is_empty());
}

#[test]
fn relaxed_in_import_line_is_silent() {
    let src = "use std::sync::atomic::Ordering::Relaxed;\nfn ok() {}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

// ----------------------------------------------------------- bounded-decode

#[test]
fn with_capacity_in_decode_module_fires() {
    let src = "fn f(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
    assert_fires(&run("crates/x/src/decode.rs", src), RULE_DECODE, 2);
}

#[test]
fn vec_repeat_macro_in_decode_module_fires() {
    let src = "fn f(n: usize) -> Vec<u8> {\n    vec![0u8; n]\n}\n";
    assert_fires(&run("crates/x/src/decode.rs", src), RULE_DECODE, 2);
}

#[test]
fn with_capacity_with_cap_comment_is_silent() {
    let src = "fn f(n: usize) -> Vec<u8> {\n    // CAP: n was checked against MAX above.\n    Vec::with_capacity(n)\n}\n";
    assert!(active(&run("crates/x/src/decode.rs", src)).is_empty());
}

#[test]
fn vec_list_macro_is_not_a_repeat_allocation() {
    let src = "fn f() -> Vec<u8> {\n    vec![1, 2, 3]\n}\n";
    assert!(active(&run("crates/x/src/decode.rs", src)).is_empty());
}

#[test]
fn with_capacity_outside_decode_modules_is_silent() {
    let src = "fn f(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

// --------------------------------------------------- no-blocking-on-reactor

#[test]
fn thread_sleep_on_reactor_file_fires() {
    let src = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert_fires(&run("crates/x/src/poller.rs", src), RULE_BLOCKING, 2);
}

#[test]
fn blocking_read_on_reactor_file_fires() {
    let src =
        "fn f(s: &mut std::net::TcpStream, buf: &mut [u8]) {\n    let _ = s.read_exact(buf);\n}\n";
    assert_fires(&run("crates/x/src/poller.rs", src), RULE_BLOCKING, 2);
}

#[test]
fn lock_across_flagged_syscall_fires() {
    let src = "fn f(m: &std::sync::Mutex<u64>, fd: i32) {\n    let n = sys::writev(fd, m.lock().unwrap().as_ptr());\n}\n";
    let findings = run("crates/x/src/poller.rs", src);
    assert!(
        active(&findings)
            .iter()
            .any(|f| f.rule == RULE_BLOCKING && f.line == 2),
        "lock across writev should fire: {findings:?}"
    );
}

#[test]
fn lock_in_node_local_file_fires() {
    let src = "use std::sync::Mutex;\nfn f(q: &Q) {\n    let n = q.depth();\n    relock(&q.m).push(n);\n    q.inner.lock().unwrap().clear();\n}\n";
    let findings = run("crates/x/src/owned.rs", src);
    let lines: Vec<u32> = active(&findings)
        .iter()
        .filter(|f| f.rule == RULE_BLOCKING)
        .map(|f| f.line)
        .collect();
    assert_eq!(
        lines,
        vec![1, 4, 5],
        "Mutex, relock( and .lock(: {findings:?}"
    );
    // The same code on a reactor file that is not node-local is silent:
    // a lock shared with a second thread is allowed there.
    assert!(active(&run("crates/x/src/poller.rs", src)).is_empty());
}

#[test]
fn lock_free_node_local_file_is_silent() {
    let src = "/// A queue, no `Mutex` needed.\nstruct Q { lock: bool, deadlock_free: Vec<u8> }\nfn f(q: &mut Q) -> bool {\n    q.deadlock_free.clear();\n    q.lock\n}\n#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u8>) {\n        let _ = m.lock();\n    }\n}\n";
    assert!(active(&run("crates/x/src/owned.rs", src)).is_empty());
}

#[test]
fn blocking_calls_off_reactor_files_are_silent() {
    let src = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(active(&run("crates/x/src/any.rs", src)).is_empty());
}

// -------------------------------------------------------------- suppression

#[test]
fn allow_with_reason_suppresses_and_records_the_reason() {
    let src = "fn f(v: Option<u8>) -> u8 {\n    // lint: allow(hot-path-panic) init-time only, config is trusted\n    v.unwrap()\n}\n";
    let findings = run("crates/x/src/hot.rs", src);
    assert!(active(&findings).is_empty(), "{findings:?}");
    let sup: Vec<_> = findings.iter().filter(|f| !f.is_active()).collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(sup[0].rule, RULE_PANIC);
    assert_eq!(
        sup[0].suppressed.as_deref(),
        Some("init-time only, config is trusted")
    );
}

#[test]
fn allow_without_reason_fires_the_meta_rule() {
    let src =
        "fn f(v: Option<u8>) -> u8 {\n    // lint: allow(hot-path-panic)\n    v.unwrap()\n}\n";
    let findings = run("crates/x/src/hot.rs", src);
    // The original finding is suppressed, but the reasonless allow itself
    // becomes an unsuppressed finding — so `--check` still fails.
    assert!(findings
        .iter()
        .any(|f| f.rule == RULE_PANIC && !f.is_active()));
    assert_fires(&findings, RULE_ALLOW_REASON, 2);
}

#[test]
fn allow_naming_an_unknown_rule_fires_the_meta_rule() {
    let src = "fn ok() {}\n// lint: allow(no-such-rule) because reasons\nfn also_ok() {}\n";
    let findings = run("crates/x/src/any.rs", src);
    assert_fires(&findings, RULE_ALLOW_REASON, 2);
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let src = "fn f(v: Option<u8>) -> u8 {\n    // lint: allow(bounded-decode) wrong rule named\n    v.unwrap()\n}\n";
    let findings = run("crates/x/src/hot.rs", src);
    assert_fires(&findings, RULE_PANIC, 3);
}

// ----------------------------------------------------------- live workspace

/// The same gate CI enforces: the analyzer over the real workspace, using
/// the real `analyzer.toml`, must report zero unsuppressed findings — and
/// every suppression that does exist must carry a written reason.
#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = load_config(&root).expect("analyzer.toml parses");
    let (findings, scanned) = analyze_workspace(&root, &cfg).expect("scan succeeds");
    assert!(
        scanned > 50,
        "scan should cover the workspace, saw {scanned} files"
    );
    let live: Vec<_> = findings.iter().filter(|f| f.is_active()).collect();
    assert!(
        live.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        live.iter()
            .map(|f| format!("  {} {}:{} — {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    for f in findings.iter().filter(|f| !f.is_active()) {
        let reason = f.suppressed.as_deref().unwrap_or_default();
        assert!(
            !reason.trim().is_empty(),
            "suppression at {}:{} carries no reason",
            f.file,
            f.line
        );
    }
}
