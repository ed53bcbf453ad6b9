//! The rule engine: six token-level rules plus the suppression protocol.
//!
//! Rules operate on the token/comment stream from [`crate::lexer`]; none of
//! them parse full Rust. Each rule reports a [`Finding`] at a 1-indexed line;
//! the engine then resolves inline suppressions of the form
//! `// lint: allow(<rule>) <reason>` placed on the same line or immediately
//! above the flagged site (comments, blank lines and attributes may sit in
//! between). A suppression without a written reason produces its own
//! `allow-missing-reason` finding, so reasons are enforceable.

use crate::config::Config;
use crate::lexer::{lex, Lexed, TokKind, Token};

/// Rule: every `unsafe` must be immediately preceded by a `// SAFETY:` comment.
pub const RULE_UNSAFE: &str = "unsafe-safety-comment";
/// Rule: no `unwrap`/`expect`/`panic!`-family calls in adversary-facing modules.
pub const RULE_PANIC: &str = "hot-path-panic";
/// Rule: `Ordering::Relaxed` outside allowlisted modules needs an `// ORDER:` note.
pub const RULE_RELAXED: &str = "atomics-ordering-audit";
/// Rule: size-taking allocations in decode modules need a `// CAP:` note.
pub const RULE_DECODE: &str = "bounded-decode";
/// Rule: no blocking calls / locks across syscalls in reactor-thread files.
pub const RULE_BLOCKING: &str = "no-blocking-on-reactor";
/// Rule: in the protocol modules only `verify_recorded` calls the scheme's
/// `verify`/`verify_batch`.
pub const RULE_VERIFY_SITE: &str = "one-verification-site";
/// Meta-rule: a `// lint: allow(...)` suppression must carry a reason.
pub const RULE_ALLOW_REASON: &str = "allow-missing-reason";

/// All primary rule names (excludes the meta-rule).
pub const ALL_RULES: &[&str] = &[
    RULE_UNSAFE,
    RULE_PANIC,
    RULE_RELAXED,
    RULE_DECODE,
    RULE_BLOCKING,
    RULE_VERIFY_SITE,
];

/// How far above a flagged line an annotation or suppression may sit
/// (comments, blanks and attribute lines in between do not break the chain;
/// any other code line does).
const MARKER_WINDOW: u32 = 12;

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Repo-relative path of the file.
    pub file: String,
    /// 1-indexed line of the flagged site.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` when an inline `lint: allow` suppressed this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    /// True when the finding is live (not suppressed by an allow with reason).
    pub fn is_active(&self) -> bool {
        self.suppressed.is_none()
    }
}

/// Panic-family method calls flagged on hot paths (as `.name(`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Panic-family macros flagged on hot paths (as `name!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Method calls that block the calling thread (as `.name(`).
const BLOCKING_METHODS: &[&str] = &[
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "join",
];
/// Raw syscall wrappers a lock must not be held across on a reactor thread.
const FLAGGED_SYSCALLS: &[&str] = &[
    "epoll_wait",
    "epoll_pwait",
    "epoll_pwait2",
    "writev",
    "writev_fd",
    "connect_v4",
    "connect_v6",
    "connect_nonblocking",
];

/// The one protocol function that may call the scheme's verification: it
/// charges the batch and records it in the histogram and the trace.
const VERIFY_SITE: &str = "verify_recorded";
/// The scheme's verification methods (as `.name(` or `::name(`).
const VERIFY_METHODS: &[&str] = &["verify", "verify_batch"];

/// Does repo-relative `rel` match configured path `pat` (suffix match on `/`
/// boundaries, so `transport/src/reactor.rs` matches
/// `crates/transport/src/reactor.rs`)?
fn path_matches(rel: &str, pat: &str) -> bool {
    rel == pat || rel.ends_with(&format!("/{pat}"))
}

fn in_list(rel: &str, pats: &[String]) -> bool {
    pats.iter().any(|p| path_matches(rel, p))
}

/// Is `rel` inside configured directory `dir` (a prefix on `/`
/// boundaries, matched like [`path_matches`])?
fn in_dir(rel: &str, dirs: &[String]) -> bool {
    dirs.iter().any(|d| {
        let d = d.trim_end_matches('/');
        rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"))
    })
}

/// Is `rel` a test module by its name (`tests.rs`, `*_tests.rs`,
/// `testkit.rs`): a file its parent declares under `#[cfg(test)]`, so its
/// own tokens carry no test attribute?
fn is_test_module_name(rel: &str) -> bool {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    name == "tests.rs" || name == "testkit.rs" || name.ends_with("_tests.rs")
}

/// Is the whole file test/bench code (skipped by every rule except
/// `unsafe-safety-comment`)?
fn is_test_path(rel: &str) -> bool {
    let rel = rel.trim_start_matches("./");
    rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
}

/// Analyze one source file. `rel` is its repo-relative path with `/`
/// separators; rule applicability is decided from `cfg`'s module lists.
pub fn analyze_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let lx = lex(src);
    let mask = if is_test_path(rel) {
        vec![true; lx.tokens.len()]
    } else {
        test_token_mask(&lx.tokens)
    };

    let mut raw: Vec<Finding> = Vec::new();
    rule_unsafe(rel, &lx, &mut raw);
    if in_list(rel, &cfg.hot_path_modules) {
        rule_panic(rel, &lx, &mask, &mut raw);
    }
    if !in_list(rel, &cfg.relaxed_allowlist) {
        rule_relaxed(rel, &lx, &mask, &mut raw);
    }
    if in_list(rel, &cfg.decode_modules) {
        rule_decode(rel, &lx, &mask, &mut raw);
    }
    if in_list(rel, &cfg.reactor_files) {
        rule_blocking(rel, &lx, &mask, &mut raw);
    }
    if in_list(rel, &cfg.node_local_files) {
        rule_node_local(rel, &lx, &mask, &mut raw);
    }
    if in_dir(rel, &cfg.verify_site_dirs) && !is_test_module_name(rel) {
        rule_verify_site(rel, &lx, &mask, &mut raw);
    }

    resolve_suppressions(rel, &lx, raw)
}

/// Rule 1: `unsafe` needs `// SAFETY:` directly above (or trailing on the
/// same line). Applies everywhere, including test code — unsafety does not
/// become self-evident inside a test.
fn rule_unsafe(rel: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    for t in &lx.tokens {
        if t.is_ident("unsafe") && !has_marker(lx, t.line, "SAFETY:") {
            out.push(Finding {
                rule: RULE_UNSAFE,
                file: rel.to_string(),
                line: t.line,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment"
                    .to_string(),
                suppressed: None,
            });
        }
    }
}

/// Rule 2: panic-family calls in adversary-facing modules.
fn rule_panic(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if i + 2 < t.len()
            && t[i].is_punct('.')
            && t[i + 1].kind == TokKind::Ident
            && PANIC_METHODS.contains(&t[i + 1].text.as_str())
            && t[i + 2].is_punct('(')
        {
            out.push(Finding {
                rule: RULE_PANIC,
                file: rel.to_string(),
                line: t[i + 1].line,
                message: format!(
                    "`.{}()` on an adversary-facing path; return an error or tear the \
                     connection down instead",
                    t[i + 1].text
                ),
                suppressed: None,
            });
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
        if i + 1 < t.len()
            && t[i].kind == TokKind::Ident
            && PANIC_MACROS.contains(&t[i].text.as_str())
            && t[i + 1].is_punct('!')
        {
            out.push(Finding {
                rule: RULE_PANIC,
                file: rel.to_string(),
                line: t[i].line,
                message: format!("`{}!` on an adversary-facing path", t[i].text),
                suppressed: None,
            });
        }
    }
}

/// Rule 3: `Ordering::Relaxed` (or an imported bare `Relaxed` in argument
/// position) needs an `// ORDER:` comment explaining why relaxed is sound.
fn rule_relaxed(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        if mask[i] || !t[i].is_ident("Relaxed") {
            continue;
        }
        let qualified = i >= 3
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t[i - 3].is_ident("Ordering");
        let arg_position = i + 1 < t.len() && (t[i + 1].is_punct(')') || t[i + 1].is_punct(','));
        // `use ...::Ordering::Relaxed;` names the ordering without
        // performing an atomic op; the use *sites* are what need auditing.
        if lx
            .first_token_on(t[i].line)
            .is_some_and(|f| f.is_ident("use"))
        {
            continue;
        }
        if (qualified || arg_position) && !has_marker(lx, t[i].line, "ORDER:") {
            out.push(Finding {
                rule: RULE_RELAXED,
                file: rel.to_string(),
                line: t[i].line,
                message: "`Ordering::Relaxed` without an `// ORDER:` comment stating why \
                          relaxed is sound"
                    .to_string(),
                suppressed: None,
            });
        }
    }
}

/// Rule 4: size-taking allocations in decode modules (`with_capacity(n)`,
/// `vec![x; n]`) need a `// CAP:` comment pointing at the bound check.
fn rule_decode(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        if t[i].is_ident("with_capacity")
            && i + 1 < t.len()
            && t[i + 1].is_punct('(')
            && !has_marker(lx, t[i].line, "CAP:")
        {
            out.push(Finding {
                rule: RULE_DECODE,
                file: rel.to_string(),
                line: t[i].line,
                message: "`with_capacity` in a decode module without a `// CAP:` comment \
                          naming the length bound"
                    .to_string(),
                suppressed: None,
            });
        }
        // vec![elem; n]
        if t[i].is_ident("vec")
            && i + 2 < t.len()
            && t[i + 1].is_punct('!')
            && t[i + 2].is_punct('[')
        {
            let mut depth = 1i32;
            let mut j = i + 3;
            let mut repeat = false;
            while j < t.len() && depth > 0 {
                if t[j].kind == TokKind::Punct {
                    match t[j].text.as_str() {
                        "[" | "(" | "{" => depth += 1,
                        "]" | ")" | "}" => depth -= 1,
                        ";" if depth == 1 => repeat = true,
                        _ => {}
                    }
                }
                j += 1;
            }
            if repeat && !has_marker(lx, t[i].line, "CAP:") {
                out.push(Finding {
                    rule: RULE_DECODE,
                    file: rel.to_string(),
                    line: t[i].line,
                    message: "`vec![_; n]` in a decode module without a `// CAP:` comment \
                              naming the length bound"
                        .to_string(),
                    suppressed: None,
                });
            }
        }
    }
}

/// Rule 5: blocking constructs in files that run on the reactor/poller
/// thread: `std::thread::sleep`, blocking I/O and channel/`Condvar` method
/// calls, and taking a lock in the same statement as a flagged raw syscall.
fn rule_blocking(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        if t[i].is_ident("thread")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("sleep")
        {
            out.push(Finding {
                rule: RULE_BLOCKING,
                file: rel.to_string(),
                line: t[i + 3].line,
                message: "`thread::sleep` on a reactor-thread file stalls the poller".to_string(),
                suppressed: None,
            });
        }
        if i + 2 < t.len()
            && t[i].is_punct('.')
            && t[i + 1].kind == TokKind::Ident
            && BLOCKING_METHODS.contains(&t[i + 1].text.as_str())
            && t[i + 2].is_punct('(')
        {
            out.push(Finding {
                rule: RULE_BLOCKING,
                file: rel.to_string(),
                line: t[i + 1].line,
                message: format!(
                    "blocking call `.{}()` on a reactor-thread file",
                    t[i + 1].text
                ),
                suppressed: None,
            });
        }
    }
    // Lock taken in the same statement as a flagged syscall. Statements are
    // approximated by splitting the token stream on `;`, `{` and `}`; this
    // cannot see a guard binding that outlives its statement, but catches
    // the direct `relock(&m).something(sys::writev(..))` shape.
    let mut seg_start = 0usize;
    for i in 0..=t.len() {
        let boundary = i == t.len()
            || (t[i].kind == TokKind::Punct && matches!(t[i].text.as_str(), ";" | "{" | "}"));
        if !boundary {
            continue;
        }
        check_lock_segment(rel, t, mask, seg_start, i, out);
        seg_start = i + 1;
    }
}

/// Rule 5, node-local half: a file whose state only the node's own thread
/// touches names no `Mutex`/`RwLock` and takes no lock (`relock(`,
/// `.lock(`). A lock there means a second thread shares the state, or a
/// lock nobody needs.
fn rule_node_local(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        if mask[i] || t[i].kind != TokKind::Ident {
            continue;
        }
        let called = t.get(i + 1).is_some_and(|n| n.is_punct('('));
        let lock = match t[i].text.as_str() {
            "Mutex" | "RwLock" => true,
            "relock" => called,
            "lock" => called && i > 0 && t[i - 1].is_punct('.'),
            _ => false,
        };
        if lock {
            out.push(Finding {
                rule: RULE_BLOCKING,
                file: rel.to_string(),
                line: t[i].line,
                message: format!(
                    "`{}` in a node-local file: only the node's thread touches this state",
                    t[i].text
                ),
                suppressed: None,
            });
        }
    }
}

/// Rule 6: in the protocol modules, a call of the scheme's `verify` or
/// `verify_batch` (`.verify(`, `::verify_batch(`, ...) outside the body of
/// `fn verify_recorded` is a finding: every verification is charged and
/// traced at that one site. The cost model's `cost.verify_batch(..)`
/// charges a batch and verifies nothing, so it is not a call of this kind.
fn rule_verify_site(rel: &str, lx: &Lexed, mask: &[bool], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    let site = fn_body_spans(t, VERIFY_SITE);
    for i in 1..t.len() {
        if mask[i]
            || t[i].kind != TokKind::Ident
            || !VERIFY_METHODS.contains(&t[i].text.as_str())
            || !t.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let method = t[i - 1].is_punct('.');
        let path = t[i - 1].is_punct(':');
        let charge = method && i >= 2 && t[i - 2].is_ident("cost");
        if !(method || path) || charge || site.iter().any(|&(a, b)| a < i && i < b) {
            continue;
        }
        out.push(Finding {
            rule: RULE_VERIFY_SITE,
            file: rel.to_string(),
            line: t[i].line,
            message: format!(
                "`{}(` outside `{VERIFY_SITE}`: the protocol verifies only there, charged \
                 and traced",
                t[i].text
            ),
            suppressed: None,
        });
    }
}

/// Token index spans `(open, close)` of the brace bodies of every
/// `fn <name>` in `t`.
fn fn_body_spans(t: &[Token], name: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..t.len().saturating_sub(1) {
        if !(t[i].is_ident("fn") && t[i + 1].is_ident(name)) {
            continue;
        }
        let Some(open) = (i + 2..t.len()).find(|&k| t[k].is_punct('{') || t[k].is_punct(';'))
        else {
            continue;
        };
        if !t[open].is_punct('{') {
            continue;
        }
        let mut depth = 0i32;
        for (k, tok) in t.iter().enumerate().skip(open) {
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    spans.push((open, k));
                    break;
                }
            }
        }
    }
    spans
}

fn check_lock_segment(
    rel: &str,
    t: &[Token],
    mask: &[bool],
    start: usize,
    end: usize,
    out: &mut Vec<Finding>,
) {
    let seg = &t[start..end.min(t.len())];
    let lock = seg.iter().enumerate().find(|(k, tok)| {
        (tok.is_ident("lock") || tok.is_ident("relock"))
            && start + k < mask.len()
            && !mask[start + k]
            && seg.get(k + 1).map(|n| n.is_punct('(')).unwrap_or(false)
    });
    let Some((_, lock_tok)) = lock else { return };
    let syscall = seg
        .iter()
        .find(|tok| tok.kind == TokKind::Ident && FLAGGED_SYSCALLS.contains(&tok.text.as_str()));
    if let Some(sc) = syscall {
        out.push(Finding {
            rule: RULE_BLOCKING,
            file: rel.to_string(),
            line: lock_tok.line,
            message: format!(
                "lock acquired in the same statement as syscall `{}` on the reactor thread",
                sc.text
            ),
            suppressed: None,
        });
    }
}

/// Does `line` (or the comment chain immediately above it) contain `marker`?
fn has_marker(lx: &Lexed, line: u32, marker: &str) -> bool {
    find_in_comment_chain(lx, line, |text| text.contains(marker)).is_some()
}

/// Walk the comment chain at/above `line`: the line itself (trailing
/// comments), then upward through comment, blank and attribute lines until a
/// code line or the window limit stops the walk. Returns the first value the
/// visitor produces.
fn find_in_comment_chain(
    lx: &Lexed,
    line: u32,
    mut visit: impl FnMut(&str) -> bool,
) -> Option<(u32, String)> {
    let floor = line.saturating_sub(MARKER_WINDOW);
    let mut l = line;
    loop {
        for text in lx.comments_on(l) {
            if visit(text) {
                return Some((l, text.to_string()));
            }
        }
        if l == 0 || l <= floor {
            return None;
        }
        l -= 1;
        if lx.has_code_on(l) {
            // Attribute lines (`#[...]`) may sit between an annotation and
            // the item it documents; any other code line breaks the chain.
            let is_attr = lx
                .first_token_on(l)
                .map(|t| t.is_punct('#'))
                .unwrap_or(false);
            if !is_attr {
                // Still scan this line's trailing comments, then stop.
                for text in lx.comments_on(l) {
                    if visit(text) {
                        return Some((l, text.to_string()));
                    }
                }
                return None;
            }
        }
    }
}

/// Parse `lint: allow(<rule>) <reason>` out of one comment's text.
fn parse_allow(text: &str) -> Option<(String, String)> {
    let idx = text.find("lint:")?;
    let rest = text[idx + "lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    // Prose like `lint: allow(<rule>)` in documentation is not a
    // suppression; a real rule name is kebab-case ASCII.
    if rule.is_empty()
        || !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return None;
    }
    let reason = rest[close + 1..].trim().to_string();
    Some((rule, reason))
}

/// Resolve suppressions for every raw finding and enforce the
/// reason-mandatory policy.
fn resolve_suppressions(rel: &str, lx: &Lexed, raw: Vec<Finding>) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for mut f in raw {
        let hit = find_in_comment_chain(
            lx,
            f.line,
            |text| matches!(parse_allow(text), Some((ref r, _)) if r == f.rule),
        );
        if let Some((allow_line, text)) = hit {
            let (_, reason) = parse_allow(&text).expect("re-parse of matched allow");
            if reason.is_empty() {
                out.push(Finding {
                    rule: RULE_ALLOW_REASON,
                    file: rel.to_string(),
                    line: allow_line,
                    message: format!(
                        "`lint: allow({})` without a written reason — reasons are mandatory",
                        f.rule
                    ),
                    suppressed: None,
                });
            }
            f.suppressed = Some(reason);
        }
        out.push(f);
    }
    // A stray allow for an unknown rule is itself a finding: it silently
    // suppresses nothing and usually indicates a typo in the rule name.
    for c in &lx.comments {
        if let Some((rule, _)) = parse_allow(&c.text) {
            if !ALL_RULES.contains(&rule.as_str()) && rule != RULE_ALLOW_REASON {
                out.push(Finding {
                    rule: RULE_ALLOW_REASON,
                    file: rel.to_string(),
                    line: c.start_line,
                    message: format!("`lint: allow({rule})` names an unknown rule"),
                    suppressed: None,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    out
}

/// Mark tokens inside `#[cfg(test)]`-gated items so most rules skip test
/// code. The pattern recognized is an exact `#[cfg(test)]` attribute (not
/// `cfg(not(test))`), followed by optional further attributes, then an item;
/// the item's brace block (or terminating `;`) closes the span.
fn test_token_mask(t: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; t.len()];
    let mut i = 0usize;
    while i < t.len() {
        if !(t[i].is_punct('#') && i + 1 < t.len() && t[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Scan the attribute body, checking for the exact token run
        // `cfg ( test )` and finding the closing `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_cfg_test = false;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('[') {
                depth += 1;
            } else if t[j].is_punct(']') {
                depth -= 1;
            } else if t[j].is_ident("cfg")
                && j + 3 < t.len()
                && t[j + 1].is_punct('(')
                && t[j + 2].is_ident("test")
                && t[j + 3].is_punct(')')
            {
                is_cfg_test = true;
            }
            j += 1;
        }
        if !is_cfg_test {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            let mut d = 1i32;
            let mut k = j + 2;
            while k < t.len() && d > 0 {
                if t[k].is_punct('[') {
                    d += 1;
                } else if t[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
            j = k;
        }
        // Find the item's opening brace (or `;` for brace-less items).
        let mut k = j;
        let mut open = None;
        while k < t.len() {
            if t[k].is_punct('{') {
                open = Some(k);
                break;
            }
            if t[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        let end = match open {
            Some(b) => {
                let mut d = 1i32;
                let mut m = b + 1;
                while m < t.len() && d > 0 {
                    if t[m].is_punct('{') {
                        d += 1;
                    } else if t[m].is_punct('}') {
                        d -= 1;
                    }
                    m += 1;
                }
                m
            }
            None => (k + 1).min(t.len()),
        };
        for slot in mask.iter_mut().take(end).skip(i) {
            *slot = true;
        }
        i = end;
    }
    mask
}
