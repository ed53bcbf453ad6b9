//! `analyzer.toml` parsing.
//!
//! The repo is offline, so there is no TOML crate; this module parses the
//! small declarative subset the analyzer needs: `[section]` headers,
//! `key = "string"`, and `key = ["a", "b", ...]` (single- or multi-line
//! arrays), with `#` comments. Anything else is a hard error so config
//! typos fail the lint run instead of silently disabling a rule.

use std::collections::BTreeMap;

/// Parsed analyzer configuration. All paths are repo-relative with `/`
/// separators and matched as suffixes of the scanned file's relative path.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files where the hot-path-panic rule applies.
    pub hot_path_modules: Vec<String>,
    /// Files where `Ordering::Relaxed` is allowed without an `// ORDER:` note.
    pub relaxed_allowlist: Vec<String>,
    /// Files treated as wire-decode paths by the bounded-decode rule.
    pub decode_modules: Vec<String>,
    /// Files that run on a thread polling an epoll reactor.
    pub reactor_files: Vec<String>,
    /// Reactor files whose state only the node's own thread touches: no
    /// lock may appear in them.
    pub node_local_files: Vec<String>,
    /// Directories whose modules call the scheme's verification only
    /// inside `verify_recorded`.
    pub verify_site_dirs: Vec<String>,
    /// Top-level directories (repo-relative) excluded from the scan.
    pub exclude_dirs: Vec<String>,
}

impl Config {
    /// Parse the analyzer config from TOML text.
    pub fn parse(src: &str) -> Result<Config, String> {
        let raw = parse_sections(src)?;
        let mut cfg = Config::default();
        for (section, keys) in &raw {
            for (key, value) in keys {
                let slot: &mut Vec<String> = match (section.as_str(), key.as_str()) {
                    ("hot_path_panic", "modules") => &mut cfg.hot_path_modules,
                    ("atomics_ordering_audit", "allow_relaxed_in") => &mut cfg.relaxed_allowlist,
                    ("bounded_decode", "decode_modules") => &mut cfg.decode_modules,
                    ("no_blocking_on_reactor", "files") => &mut cfg.reactor_files,
                    ("no_blocking_on_reactor", "node_local") => &mut cfg.node_local_files,
                    ("one_verification_site", "dirs") => &mut cfg.verify_site_dirs,
                    ("workspace", "exclude") => &mut cfg.exclude_dirs,
                    _ => {
                        return Err(format!(
                            "analyzer.toml: unknown key `{key}` in section `[{section}]`"
                        ))
                    }
                };
                *slot = value.clone();
            }
        }
        Ok(cfg)
    }
}

/// Section name -> ordered `(key, values)` pairs.
type Sections = BTreeMap<String, Vec<(String, Vec<String>)>>;

/// Parse the TOML subset into section -> key -> list-of-strings.
/// A bare `key = "value"` becomes a one-element list.
fn parse_sections(src: &str) -> Result<Sections, String> {
    let mut out: Sections = BTreeMap::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("analyzer.toml:{}: expected `key = value`", ln + 1));
        };
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line array: keep consuming until brackets balance.
        while value.starts_with('[') && !brackets_balanced(&value) {
            let Some((_, next)) = lines.next() else {
                return Err(format!("analyzer.toml:{}: unterminated array", ln + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let items = parse_value(&value).map_err(|e| format!("analyzer.toml:{}: {e}", ln + 1))?;
        if section.is_empty() {
            return Err(format!(
                "analyzer.toml:{}: key `{key}` outside any [section]",
                ln + 1
            ));
        }
        out.get_mut(&section).unwrap().push((key, items));
    }
    Ok(out)
}

/// Drop a trailing `#` comment (quote-aware).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Parse `"string"` or `["a", "b"]` into a list of strings.
fn parse_value(v: &str) -> Result<Vec<String>, String> {
    let v = v.trim();
    if let Some(s) = parse_string(v) {
        return Ok(vec![s]);
    }
    let Some(body) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return Err(format!("expected a string or array of strings, got `{v}`"));
    };
    let mut items = Vec::new();
    for part in split_top_level(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match parse_string(part) {
            Some(s) => items.push(s),
            None => return Err(format!("expected a quoted string, got `{part}`")),
        }
    }
    Ok(items)
}

/// Split an array body on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn parse_string(s: &str) -> Option<String> {
    s.strip_prefix('"')?
        .strip_suffix('"')
        .map(|x| x.to_string())
}
