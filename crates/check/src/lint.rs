//! The token-level scanner behind the `st-lint` binary.
//!
//! Rules enforced (see [`lint_source`]):
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `unsafe-safety` | every file | `unsafe` blocks/impls carry a `// SAFETY:` comment on the same or one of the 3 preceding lines |
//! | `order-relaxed` | non-test code | `Ordering::Relaxed` carries a `// ORDER:` justification nearby |
//! | `no-unwrap` | `crates/core/src/serve/` (every file), `shm.rs` non-test code | no `.unwrap()` / `.expect(` |
//! | `ne-bytes` | `crates/net/` | no `to_ne_bytes` / `from_ne_bytes` (wire format is little-endian only) |
//! | `no-sleep` | `crates/core/src/serve/` (every file), `poll.rs` non-test code | no `std::thread::sleep` in reactor code |
//! | `ignored-send` | `crates/core/src/serve/` (every file), `live.rs` non-test code | no `let _ = …send(…)` — a failed send on a failover/mailbox path must be counted or handled, never discarded |
//! | `chunk-hash-confined` | non-test code outside `crates/nn/src/store.rs` / `crates/nn/src/delta.rs` | no `chunk_hash(` / `combine_hashes(` — content hashing stays behind the store's intern/digest APIs, out of serving hot loops |
//! | `no-set4` | non-test code under `crates/tensor/src/`, `crates/nn/src/`, `crates/teacher/src/` | no `.set4(` — every call re-checks the tensor's copy-on-write handle; a kernel takes `data_mut()` once and indexes the slice |
//!
//! The scanner is token-level, not syntactic: a small lexer strips string
//! literals and separates comment text from code text, then the rules match
//! tokens in the code stream and justifications in the comment stream.
//! Test regions (`#[cfg(test)]` / `#[test]` blocks) are recognised by brace
//! matching on the comment-stripped code; files under `tests/` or `benches/`
//! and out-of-line `tests.rs` modules are test code throughout.
//!
//! An optional `st-lint.allow` file at the scanned root suppresses findings
//! (`rule path-substring` per line); the repo policy is that it stays empty.

use std::fmt;
use std::path::{Path, PathBuf};

/// How many preceding lines a `SAFETY:` / `ORDER:` justification may sit on.
const JUSTIFY_WINDOW: usize = 3;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in (relative to the scanned root).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `unsafe-safety`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer: split source into per-line code text and comment text
// ---------------------------------------------------------------------------

struct Lexed {
    /// Source lines with comments removed and string/char literal contents
    /// blanked (delimiters kept), so token matching cannot fire inside text.
    code: Vec<String>,
    /// Comment text per line (line + block comments, including doc comments).
    comments: Vec<String>,
}

fn lex(content: &str) -> Lexed {
    #[derive(PartialEq)]
    enum State {
        Normal,
        Block(usize), // nested block comment depth
        Str,
        RawStr(usize), // number of '#' in the delimiter
    }

    let n_lines = content.lines().count().max(1);
    let mut code = vec![String::new(); n_lines];
    let mut comments = vec![String::new(); n_lines];
    let mut state = State::Normal;
    let chars: Vec<char> = content.chars().collect();
    let mut i = 0;
    let mut line = 0;
    let mut prev_word_char = false;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            prev_word_char = false;
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment (incl. /// and //!): capture to end of line.
                    let mut j = i + 2;
                    while j < chars.len() && chars[j] != '\n' {
                        comments[line].push(chars[j]);
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    code[line].push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                // Raw (byte) strings: r"..", r#".."#, br".." etc. Only when
                // the r/b is not the tail of an identifier.
                if (c == 'r' || c == 'b') && !prev_word_char {
                    let mut j = i;
                    if c == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') || c == 'r' {
                        let mut k = j + 1;
                        let mut hashes = 0;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') && (c == 'r' || j > i) {
                            code[line].push('"');
                            state = State::RawStr(hashes);
                            i = k + 1;
                            prev_word_char = false;
                            continue;
                        }
                    }
                    // Plain byte string b"..".
                    if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        code[line].push('"');
                        state = State::Str;
                        i += 2;
                        prev_word_char = false;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal vs lifetime: 'x' or '\..' is a literal,
                    // 'ident is a lifetime.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        code[line].push('\'');
                        let mut j = i + 1;
                        if chars.get(j) == Some(&'\\') {
                            j += 1; // skip the escape marker
                            j += 1; // and the escaped char
                                    // \x41 / \u{..} style escapes: run to the quote
                            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                                j += 1;
                            }
                        } else {
                            j += 1;
                        }
                        if chars.get(j) == Some(&'\'') {
                            code[line].push('\'');
                            i = j + 1;
                        } else {
                            i = j;
                        }
                        prev_word_char = false;
                        continue;
                    }
                }
                code[line].push(c);
                prev_word_char = c.is_alphanumeric() || c == '_';
                i += 1;
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    comments[line].push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (newline-escape handled by loop)
                    if chars.get(i - 1) == Some(&'\n') {
                        line += 1;
                    }
                } else if c == '"' {
                    code[line].push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code[line].push('"');
                        state = State::Normal;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    Lexed { code, comments }
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Marks lines inside `#[cfg(test)]` / `#[cfg(all(test...))]` / `#[test]`
/// blocks, via brace matching on the comment-stripped code.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let line = &code[i];
        let starts_test = line.contains("#[cfg(test)]")
            || line.contains("#[cfg(all(test")
            || line.contains("#[test]");
        if starts_test {
            if let Some(end) = block_end(code, i) {
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Line index of the `}` closing the first `{` at or after line `from`;
/// `None` when no block opens within a few lines (attribute on a non-block
/// item).
fn block_end(code: &[String], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut opened = false;
    for (idx, line) in code.iter().enumerate().skip(from) {
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return Some(idx);
                    }
                }
                _ => {}
            }
        }
        if !opened && idx > from + 5 {
            return None;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

fn is_test_file(path: &Path) -> bool {
    file_name(path) == "tests.rs"
        || path
            .components()
            .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches")
}

fn path_contains(path: &Path, needle: &str) -> bool {
    path.to_string_lossy().replace('\\', "/").contains(needle)
}

/// True when any of the comment lines in `[line - JUSTIFY_WINDOW, line]`
/// contains `marker`.
fn justified(comments: &[String], line: usize, marker: &str) -> bool {
    let lo = line.saturating_sub(JUSTIFY_WINDOW);
    comments[lo..=line].iter().any(|c| c.contains(marker))
}

/// `unsafe` tokens that are not `unsafe fn` declarations (those are covered
/// by `unsafe_op_in_unsafe_fn` forcing explicit blocks in the body).
fn has_bare_unsafe(code_line: &str) -> bool {
    let mut rest = code_line;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            let next_token = after.trim_start();
            if !next_token.starts_with("fn") {
                return true;
            }
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// Lint a single file's source text. `path` is used for rule scoping and in
/// the reported findings; it should be root-relative.
pub fn lint_source(path: &Path, content: &str) -> Vec<Violation> {
    let lexed = lex(content);
    let test_region = mark_test_regions(&lexed.code);
    let whole_file_test = is_test_file(path);
    let name = file_name(path).to_string();
    // The pool's serving runtime is a module tree; its rules key on the
    // directory so a new file under it is covered without a lint change.
    let serve_file = path_contains(path, "crates/core/src/serve/");
    let reactor_file = serve_file || name == "poll.rs";
    let no_unwrap_file = serve_file || name == "shm.rs";
    let net_file = path_contains(path, "crates/net/");
    let send_audited_file = serve_file || name == "live.rs";
    let hash_home_file = path_contains(path, "crates/nn/src/store.rs")
        || path_contains(path, "crates/nn/src/delta.rs");
    let kernel_file = [
        "crates/tensor/src/",
        "crates/nn/src/",
        "crates/teacher/src/",
    ]
    .iter()
    .any(|dir| path_contains(path, dir));

    let mut out = Vec::new();
    for (idx, code_line) in lexed.code.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = whole_file_test || test_region[idx];

        if has_bare_unsafe(code_line) && !justified(&lexed.comments, idx, "SAFETY:") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "unsafe-safety",
                message: "`unsafe` without a `// SAFETY:` comment on this or the preceding lines"
                    .to_string(),
            });
        }

        if !in_test
            && code_line.contains("Ordering::Relaxed")
            && !justified(&lexed.comments, idx, "ORDER:")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "order-relaxed",
                message:
                    "`Ordering::Relaxed` without a `// ORDER:` justification on this or the preceding lines"
                        .to_string(),
            });
        }

        if no_unwrap_file
            && !in_test
            && (code_line.contains(".unwrap()") || code_line.contains(".expect("))
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "no-unwrap",
                message: "`.unwrap()`/`.expect()` in lock-free/reactor core non-test code"
                    .to_string(),
            });
        }

        if net_file && (code_line.contains("to_ne_bytes") || code_line.contains("from_ne_bytes")) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "ne-bytes",
                message: "native-endian byte conversion in st-net (wire format is little-endian)"
                    .to_string(),
            });
        }

        if reactor_file && !in_test && code_line.contains("thread::sleep") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "no-sleep",
                message: "`thread::sleep` in reactor code (park on the poller instead)".to_string(),
            });
        }

        // On failover/mailbox paths a send failure means a peer (client
        // downlink, shard mailbox) is gone; discarding the result silently
        // loses an ack or a migrated stream. Count it (`deliver`,
        // `lost_acks`) or handle the returned envelope.
        if send_audited_file && !in_test && code_line.contains("let _ =") {
            let after = &code_line[code_line
                .find("let _ =")
                .map(|p| p + "let _ =".len())
                .unwrap_or(0)..];
            if after.contains("send(") {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: line_no,
                    rule: "ignored-send",
                    message:
                        "`let _ = …send(…)` discards a send result on a failover/mailbox path; count or handle the failure"
                            .to_string(),
                });
            }
        }
        // Content hashing is the weight store's private algebra: every
        // identity decision (dedup, delta omission, digest lockstep) must go
        // through the store/digest APIs, which hash once per capture. A
        // `chunk_hash`/`combine_hashes` call anywhere else is either a
        // per-frame rehash in a serving hot loop or a second identity rule
        // that can drift from the store's.
        if !hash_home_file
            && !in_test
            && (code_line.contains("chunk_hash(") || code_line.contains("combine_hashes("))
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "chunk-hash-confined",
                message:
                    "content-hash primitive outside st_nn store/delta; use the intern/digest APIs"
                        .to_string(),
            });
        }

        // `Tensor::set4` runs `Arc::make_mut` — an atomic check of both
        // reference counts — on every call. Two up-samples written with it
        // were a quarter of the client's frame time; in the numeric crates
        // an element loop takes `data_mut()` once and works on the slice.
        if kernel_file && !in_test && code_line.contains(".set4(") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: line_no,
                rule: "no-set4",
                message:
                    "`.set4(` in kernel code re-checks the copy-on-write handle per element; index `data_mut()` instead"
                        .to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// Suppression entries loaded from `st-lint.allow` (`rule path-substring`
/// per line, `#` comments). Policy: this file should not exist or stay empty.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Loads the allowlist at `path`; a missing file is an empty list.
    pub fn load(path: &Path) -> Allowlist {
        let mut entries = Vec::new();
        if let Ok(content) = std::fs::read_to_string(path) {
            for line in content.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut parts = line.split_whitespace();
                if let (Some(rule), Some(substr)) = (parts.next(), parts.next()) {
                    entries.push((rule.to_string(), substr.to_string()));
                }
            }
        }
        Allowlist { entries }
    }

    /// True when `v` is suppressed by an entry.
    pub fn permits(&self, v: &Violation) -> bool {
        let path = v.file.to_string_lossy().replace('\\', "/");
        self.entries
            .iter()
            .any(|(rule, substr)| rule == v.rule && path.contains(substr.as_str()))
    }
}

// ---------------------------------------------------------------------------
// Tree walk and report
// ---------------------------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            // Vendored registry stand-ins and build products are not lint
            // surface; neither is VCS metadata.
            if matches!(name.as_str(), "target" | "vendor" | ".git") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (excluding `vendor/` and `target/`),
/// applying the root's `st-lint.allow` if present. Findings are sorted by
/// path and line.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let allow = Allowlist::load(&root.join("st-lint.allow"));
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let content = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .map(Path::to_path_buf)
            .unwrap_or_else(|_| file.clone());
        out.extend(
            lint_source(&rel, &content)
                .into_iter()
                .filter(|v| !allow.permits(v)),
        );
    }
    Ok(out)
}

/// Renders findings as a JSON array (for the CI artifact).
pub fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            crate::json::escape(&v.file.to_string_lossy().replace('\\', "/")),
            v.line,
            v.rule,
            crate::json::escape(&v.message),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}
