//! The four repo invariants, implemented over the token stream.

use crate::lexer::{lex, Kind, Tok};

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Identifiers banned directly under `std::sync` (the facade provides the
/// instrumented twins).
const BANNED_STD_SYNC: &[&str] = &[
    "atomic",
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
];

/// Directories whose files may touch the raw primitives: the facade itself
/// (its model personality is *built from* them) and the offline shims
/// (they implement the crates the facade re-exports).
fn facade_exempt(rel: &str) -> bool {
    rel.starts_with("crates/sync/") || rel.starts_with("crates/shims/")
}

fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// The `--loc` metric for one file: lines on which a code token starts (so
/// neither blank nor comment-only, nor the inside of a multi-line string
/// literal) outside `#[cfg(test)]` items.
pub fn code_lines(src: &str) -> usize {
    let toks = lex(src);
    let code: Vec<&Tok<'_>> = toks.iter().filter(|t| t.kind != Kind::Comment).collect();
    let regions = test_regions(&code);
    let mut lines: Vec<u32> = (0..code.len())
        .filter(|&i| !in_region(&regions, i))
        .map(|i| code[i].line)
        .collect();
    lines.dedup(); // tokens arrive in line order
    lines.len()
}

/// Run every rule over one file.
pub fn check_file(rel: &str, src: &str, out: &mut Vec<Finding>) {
    let toks = lex(src);
    let code: Vec<&Tok<'_>> = toks.iter().filter(|t| t.kind != Kind::Comment).collect();
    let lines: Vec<&str> = src.lines().collect();
    let comment_lines: Vec<(u32, &str)> = toks
        .iter()
        .filter(|t| t.kind == Kind::Comment)
        .map(|t| (t.line, t.text))
        .collect();
    let regions = test_regions(&code);
    let file_is_test = is_test_file(rel);

    rule_safety(rel, &code, &lines, &comment_lines, out);
    if !file_is_test {
        rule_relaxed(rel, &code, &regions, &lines, &comment_lines, out);
    }
    if !facade_exempt(rel) {
        rule_facade(rel, &code, out);
    }
    // The tag must be a comment *starting* with `// HOT-PATH` — merely
    // mentioning the tag (like this lint's own docs do) doesn't count.
    let hot = toks
        .iter()
        .any(|t| t.kind == Kind::Comment && t.text.starts_with("// HOT-PATH"));
    if hot {
        rule_hot_path(rel, &code, &regions, out);
    }
}

// ---------------------------------------------------------------------------
// Justification-comment lookup (shared by SAFETY and RELAXED)
// ---------------------------------------------------------------------------

/// Is `marker` present in a comment on `line`, or in the contiguous
/// comment/attribute block immediately above it?
fn justified(lines: &[&str], comment_lines: &[(u32, &str)], line: u32, markers: &[&str]) -> bool {
    let has_marker = |l: u32| -> bool {
        comment_lines
            .iter()
            .any(|&(cl, text)| cl == l && markers.iter().any(|m| text.contains(m)))
    };
    if has_marker(line) {
        return true;
    }
    let mut l = line; // 1-based; lines[] is 0-based
    while l > 1 {
        l -= 1;
        let t = lines.get((l - 1) as usize).map_or("", |s| s.trim());
        if t.is_empty() {
            break;
        }
        if t.starts_with("//") {
            if has_marker(l) {
                return true;
            }
            continue; // multi-line comment block: keep walking up
        }
        if t.starts_with("#[") || t.starts_with("#!") || t.ends_with(']') {
            continue; // attribute (possibly the tail of a multi-line one)
        }
        break; // a code line terminates the block
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 1: SAFETY comments on unsafe
// ---------------------------------------------------------------------------

fn rule_safety(
    rel: &str,
    code: &[&Tok<'_>],
    lines: &[&str],
    comment_lines: &[(u32, &str)],
    out: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != Kind::Ident || t.text != "unsafe" {
            continue;
        }
        let next = code.get(i + 1);
        let is_fn_like = matches!(next, Some(n) if n.kind == Kind::Ident
            && matches!(n.text, "fn" | "extern"));
        // `unsafe` in fn-pointer types (`unsafe fn()` after `:` or `<`)
        // still deserves no comment requirement only when it's a *type*;
        // distinguishing cheaply isn't worth it — a SAFETY comment on a
        // type alias is fine too, and the tree has none today.
        let markers: &[&str] = if is_fn_like {
            &["SAFETY:", "# Safety"]
        } else {
            &["SAFETY:"]
        };
        if !justified(lines, comment_lines, t.line, markers) {
            let what = next.map_or("block", |n| match n.text {
                "fn" => "fn",
                "impl" => "impl",
                "trait" => "trait",
                "extern" => "extern block",
                _ => "block",
            });
            out.push(Finding {
                file: rel.to_owned(),
                line: t.line,
                rule: "safety-comment",
                message: format!(
                    "unsafe {what} without a `// SAFETY:` justification \
                     (same line or the comment block directly above)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: RELAXED justifications on Ordering::Relaxed
// ---------------------------------------------------------------------------

fn rule_relaxed(
    rel: &str,
    code: &[&Tok<'_>],
    regions: &[(usize, usize)],
    lines: &[&str],
    comment_lines: &[(u32, &str)],
    out: &mut Vec<Finding>,
) {
    for i in 0..code.len() {
        if !(code[i].kind == Kind::Ident
            && code[i].text == "Ordering"
            && matches!(code.get(i + 1), Some(t) if t.kind == Kind::Punct(b':'))
            && matches!(code.get(i + 2), Some(t) if t.kind == Kind::Punct(b':'))
            && matches!(code.get(i + 3), Some(t) if t.kind == Kind::Ident && t.text == "Relaxed"))
        {
            continue;
        }
        if in_region(regions, i) {
            continue;
        }
        if !justified(lines, comment_lines, code[i].line, &["RELAXED:"]) {
            out.push(Finding {
                file: rel.to_owned(),
                line: code[i].line,
                rule: "relaxed-justification",
                message: "Ordering::Relaxed without a `// RELAXED:` justification \
                          (same line or the comment block directly above)"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: facade imports
// ---------------------------------------------------------------------------

fn rule_facade(rel: &str, code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != Kind::Ident {
            continue;
        }
        if t.text == "parking_lot" {
            out.push(Finding {
                file: rel.to_owned(),
                line: t.line,
                rule: "facade-import",
                message: "direct `parking_lot` use — import from `bohm_sync` so the \
                          model checker sees the lock"
                    .to_owned(),
            });
            continue;
        }
        // std :: sync :: <banned> | std :: sync :: { ... banned ... }
        if t.text == "std"
            && matches!(code.get(i + 1), Some(t) if t.kind == Kind::Punct(b':'))
            && matches!(code.get(i + 2), Some(t) if t.kind == Kind::Punct(b':'))
            && matches!(code.get(i + 3), Some(t) if t.kind == Kind::Ident && t.text == "sync")
            && matches!(code.get(i + 4), Some(t) if t.kind == Kind::Punct(b':'))
            && matches!(code.get(i + 5), Some(t) if t.kind == Kind::Punct(b':'))
        {
            match code.get(i + 6) {
                Some(n) if n.kind == Kind::Ident && BANNED_STD_SYNC.contains(&n.text) => {
                    out.push(Finding {
                        file: rel.to_owned(),
                        line: n.line,
                        rule: "facade-import",
                        message: format!(
                            "direct `std::sync::{}` use — import from `bohm_sync` so the \
                             model checker sees it",
                            n.text
                        ),
                    });
                }
                Some(n) if n.kind == Kind::Punct(b'{') => {
                    let mut depth = 1;
                    let mut j = i + 7;
                    while j < code.len() && depth > 0 {
                        match code[j].kind {
                            Kind::Punct(b'{') => depth += 1,
                            Kind::Punct(b'}') => depth -= 1,
                            Kind::Ident if BANNED_STD_SYNC.contains(&code[j].text) => {
                                out.push(Finding {
                                    file: rel.to_owned(),
                                    line: code[j].line,
                                    rule: "facade-import",
                                    message: format!(
                                        "direct `std::sync::{}` use — import from `bohm_sync` \
                                         so the model checker sees it",
                                        code[j].text
                                    ),
                                });
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: hot-path hygiene
// ---------------------------------------------------------------------------

fn rule_hot_path(rel: &str, code: &[&Tok<'_>], regions: &[(usize, usize)], out: &mut Vec<Finding>) {
    let flag = |out: &mut Vec<Finding>, line: u32, what: &str| {
        out.push(Finding {
            file: rel.to_owned(),
            line,
            rule: "hot-path",
            message: format!("`{what}` in a `// HOT-PATH` file (non-test code)"),
        });
    };
    for i in 0..code.len() {
        if in_region(regions, i) {
            continue;
        }
        let t = code[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let path2 = |a: &str, b: &str| {
            t.text == a
                && matches!(code.get(i + 1), Some(t) if t.kind == Kind::Punct(b':'))
                && matches!(code.get(i + 2), Some(t) if t.kind == Kind::Punct(b':'))
                && matches!(code.get(i + 3), Some(t) if t.kind == Kind::Ident && t.text == b)
        };
        if path2("Instant", "now") {
            flag(out, t.line, "Instant::now");
        } else if path2("SystemTime", "now") {
            flag(out, t.line, "SystemTime::now");
        } else if path2("std", "fs") {
            flag(out, t.line, "std::fs");
        } else if matches!(t.text, "println" | "eprintln" | "dbg")
            && matches!(code.get(i + 1), Some(n) if n.kind == Kind::Punct(b'!'))
        {
            flag(out, t.line, &format!("{}!", t.text));
        }
    }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] region detection (token-index ranges over `code`)
// ---------------------------------------------------------------------------

fn test_regions(code: &[&Tok<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].kind == Kind::Punct(b'#')
            && matches!(code.get(i + 1), Some(t) if t.kind == Kind::Punct(b'[')))
        {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut depth = 1;
        let mut j = i + 2;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < code.len() && depth > 0 {
            match code[j].kind {
                Kind::Punct(b'[') => depth += 1,
                Kind::Punct(b']') => depth -= 1,
                Kind::Ident if code[j].text == "cfg" => saw_cfg = true,
                Kind::Ident if code[j].text == "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            i = j;
            continue;
        }
        // Skip any further attributes, then require an item with a body.
        let mut k = j;
        loop {
            match code.get(k) {
                Some(t)
                    if t.kind == Kind::Punct(b'#')
                        && matches!(code.get(k + 1), Some(n) if n.kind == Kind::Punct(b'[')) =>
                {
                    let mut d = 1;
                    k += 2;
                    while k < code.len() && d > 0 {
                        match code[k].kind {
                            Kind::Punct(b'[') => d += 1,
                            Kind::Punct(b']') => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                _ => break,
            }
        }
        let itemish = matches!(code.get(k), Some(t) if t.kind == Kind::Ident
            && matches!(t.text, "mod" | "fn" | "pub" | "impl" | "unsafe" | "async"));
        if !itemish {
            i = j;
            continue;
        }
        // Find the opening brace of the item body, then its close. A `;`
        // at depth 0 first means a bodyless item (`#[cfg(test)] use ...;`).
        let mut b = k;
        let mut open = None;
        while b < code.len() {
            match code[b].kind {
                Kind::Punct(b'{') => {
                    open = Some(b);
                    break;
                }
                Kind::Punct(b';') => break,
                _ => b += 1,
            }
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        let mut d = 1;
        let mut e = open + 1;
        while e < code.len() && d > 0 {
            match code[e].kind {
                Kind::Punct(b'{') => d += 1,
                Kind::Punct(b'}') => d -= 1,
                _ => {}
            }
            e += 1;
        }
        regions.push((i, e));
        i = e;
    }
    regions
}

fn in_region(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file(rel, src, &mut out);
        out
    }

    #[test]
    fn unannotated_unsafe_block_is_flagged() {
        let f = findings("crates/x/src/lib.rs", "fn f() { unsafe { g() } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
    }

    #[test]
    fn safety_comment_above_or_trailing_satisfies() {
        let ok = "fn f() {\n    // SAFETY: g is sound here.\n    unsafe { g() }\n}";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
        let trailing = "fn f() { unsafe { g() } } // SAFETY: sound.";
        assert!(findings("crates/x/src/lib.rs", trailing).is_empty());
    }

    #[test]
    fn safety_comment_skips_attributes_and_multiline_blocks() {
        let ok = "// SAFETY: the slot is initialized by the\n// constructor before any reader exists.\n#[inline]\nunsafe fn g() {}";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn doc_safety_section_satisfies_unsafe_fn() {
        let ok =
            "/// Does a thing.\n///\n/// # Safety\n/// Caller checks bounds.\npub unsafe fn g() {}";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
        // ...but not an unsafe *block*.
        let bad = "/// # Safety\n/// nope\nfn f() { unsafe { g() } }";
        assert_eq!(findings("crates/x/src/lib.rs", bad).len(), 1);
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let ok = "// this mentions unsafe code\nfn f() { let s = \"unsafe {\"; }";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_needs_justification_outside_tests() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        let f = findings("crates/x/src/lib.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-justification");

        let ok = "fn f(a: &AtomicU64) {\n    // RELAXED: monotonic counter, no payload published.\n    a.load(Ordering::Relaxed);\n}";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_in_cfg_test_mod_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
        let src2 = "#[cfg(all(test, bohm_modelcheck))]\nmod t {\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}";
        assert!(findings("crates/x/src/lib.rs", src2).is_empty());
    }

    #[test]
    fn relaxed_in_tests_dir_is_exempt() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        assert!(findings("tests/foo.rs", src).is_empty());
    }

    #[test]
    fn facade_rule_catches_direct_and_brace_imports() {
        let f = findings("crates/x/src/lib.rs", "use std::sync::atomic::AtomicU64;");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "facade-import");

        let f = findings("crates/x/src/lib.rs", "use std::sync::{Arc, Mutex};");
        assert_eq!(f.len(), 1);

        // Arc/OnceLock/mpsc stay allowed.
        let ok = "use std::sync::{mpsc, Arc, OnceLock};";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn facade_rule_exempts_sync_and_shims() {
        let src = "use std::sync::atomic::AtomicU64; use parking_lot::Mutex;";
        assert!(findings("crates/sync/src/real.rs", src).is_empty());
        assert!(findings("crates/shims/crossbeam-epoch/src/lib.rs", src).is_empty());
        assert_eq!(findings("crates/core/src/window.rs", src).len(), 2);
    }

    #[test]
    fn facade_rule_ignores_pattern_in_strings() {
        let ok = "const P: &str = \"std::sync::atomic\"; // std::sync::Mutex in a comment";
        assert!(findings("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn code_lines_skips_blanks_comments_and_test_items() {
        let src = "// header\n\nuse a::b; // trailing\n/* block\n   comment */\nfn f() {\n    g(\"three\nwhole\nlines\");\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n#[cfg(all(test, bohm_modelcheck))]\nmod m { fn t() {} }\nconst X: u8 = 1;\n";
        // use, fn, the literal's first and last lines (no token starts on
        // its middle one), the closing brace of f, const — and nothing from
        // either test module.
        assert_eq!(code_lines(src), 6);
    }

    #[test]
    fn hot_path_flags_clock_and_io_only_when_tagged() {
        let untagged = "fn f() { let t = Instant::now(); println!(\"x\"); }";
        assert!(findings("crates/x/src/lib.rs", untagged).is_empty());

        let tagged =
            "// HOT-PATH: engine inner loop.\nfn f() { let t = Instant::now(); println!(\"x\"); }";
        let f = findings("crates/x/src/lib.rs", tagged);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "hot-path"));

        let tagged_test =
            "// HOT-PATH\n#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }";
        assert!(findings("crates/x/src/lib.rs", tagged_test).is_empty());
    }
}
