//! Repo-invariant lint gate: `cargo run -p analysis -- --check`.
//!
//! Enforces four invariants that clippy cannot express, using a
//! hand-rolled comment/string-aware lexer (no `syn` — the build is
//! hermetic):
//!
//! 1. **SAFETY** — every `unsafe` block, fn, impl or trait is immediately
//!    preceded by a `// SAFETY:` comment (same line or the contiguous
//!    comment block above, attributes skipped); `unsafe fn`s may instead
//!    carry a `/// # Safety` doc section.
//! 2. **RELAXED** — every `Ordering::Relaxed` in non-test code carries a
//!    `// RELAXED:` justification the same way.
//! 3. **Facade** — no direct `std::sync::atomic` / `std::sync::{Mutex,
//!    RwLock, Condvar}` / `parking_lot` use outside `crates/sync` and
//!    `crates/shims`: the `bohm_sync` facade must stay load-bearing or the
//!    model checker silently loses coverage.
//! 4. **HOT-PATH** — files tagged `// HOT-PATH` must not call
//!    `Instant::now` / `SystemTime::now`, touch `std::fs`, or print, in
//!    non-test code.
//!
//! Exit status: 0 clean, 2 findings (printed human-readable, or as a JSON
//! array with `--json`), 1 usage/IO error.
//!
//! `--loc` instead prints the workspace's size — non-test, non-comment,
//! non-blank Rust lines under each member's `src/` (so nothing under
//! `tests/`, `benches/` or `examples/`), and their total — the
//! lower-is-better line ROADMAP item 4 tracks.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lexer;
mod rules;

use rules::Finding;

fn usage() -> ExitCode {
    eprintln!("usage: analysis [--check | --loc] [--json] [--root <dir>]");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut loc = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {}
            "--json" => json = true,
            "--loc" => loc = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(|| {
        // When run via `cargo run -p analysis`, the manifest dir is
        // crates/analysis; the workspace root is two levels up.
        std::env::var("CARGO_MANIFEST_DIR").map_or_else(
            |_| PathBuf::from("."),
            |d| {
                let p = PathBuf::from(d);
                p.ancestors().nth(2).map_or(p.clone(), Path::to_path_buf)
            },
        )
    });

    if loc {
        return print_loc(&root);
    }

    let mut files = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();

    let mut findings = Vec::new();
    for f in &files {
        let Ok(src) = std::fs::read_to_string(f) else {
            eprintln!("analysis: unreadable file {}", f.display());
            return ExitCode::from(1);
        };
        let rel = f.strip_prefix(&root).unwrap_or(f).display().to_string();
        rules::check_file(&rel, &src, &mut findings);
    }

    if json {
        println!("{}", render_json(&findings));
    } else {
        for fd in &findings {
            println!("{}:{}: [{}] {}", fd.file, fd.line, fd.rule, fd.message);
        }
        println!(
            "analysis: {} file(s) scanned, {} finding(s)",
            files.len(),
            findings.len()
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `--loc`: one row per workspace member (the `members` array of the root
/// manifest, plus the root package itself), then the total.
fn print_loc(root: &Path) -> ExitCode {
    let Ok(manifest) = std::fs::read_to_string(root.join("Cargo.toml")) else {
        eprintln!("analysis: no Cargo.toml under {}", root.display());
        return ExitCode::from(1);
    };
    let members = manifest
        .split_once("members")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    let mut total = 0;
    for member in members.split('"').skip(1).step_by(2).chain(["."]) {
        let mut files = Vec::new();
        collect_rs_files(&root.join(member).join("src"), &mut files);
        let mut lines = 0;
        for f in &files {
            let Ok(src) = std::fs::read_to_string(f) else {
                eprintln!("analysis: unreadable file {}", f.display());
                return ExitCode::from(1);
            };
            lines += rules::code_lines(&src);
        }
        println!("{lines:>7}  {member}");
        total += lines;
    }
    println!("{total:>7}  total");
    ExitCode::SUCCESS
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn render_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n  {{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message)
        );
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
