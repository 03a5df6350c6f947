//! The token-stream rules: undocumented-unsafe, hot-path-lock,
//! unjustified-relaxed (plus Release/Relaxed pair detection), and
//! panic-free-daemon. Drift detection lives in [`crate::drift`].

use crate::report::Finding;
use crate::source::SourceFile;
use crate::{RULE_HOT_PATH, RULE_PANIC, RULE_RELAXED, RULE_UNSAFE};

/// Lines above a site in which a justification comment still counts.
/// One comment may cover a small cluster of adjacent sites.
pub const COMMENT_WINDOW: u32 = 5;

/// Atomic methods that publish a value (stores and RMWs).
const ATOMIC_WRITE_OPS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn finding(file: &SourceFile, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
        excerpt: file.line_text(line).to_string(),
    }
}

/// Rule 1: every `unsafe` keyword outside test code must have a
/// `// SAFETY:` comment on the same line or just above it.
pub fn undocumented_unsafe(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (_, t) in file.sig_tokens() {
        if t.text == "unsafe" && !file.has_comment_marker(t.line, "SAFETY:", COMMENT_WINDOW) {
            out.push(finding(
                file,
                RULE_UNSAFE,
                t.line,
                "`unsafe` without a preceding `// SAFETY:` comment explaining why the \
                 invariants hold"
                    .to_string(),
            ));
        }
    }
    out
}

/// Rule 2: no locks or per-record heap allocation inside the declared
/// hot-path functions (`functions` empty = the whole file is hot).
pub fn hot_path_lock(file: &SourceFile, functions: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = file.sig_tokens();
    let text = |p: usize| toks.get(p).map(|(_, t)| t.text.as_str());
    for (start, end) in file.fn_spans(functions) {
        for p in start..end {
            let Some((_, t)) = toks.get(p) else { break };
            let line = t.line;
            let mut flag = |what: &str| {
                out.push(finding(
                    file,
                    RULE_HOT_PATH,
                    line,
                    format!(
                        "{what} on a declared hot path — the per-record path must stay \
                         lock-free and allocation-free"
                    ),
                ));
            };
            match t.text.as_str() {
                "Mutex" | "RwLock" => flag(&format!("`{}` use", t.text)),
                "." if text(p + 1) == Some("lock") && text(p + 2) == Some("(") => {
                    flag("`.lock()` call");
                }
                // `RwLock::read`/`write` take no argument; `io::Read::read`
                // and `io::Write::write` always take a buffer.
                "." if matches!(text(p + 1), Some("read" | "write"))
                    && text(p + 2) == Some("(")
                    && text(p + 3) == Some(")") =>
                {
                    flag(&format!(
                        "`.{}()` lock acquisition",
                        text(p + 1).unwrap_or_default()
                    ));
                }
                "." if text(p + 1) == Some("to_string") && text(p + 2) == Some("(") => {
                    flag("`.to_string()` allocation");
                }
                "Box"
                    if text(p + 1) == Some(":")
                        && text(p + 2) == Some(":")
                        && text(p + 3) == Some("new") =>
                {
                    flag("`Box::new` allocation");
                }
                "Vec"
                    if text(p + 1) == Some(":")
                        && text(p + 2) == Some(":")
                        && text(p + 3) == Some("new") =>
                {
                    flag("`Vec::new` allocation");
                }
                "format" if text(p + 1) == Some("!") => flag("`format!` allocation"),
                _ => {}
            }
        }
    }
    out
}

/// One atomic call site found in a file.
#[derive(Debug)]
struct AtomicSite {
    /// Identifier immediately before the method (usually the field).
    field: String,
    /// Method name (`store`, `load`, `fetch_add`, ...).
    op: String,
    /// First `Ordering::X` inside the call's parentheses.
    ordering: String,
    line: u32,
}

/// Scan a file for atomic method calls with an explicit `Ordering::X`
/// argument.
fn atomic_sites(file: &SourceFile) -> Vec<AtomicSite> {
    let toks = file.sig_tokens();
    let text = |p: usize| toks.get(p).map(|(_, t)| t.text.as_str());
    let mut sites = Vec::new();
    for p in 0..toks.len() {
        if text(p) != Some(".") {
            continue;
        }
        let Some(op) = text(p + 1) else { continue };
        if !(op == "load" || ATOMIC_WRITE_OPS.contains(&op)) || text(p + 2) != Some("(") {
            continue;
        }
        // The receiver: identifier right before the dot, if any.
        let field = if p > 0 {
            match &toks[p - 1].1.kind {
                crate::lexer::TokenKind::Ident => toks[p - 1].1.text.clone(),
                _ => "<expr>".to_string(),
            }
        } else {
            "<expr>".to_string()
        };
        // Find the first Ordering::X inside the balanced call parens.
        let mut depth = 0i32;
        let mut q = p + 2;
        let mut ordering = None;
        while let Some(t) = text(q) {
            match t {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "Ordering"
                    if ordering.is_none()
                        && text(q + 1) == Some(":")
                        && text(q + 2) == Some(":") =>
                {
                    ordering = text(q + 3).map(str::to_string);
                }
                _ => {}
            }
            q += 1;
        }
        if let Some(ordering) = ordering {
            sites.push(AtomicSite {
                field,
                op: op.to_string(),
                ordering,
                line: toks[p].1.line,
            });
        }
    }
    sites
}

/// Rule 3: every `Ordering::Relaxed` store/RMW needs an `// ordering:`
/// justification comment nearby, and a field that is Release-published
/// in this file must not be Relaxed-loaded in it.
pub fn unjustified_relaxed(file: &SourceFile) -> Vec<Finding> {
    let sites = atomic_sites(file);
    let mut out = Vec::new();
    for site in &sites {
        if site.op != "load"
            && site.ordering == "Relaxed"
            && !file.has_comment_marker(site.line, "ordering:", COMMENT_WINDOW)
        {
            out.push(finding(
                file,
                RULE_RELAXED,
                site.line,
                format!(
                    "`{}.{}` with `Ordering::Relaxed` has no `// ordering:` justification — \
                     say why no happens-before edge is needed (or add an allowlist entry)",
                    site.field, site.op
                ),
            ));
        }
    }
    // Release-store / Relaxed-load pairs on the same field: the reader
    // discards exactly the edge the writer paid for.
    for load in sites
        .iter()
        .filter(|s| s.op == "load" && s.ordering == "Relaxed")
    {
        if let Some(publish) = sites.iter().find(|s| {
            s.op != "load"
                && s.field == load.field
                && s.field != "<expr>"
                && matches!(s.ordering.as_str(), "Release" | "AcqRel" | "SeqCst")
        }) {
            out.push(finding(
                file,
                RULE_RELAXED,
                load.line,
                format!(
                    "`{}` is published with `Ordering::{}` (line {}) but loaded here with \
                     `Ordering::Relaxed` — the load does not synchronize with the publish; \
                     use `Acquire` or justify",
                    load.field, publish.ordering, publish.line
                ),
            ));
        }
    }
    out
}

/// Rule 4: no panicking constructs in daemon/hot-path files.
pub fn panic_free(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = file.sig_tokens();
    let text = |p: usize| toks.get(p).map(|(_, t)| t.text.as_str());
    let kind = |p: usize| toks.get(p).map(|(_, t)| t.kind);
    for (p, (_, tok)) in toks.iter().enumerate() {
        let line = tok.line;
        let mut flag = |what: String| {
            out.push(finding(
                file,
                RULE_PANIC,
                line,
                format!(
                    "{what} in a long-running daemon/hot-path module — handle the error or \
                     degrade gracefully; a panic here kills a worker thread mid-stream"
                ),
            ));
        };
        match text(p) {
            Some(".")
                if matches!(text(p + 1), Some("unwrap" | "expect")) && text(p + 2) == Some("(") =>
            {
                flag(format!("`.{}()`", text(p + 1).unwrap_or_default()));
            }
            Some(m @ ("panic" | "unreachable" | "unimplemented" | "todo"))
                if text(p + 1) == Some("!") =>
            {
                flag(format!("`{m}!`"));
            }
            Some("[") if kind(p + 1) == Some(crate::lexer::TokenKind::Number) => {
                // `buf[0]` and `buf[8..24]`: panics when out of bounds.
                // `[0u8; N]` (array literal/type) is fine: `;` follows.
                let is_index = text(p + 2) == Some("]")
                    || (text(p + 2) == Some(".") && text(p + 3) == Some("."));
                if is_index {
                    flag("indexing with a literal".to_string());
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("t.rs".into(), src)
    }

    #[test]
    fn unsafe_with_and_without_safety_comment() {
        let f =
            file("// SAFETY: fd is owned\nunsafe { close(fd) };\n\n\n\n\n\nunsafe { free(p) };");
        let out = undocumented_unsafe(&f);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 8);
    }

    #[test]
    fn hot_path_flags_only_declared_functions() {
        let f = file("fn hot() { let m = Mutex::new(0); m.lock(); }\nfn cold() { x.lock(); }");
        let out = hot_path_lock(&f, &["hot".to_string()]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.line == 1));
    }

    #[test]
    fn hot_path_flags_rwlock_guards_but_not_io() {
        let f = file(
            "fn hot() {\n    let r = map.read();\n    let w = map.write();\n    sock.read(&mut buf);\n    out.write(b\"x\");\n}",
        );
        let out = hot_path_lock(&f, &["hot".to_string()]);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{out:?}");
    }

    #[test]
    fn relaxed_store_needs_comment_relaxed_load_does_not() {
        let f = file(
            "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n    let _ = b.load(Ordering::Relaxed);\n}",
        );
        let out = unjustified_relaxed(&f);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn release_store_relaxed_load_pair_is_flagged() {
        let f = file(
            "fn w(&self) { self.epoch.store(1, Ordering::Release); }\n\
             fn r(&self) -> u64 { self.epoch.load(Ordering::Relaxed) }",
        );
        let out = unjustified_relaxed(&f);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("does not synchronize"));
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn panic_rule_catches_the_constructs() {
        let f = file(
            "fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"no\");\n    let a = buf[0];\n    let s = &buf[8..24];\n    let ok = [0u8; 16];\n    z.unwrap_or(3);\n}",
        );
        let out = panic_free(&f);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6]);
    }
}
