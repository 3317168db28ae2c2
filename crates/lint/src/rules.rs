//! The rule engine: five workspace invariants, each a short token
//! pattern with a file/test scope and a suppression pragma.
//!
//! | rule | invariant | established by |
//! |---|---|---|
//! | `float-ordering` | weight/score ordering uses `total_cmp`, never `.partial_cmp()` | PR 4 |
//! | `no-panic-hot-path` | no `unwrap`/`expect`/`panic!`/`unreachable!` in serving hot paths | PR 6 |
//! | `clock-discipline` | `Instant::now()` only inside `trinit-obs` (or justified sites) | PR 8 |
//! | `lock-hygiene` | no bare `.lock().unwrap()` — poison must be recovered | PR 6 |
//! | `unsafe-boundary` | `unsafe` only in whitelisted files (currently none) | — |
//!
//! A site that must legitimately break a rule carries an inline pragma
//! on its own line or the line above:
//!
//! ```text
//! // lint:allow(<rule>[, <rule>…]): <why this site is sound>
//! ```
//!
//! The justification is mandatory; a pragma without one is reported and
//! suppresses nothing. Pragmas that no longer match a violation are
//! reported as `unused-pragma` warnings so stale allows cannot
//! accumulate.

use crate::scan::{self, Pragma, TokKind, Token};

/// Rule ids.
pub const FLOAT_ORDERING: &str = "float-ordering";
pub const NO_PANIC_HOT_PATH: &str = "no-panic-hot-path";
pub const CLOCK_DISCIPLINE: &str = "clock-discipline";
pub const LOCK_HYGIENE: &str = "lock-hygiene";
pub const UNSAFE_BOUNDARY: &str = "unsafe-boundary";

/// Every rule with its one-line summary, in reporting order.
pub const RULES: [(&str, &str); 5] = [
    (FLOAT_ORDERING, "weight/score ordering must use `total_cmp`, never `.partial_cmp()` (NaN-safe, no panic path; PR 4)"),
    (NO_PANIC_HOT_PATH, "no `unwrap`/`expect`/`panic!`-family calls in serving hot paths outside `#[cfg(test)]` (PR 6)"),
    (CLOCK_DISCIPLINE, "`Instant::now()`/`SystemTime::now()` only inside `trinit-obs`; elsewhere use the obs-gated seam or justify (PR 8)"),
    (LOCK_HYGIENE, "no bare `.lock().unwrap()`/`.lock().expect()` — recover poisoning like `SharedPostingCache` (PR 6)"),
    (UNSAFE_BOUNDARY, "`unsafe` only in whitelisted files (whitelist currently empty)"),
];

/// Files allowed to hold `unsafe` blocks. Deliberately empty: the whole
/// workspace is safe Rust today, and any future exception must land
/// here with a review, not slip in silently.
pub const UNSAFE_ALLOWED_FILES: &[&str] = &[];

/// Files exempt from `float-ordering` beyond the global excludes.
/// Deliberately empty: `PartialOrd` *impls* (`fn partial_cmp`) are
/// definitions, not call sites, and pass on their own.
pub const FLOAT_ORDERING_ALLOWED_FILES: &[&str] = &[];

/// True for the serving hot paths `no-panic-hot-path` governs: every
/// top-k pipeline stage and the scoring layer that opens its lists, the
/// sharded execution/scheduling/storage layer, and the xkg store's
/// serving structures (the store's head bounds and wide-pair totals,
/// the term dictionary that serves completion, posting lists,
/// permutation indexes, segment resolution) — the packed
/// readers added with the compact layout must degrade on bad offsets,
/// not panic.
/// Panics here escape to `catch_unwind` boundaries at best and poison
/// shared state at worst (PR 6 made both load-bearing).
fn is_hot_path(rel: &str) -> bool {
    rel.starts_with("crates/query/src/exec/")
        || matches!(
            rel,
            "crates/query/src/score.rs"
                | "crates/shard/src/exec.rs"
                | "crates/shard/src/store.rs"
                | "crates/xkg/src/store.rs"
                | "crates/xkg/src/dict.rs"
                | "crates/xkg/src/posting.rs"
                | "crates/xkg/src/segment.rs"
                | "crates/xkg/src/index.rs"
                | "crates/xkg/src/pack.rs"
        )
}

/// True for files whose entire contents are test/bench scope: anything
/// under a `tests/` or `benches/` directory.
fn is_test_scope_path(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "benches")
}

/// One rule violation at a site.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    /// 1-based line of the first token of the match.
    pub line: u32,
    pub message: String,
    /// True when a well-formed pragma on this or the previous line
    /// names the rule; the justification is carried alongside.
    pub suppressed: bool,
    pub justification: Option<String>,
}

/// A pragma-level diagnostic (malformed or stale suppression).
#[derive(Clone, Debug)]
pub struct Warning {
    pub kind: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// The lint result of one file.
#[derive(Default)]
pub struct FileLint {
    pub violations: Vec<Violation>,
    pub warnings: Vec<Warning>,
}

fn ident_at(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

fn punct_at(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

/// Lints one file given its workspace-relative path (forward slashes)
/// and contents. The path determines rule scope, so fixture tests can
/// lint a snippet "as if" it lived on a hot path.
pub fn lint_source(rel: &str, src: &str) -> FileLint {
    let scanned = scan::scan(src);
    let toks = &scanned.tokens;
    let test_file = is_test_scope_path(rel);
    // (rule, line, message); suppression is applied afterwards.
    let mut raw: Vec<(&'static str, u32, String)> = Vec::new();
    let shipping = |i: usize| !test_file && !scanned.in_test[i];

    for i in 0..toks.len() {
        // float-ordering: `.partial_cmp(` / `::partial_cmp(` call
        // sites. `fn partial_cmp` (a PartialOrd impl) is a definition
        // and allowed. Applies to tests too: a NaN-panicking `.unwrap()`
        // on a comparator is a latent flake everywhere.
        if ident_at(toks, i, "partial_cmp")
            && (i > 0 && (punct_at(toks, i - 1, ".") || punct_at(toks, i - 1, ":")))
            && !FLOAT_ORDERING_ALLOWED_FILES.contains(&rel)
        {
            raw.push((
                FLOAT_ORDERING,
                toks[i].line,
                "`.partial_cmp()` on floats: use `total_cmp` (total order, NaN-safe, no `unwrap` panic path)".into(),
            ));
        }

        // no-panic-hot-path.
        if is_hot_path(rel) && shipping(i) {
            if punct_at(toks, i, ".")
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect")
                })
                && punct_at(toks, i + 2, "(")
            {
                let what = &toks[i + 1].text;
                raw.push((
                    NO_PANIC_HOT_PATH,
                    toks[i + 1].line,
                    format!("`.{what}()` on a serving hot path: return a typed error (`ExecError`), recover, or justify with a pragma"),
                ));
            }
            if toks[i].kind == TokKind::Ident
                && matches!(toks[i].text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                && punct_at(toks, i + 1, "!")
            {
                let what = &toks[i].text;
                raw.push((
                    NO_PANIC_HOT_PATH,
                    toks[i].line,
                    format!("`{what}!` on a serving hot path: panics poison worker state; degrade or return a typed error"),
                ));
            }
        }

        // clock-discipline: raw clock reads outside trinit-obs.
        // `trinit_obs::now_ns()` is the sanctioned obs-gated accessor.
        if !rel.starts_with("crates/obs/")
            && !test_file
            && shipping(i)
            && toks[i].kind == TokKind::Ident
            && (toks[i].text == "Instant" || toks[i].text == "SystemTime")
            && punct_at(toks, i + 1, ":")
            && punct_at(toks, i + 2, ":")
            && ident_at(toks, i + 3, "now")
            && punct_at(toks, i + 4, "(")
        {
            let ty = &toks[i].text;
            raw.push((
                CLOCK_DISCIPLINE,
                toks[i].line,
                format!("raw `{ty}::now()` outside `trinit-obs`: route timing through the obs layer (`now_ns` behind `ObsConfig`) or justify with a pragma"),
            ));
        }

        // lock-hygiene: `.lock().unwrap()` / `.lock().expect(…)`.
        // Tests are exempt (they poison mutexes deliberately).
        if shipping(i)
            && punct_at(toks, i, ".")
            && ident_at(toks, i + 1, "lock")
            && punct_at(toks, i + 2, "(")
            && punct_at(toks, i + 3, ")")
            && punct_at(toks, i + 4, ".")
            && toks.get(i + 5).is_some_and(|t| {
                t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect")
            })
            && punct_at(toks, i + 6, "(")
        {
            raw.push((
                LOCK_HYGIENE,
                toks[i + 5].line,
                "bare `.lock().unwrap()/.expect()`: recover poisoning (`unwrap_or_else(PoisonError::into_inner)` or the `SharedPostingCache` reset pattern)".into(),
            ));
        }

        // unsafe-boundary: applies everywhere, tests included.
        if ident_at(toks, i, "unsafe") && !UNSAFE_ALLOWED_FILES.contains(&rel) {
            raw.push((
                UNSAFE_BOUNDARY,
                toks[i].line,
                "`unsafe` outside the whitelist (currently empty): add the file to `UNSAFE_ALLOWED_FILES` with review, or stay safe".into(),
            ));
        }
    }

    apply_pragmas(rel, raw, &scanned.pragmas)
}

/// Applies suppression pragmas to raw violations and emits pragma
/// diagnostics: malformed pragmas (missing justification), pragmas
/// naming unknown rules, and stale pragmas that suppressed nothing.
fn apply_pragmas(rel: &str, raw: Vec<(&'static str, u32, String)>, pragmas: &[Pragma]) -> FileLint {
    let mut out = FileLint::default();
    let mut used = vec![false; pragmas.len()];

    for (rule, line, message) in raw {
        let mut suppressed = false;
        let mut justification = None;
        for (pi, p) in pragmas.iter().enumerate() {
            if p.problem.is_some() || !(p.line == line || p.line + 1 == line) {
                continue;
            }
            if p.rules.iter().any(|r| r == rule) {
                suppressed = true;
                justification = Some(p.justification.clone());
                used[pi] = true;
                break;
            }
        }
        out.violations.push(Violation {
            rule,
            file: rel.to_string(),
            line,
            message,
            suppressed,
            justification,
        });
    }

    for (pi, p) in pragmas.iter().enumerate() {
        if let Some(problem) = &p.problem {
            out.warnings.push(Warning {
                kind: "malformed-pragma",
                file: rel.to_string(),
                line: p.line,
                message: format!("malformed `lint:allow` pragma: {problem}"),
            });
            continue;
        }
        for r in &p.rules {
            if !RULES.iter().any(|(id, _)| id == r) {
                out.warnings.push(Warning {
                    kind: "unknown-rule",
                    file: rel.to_string(),
                    line: p.line,
                    message: format!("pragma names unknown rule `{r}`"),
                });
            }
        }
        if !used[pi] && p.rules.iter().all(|r| RULES.iter().any(|(id, _)| id == r)) {
            out.warnings.push(Warning {
                kind: "unused-pragma",
                file: rel.to_string(),
                line: p.line,
                message: format!(
                    "stale `lint:allow({})` suppresses nothing on this or the next line — remove it",
                    p.rules.join(", ")
                ),
            });
        }
    }

    out
}
