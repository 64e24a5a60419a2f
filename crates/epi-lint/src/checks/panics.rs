//! Panic-path audit.
//!
//! The server and coordinator hold long-lived state behind request
//! loops; an unplanned panic either poisons that state or (in a worker)
//! silently drops a shard. Every potential panic site on a request path
//! must therefore be *inventoried*: each `unwrap`/`expect`/`panic!`/
//! index expression in `epi-server` and `epi-coord` non-test code — and
//! in `datagen::io`, whose loader runs on the server's poll thread for
//! every SUBMIT — is a finding, and the checked-in allowlist carries a one-line
//! justification per accepted site (invariant, bounds already checked,
//! deliberate fault injection, …).
//!
//! * `PANIC-UNWRAP` — `.unwrap()` on a request path.
//! * `PANIC-EXPECT` — `.expect(…)` on a request path.
//! * `PANIC-PANIC` — explicit `panic!` on a request path.
//! * `PANIC-INDEX` — `x[…]` indexing (can panic on out-of-bounds).

use super::{finding, Tree};
use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::Finding;

const SCOPE: &[&str] = &[
    "crates/epi-server/src/",
    "crates/epi-coord/src/",
    "crates/datagen/src/io.rs",
];

/// Keywords that legitimately precede a `[` without forming an index
/// expression (`&mut [T]`, `match x { [a, b] => … }`, `return [x]`, …).
const NON_INDEX_PREV: &[&str] = &[
    "mut", "ref", "in", "as", "return", "else", "match", "if", "while", "loop", "dyn", "impl",
    "where", "move", "box", "let", "const", "static", "type", "fn", "pub", "use", "mod", "break",
    "continue", "unsafe", "extern",
];

pub fn run(tree: &Tree, out: &mut Vec<Finding>) {
    for f in &tree.files {
        if !SCOPE.iter().any(|p| f.path.contains(p)) {
            continue;
        }
        scan(f, out);
    }
}

fn scan(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in f.sig.iter().enumerate() {
        if f.in_test(t.start) {
            continue;
        }
        match t.kind {
            Kind::Punct if f.tok_text(*t) == "." => {
                let method = match f.sig.get(i + 1) {
                    Some(m) if m.kind == Kind::Ident && f.is_punct(i + 2, '(') => f.tok_text(*m),
                    _ => continue,
                };
                let check = match method {
                    "unwrap" => "PANIC-UNWRAP",
                    "expect" => "PANIC-EXPECT",
                    _ => continue,
                };
                out.push(finding(
                    f,
                    t.start,
                    check,
                    format!(
                        "`.{method}()` on a request path; justify in the allowlist or return \
                         an error"
                    ),
                ));
            }
            Kind::Ident if f.tok_text(*t) == "panic" && f.is_punct(i + 1, '!') => {
                out.push(finding(
                    f,
                    t.start,
                    "PANIC-PANIC",
                    "explicit `panic!` on a request path; justify in the allowlist or return \
                     an error"
                        .to_string(),
                ));
            }
            Kind::Punct if f.tok_text(*t) == "[" => {
                let Some(prev) = i.checked_sub(1).and_then(|p| f.sig.get(p)) else {
                    continue;
                };
                let indexes = match prev.kind {
                    Kind::Ident => !NON_INDEX_PREV.contains(&f.tok_text(*prev)),
                    Kind::Punct => matches!(f.tok_text(*prev), ")" | "]"),
                    _ => false,
                };
                if indexes {
                    out.push(finding(
                        f,
                        t.start,
                        "PANIC-INDEX",
                        "index expression on a request path (panics when out of bounds); \
                         justify in the allowlist or use `.get()`"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}
