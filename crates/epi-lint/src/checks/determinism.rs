//! Determinism lint.
//!
//! * `DET-HASH-ITER` — iterating a `HashMap`/`HashSet` in a file on a
//!   merge/checkpoint/codec/report path. Hash iteration order varies per
//!   process, so anything it feeds (merged candidate lists, checkpoint
//!   records, wire replies) silently loses bit-reproducibility unless the
//!   result is sorted afterwards — which is exactly what an allowlist
//!   justification must say.
//! * `DET-TIME` — `SystemTime::now` / `Instant::now` inside scan or
//!   merge logic. Wall-clock reads are fine in deadline/backoff modules
//!   (out of scope) but a timestamp flowing into results or checkpoints
//!   breaks replay.
//! * `DET-FLOAT-FMT` — decimal float formatting (`{:.…}`, `{:e}`) or
//!   `f64`/`f32` text parsing in codec files outside the exact
//!   f64-bits helpers. Checkpoints round-trip floats as hex bit
//!   patterns; a decimal detour quietly rounds.

use super::{finding, punct2, Tree};
use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::Finding;

/// Files whose output must be byte-stable: merge, k-way, result
/// assembly, codecs, checkpoints, and the engine/coordinator paths that
/// feed them.
const HASH_ITER_SCOPE: &[&str] = &[
    "crates/core/src/result.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/kway.rs",
    "crates/epi-server/src/codec.rs",
    "crates/epi-server/src/record.rs",
    "crates/epi-server/src/engine.rs",
    "crates/epi-coord/src/coord.rs",
    "crates/epi-coord/src/checkpoint.rs",
];

/// Scan/merge logic where wall-clock reads are suspect. Deadline and
/// backoff modules (server loop, client retries, coordinator polling)
/// are deliberately not listed.
const TIME_SCOPE_PREFIXES: &[&str] = &["crates/core/src/", "crates/bitgenome/src/"];
const TIME_SCOPE_FILES: &[&str] = &[
    "crates/epi-server/src/codec.rs",
    "crates/epi-server/src/record.rs",
    "crates/epi-server/src/engine.rs",
    "crates/epi-coord/src/checkpoint.rs",
];

/// Codec/spec files where floats must travel as exact bits.
const FLOAT_SCOPE: &[&str] = &[
    "crates/epi-server/src/codec.rs",
    "crates/epi-server/src/record.rs",
    "crates/epi-server/src/spec.rs",
    "crates/epi-coord/src/checkpoint.rs",
];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

pub fn run(tree: &Tree, out: &mut Vec<Finding>) {
    for f in &tree.files {
        if HASH_ITER_SCOPE.iter().any(|s| f.path.ends_with(s)) {
            hash_iter(f, out);
        }
        let in_time_scope = TIME_SCOPE_PREFIXES
            .iter()
            .any(|p| f.path.starts_with(p) || f.path.contains(&format!("/{p}")))
            || TIME_SCOPE_FILES.iter().any(|s| f.path.ends_with(s));
        if in_time_scope {
            time_now(f, out);
        }
        if FLOAT_SCOPE.iter().any(|s| f.path.ends_with(s)) {
            float_fmt(f, out);
        }
    }
}

/// Names in this file bound to a `HashMap`/`HashSet` (field decls and
/// `let` bindings). Over-collection is harmless: a name only fires when
/// it is iterated.
fn hash_typed_names(f: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in f.sig.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let text = f.tok_text(*t);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        // walk back over type-path noise (`std::collections::`, wrapper
        // generics like `Arc<Mutex<…>`) to the `name :` or `name =`
        let mut j = i;
        while j > 0 {
            j -= 1;
            let tok = f.sig[j];
            let tt = f.tok_text(tok);
            match tok.kind {
                Kind::Punct if tt == ":" || tt == "<" || tt == "&" => continue,
                Kind::Ident if tt == "mut" || tt == "dyn" => continue,
                Kind::Ident => continue,
                _ => break,
            }
        }
        // re-walk precisely: find the nearest preceding `:` or `=` not
        // crossing a statement/field boundary, then the ident before it
        let mut k = i;
        let mut bind = None;
        while k > 0 {
            k -= 1;
            let tok = f.sig[k];
            let tt = f.tok_text(tok);
            if tok.kind == Kind::Punct {
                match tt {
                    ":" | "=" => {
                        // `::` path separator is two adjacent colons
                        let part_of_path = tt == ":"
                            && (punct2(f, k, ':', ':') || (k > 0 && punct2(f, k - 1, ':', ':')));
                        if !part_of_path {
                            bind = Some(k);
                            break;
                        }
                    }
                    "," | ";" | "{" | "}" | "(" => break,
                    _ => {}
                }
            }
        }
        if let Some(b) = bind {
            if let Some(name_tok) = f.sig.get(b.wrapping_sub(1)) {
                if name_tok.kind == Kind::Ident {
                    let name = f.tok_text(*name_tok).to_string();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

fn hash_iter(f: &SourceFile, out: &mut Vec<Finding>) {
    let names = hash_typed_names(f);
    if names.is_empty() {
        return;
    }
    for (i, t) in f.sig.iter().enumerate() {
        if t.kind != Kind::Ident || !names.iter().any(|n| n == f.tok_text(*t)) {
            continue;
        }
        let name = f.tok_text(*t);
        // `map.iter()` / `map.values_mut()` …
        let method_iter = f.is_punct(i + 1, '.')
            && f.sig
                .get(i + 2)
                .is_some_and(|m| m.kind == Kind::Ident && ITER_METHODS.contains(&f.tok_text(*m)))
            && f.is_punct(i + 3, '(');
        // `for x in &map {` — name directly followed by the loop body
        let for_iter =
            f.is_punct(i + 1, '{') && (1..=6).any(|back| i >= back && f.is_ident(i - back, "in"));
        if method_iter || for_iter {
            out.push(finding(
                f,
                t.start,
                "DET-HASH-ITER",
                format!(
                    "iteration over hash-ordered `{name}` on a merge/codec/report path; \
                     hash order varies per process — sort the result or justify in the allowlist"
                ),
            ));
        }
    }
}

fn time_now(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in f.sig.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let text = f.tok_text(*t);
        if (text == "SystemTime" || text == "Instant")
            && punct2(f, i + 1, ':', ':')
            && f.is_ident(i + 3, "now")
            && !f.in_test(t.start)
        {
            out.push(finding(
                f,
                t.start,
                "DET-TIME",
                format!(
                    "`{text}::now` in scan/merge logic; wall-clock reads belong in \
                     deadline/backoff modules, not in anything feeding results or checkpoints"
                ),
            ));
        }
    }
}

fn float_fmt(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in f.sig.iter().enumerate() {
        // inside the exact-bits helpers decimal text never appears; any
        // fn whose name mentions `bits` is the sanctioned escape hatch
        let in_bits_helper = f
            .enclosing_fn(t.start)
            .is_some_and(|fx| fx.name.contains("bits"));
        if in_bits_helper || f.in_test(t.start) {
            continue;
        }
        match t.kind {
            Kind::Str => {
                let c = super::str_content(f.tok_text(*t));
                if c.contains("{:.") || c.contains("{:e") || c.contains("{:+e") {
                    out.push(finding(
                        f,
                        t.start,
                        "DET-FLOAT-FMT",
                        "decimal float formatting in a codec file; floats must round-trip \
                         as exact f64 bit patterns"
                            .to_string(),
                    ));
                }
            }
            Kind::Ident => {
                let text = f.tok_text(*t);
                // `parse::<f64>` / `f64::from_str`
                let parse_turbofish = text == "parse"
                    && punct2(f, i + 1, ':', ':')
                    && f.is_punct(i + 3, '<')
                    && (f.is_ident(i + 4, "f64") || f.is_ident(i + 4, "f32"));
                let from_str = (text == "f64" || text == "f32")
                    && punct2(f, i + 1, ':', ':')
                    && f.is_ident(i + 3, "from_str");
                if parse_turbofish || from_str {
                    out.push(finding(
                        f,
                        t.start,
                        "DET-FLOAT-FMT",
                        "decimal float parsing in a codec file; parse the hex bit pattern \
                         via the exact-bits helpers instead"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}
