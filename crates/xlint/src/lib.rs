//! `xlint` — an offline, workspace-aware invariant linter.
//!
//! The engine's safety story (paper §4: privacy is decided from operator
//! *class structure*, not algorithm internals) rests on a handful of
//! structural invariants that runtime tests alone cannot defend: a test
//! can prove today's call sites are deterministic or budget-safe, but it
//! cannot see a *new* call site that bypasses the rules. This tool makes
//! those invariants mechanical. It is plain Rust over a lexer-level scan
//! (comments, strings and char literals are stripped with a real state
//! machine; no `syn`, no clippy — the workspace builds offline), so it
//! checks token structure, not semantics; each rule is written so that
//! the structural check is *sufficient* for the invariant it guards.
//!
//! # Rule catalog
//!
//! * `determinism-thread` — `std::thread::spawn` / `std::thread::scope`
//!   are forbidden everywhere: the library is single-threaded, so a
//!   result never depends on how work was split across cores. Tests and
//!   benches that race sessions on real OS threads justify each site
//!   with an allow.
//! * `determinism-parallelism` — `available_parallelism` is forbidden
//!   everywhere except the benchmark shim's
//!   `pool::configured_parallelism` (`crates/matrix/src/pool.rs`), which
//!   only reports it: a machine query that sized work would make results
//!   drift across machines.
//! * `determinism-hash-iter` — `HashMap`/`HashSet` are forbidden in the
//!   hot evaluation files (`matvec.rs`, `kernels.rs`, `plan.rs`): their
//!   iteration order is randomized per process, so any use there is one
//!   refactor away from nondeterministic evaluation order.
//! * `kernel-class` — every `pub fn` in `crates/matrix/src/kernels.rs`
//!   must carry a `// CLASS: order-preserving` or `// CLASS:
//!   reassociating` tag in its doc block (the ROADMAP standing note,
//!   machine-checked) and must be exercised by name from
//!   `crates/matrix/tests/proptest_kernels.rs`.
//! * `budget-chokepoint` — inside `crates/core/src/kernel/`, raw `f64`
//!   comparisons on `eps`-named values and mutations of the `reserved` /
//!   `budget` / `held` / `charged` trackers are only legal in `state.rs`
//!   (or a future `budget.rs`) — the `KernelState::request` chokepoint.
//!   Scattered epsilon guards are how the PR-4 NaN-bypass class of bug
//!   gets reintroduced, and reservation-ledger fields mutated outside
//!   the chokepoint are how redemption atomicity silently breaks.
//! * `failpoint-sites` — the fault-injection surface is an audited
//!   list: `failpoints::triggered` / `failpoints::panic_if` sites may
//!   only appear in the enumerated site files, and schedule mutation
//!   (`failpoints::arm` / `arm_schedule` / `clear`) is forbidden in
//!   library code outside the failpoints module itself (tests arm
//!   freely). A site smuggled into an unaudited file is a covert
//!   abort channel; an arm call in library code is nondeterminism.
//! * `unsafe-safety` — every `unsafe` block / fn / impl needs an
//!   adjacent `// SAFETY:` comment (same line or within the five lines
//!   above). `--inventory` reports every site with its justification.
//! * `panic-policy` — `.unwrap()` / `.expect(...)` / `panic!` in
//!   library code of core/matrix/solvers/plans (`src/`, outside
//!   `#[cfg(test)]` modules) must be converted to typed `EktError` paths
//!   or carry an explicit justification allowlist comment.
//!
//! # Flow rules (v2)
//!
//! The rules above are line-local. v2 adds a lexer-token parser
//! ([`parse`]) that extracts per-function facts (calls, lock-guard live
//! regions, allocation and panic sites, `#[cfg(feature)]` gates) and a
//! workspace call graph ([`mod@flow`], crate-internal), enabling five
//! *flow* rule families:
//!
//! * `lock-discipline` — inside a live `KernelState` / pool-slots guard
//!   region (from `.lock()` to `drop`/end of scope), forbid allocation,
//!   `pool::scope` dispatch, solver entry points, reentrant same-lock
//!   method calls (parking_lot mutexes are not reentrant: that is a
//!   deadlock), and panics without a justification.
//!   *Fix* by shrinking the guard region (bind the lock in an inner
//!   block, copy scalars out); *allow* only when the operation is
//!   inherently part of the atomic section (e.g. the redemption
//!   transaction's ledger drain).
//! * `warm-path-alloc` — functions tagged `// WARM:` in the doc block
//!   must have an allocation-free transitive call closure. This turns
//!   the counting-allocator runtime gates into lint-time file:line
//!   diagnostics. An allow on a *call* line severs that edge (declares
//!   a cold/setup boundary); an allow on an *allocation* line justifies
//!   the site itself. *Fix* by hoisting into the workspace arena;
//!   *allow* only for cold error/setup paths behind branch guards.
//! * `determinism-transitive` — the hash-order / ad-hoc-thread bans
//!   become reachability rules from the deterministic entry points
//!   (`matvec_into` / `rmatvec_into` / `rmatvec_add` and the public
//!   kernels): `HashMap`/`HashSet`/`thread::spawn`/`thread::scope`/
//!   `available_parallelism` are forbidden anywhere in their call
//!   closure, not just in the three hot files. No file is exempt.
//! * `cfg-parity` — every failpoint name used at a `triggered` /
//!   `panic_if` site (compiled in by the `failpoints` feature) must be
//!   declared in `failpoints.rs`'s `SITES` list and vice versa (an
//!   orphaned declaration is a chaos schedule that silently arms
//!   nothing).
//! * `dead-pub` — every `pub fn` in `crates/{core,matrix,solvers,plans,
//!   data}/src` needs a caller outside its own file and outside test
//!   code. Callers are other library files (the bench bins and the
//!   benchmark package included), `crates/bench/benches`, `examples/`
//!   and the root `tests/`; a crate's own `tests/` and `#[cfg(test)]`
//!   modules are not. A function named as a value (`.map(f)`), in a
//!   `static` table or inside an item-level macro (`proptest! { .. }`)
//!   counts as called, and a call the index cannot pin to one impl type
//!   or module counts for every function of its name, so the rule can
//!   miss a dead item but never flags a live one. *Fix* by deleting the
//!   item with its tests, or by making it private when only its own file
//!   calls it; *allow* deliberate API with the reason it stays.
//!
//! # Known approximations
//!
//! The parser is lexer-level by design (no `syn`, offline workspace):
//!
//! * **No macro expansion** — calls and allocations inside macro bodies
//!   other than the recognized ones (`vec!`, `format!`, panic macros)
//!   are invisible; the runtime gates (counting allocator, bit-identity
//!   suites) remain the ground truth backstop.
//! * **Name-based call resolution** — edges are resolved by callee name
//!   plus module-path hints, without types. Precision tiers: std-typed
//!   qualifiers (`Vec::new`) and ubiquitous method names (`.map()`,
//!   `.push()`, `.lock()`) resolve to nothing; `self.`-method calls and
//!   type-qualified calls whose qualifier matches no module stay in the
//!   caller's file unless the name is workspace-unique; everything else
//!   fans out by name. The fan-out over-approximates: spurious edges
//!   can add diagnostics (sever them with a reasoned allow) but never
//!   hide one. The same-file tiers can *miss* a cross-file inherent
//!   method — the runtime gates below stay the ground truth backstop.
//! * **Depth-limited reachability** ([`flow::DEPTH_LIMIT`]) — call
//!   chains deeper than 16 are not explored; real chains here are < 10.
//! * **Guard regions are syntactic** — a guard stored into a struct
//!   field or returned escapes tracking; binding-`let`, statement
//!   chain, `drop()`, and moved-binding shapes are tracked.
//!
//! # Allowlist syntax
//!
//! ```text
//! // xlint: allow(rule-name, reason = "why this site is sound")
//! ```
//!
//! placed either at the end of the offending line or on its own line
//! directly above it (a contiguous run of comment/attribute lines above
//! the site is searched). The reason is mandatory and must be non-empty;
//! malformed or unknown-rule allow comments are themselves diagnostics
//! (`allow-syntax`), so a typo cannot silently disable a rule.
//!
//! # Scan scope
//!
//! Every `.rs` file under the workspace root, excluding `target/`,
//! `shims/` (vendored stand-ins for external crates — not our code),
//! and `crates/xlint/` itself (its fixtures are deliberate violations).

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub mod flow;
pub mod parse;

/// Analyzer configuration: the cargo features assumed active when
/// evaluating `#[cfg(feature = "...")]` gates in the flow rules. The
/// default is the default build (no features). CI runs both legs
/// (default and `failpoints`) over one shared [`Analysis`].
#[derive(Debug, Default, Clone)]
pub struct Config {
    pub features: BTreeSet<String>,
}

impl Config {
    /// Convenience constructor from feature names.
    pub fn with_features<I: IntoIterator<Item = S>, S: Into<String>>(features: I) -> Config {
        Config {
            features: features.into_iter().map(Into::into).collect(),
        }
    }
}

/// Rule names, as used in diagnostics and `allow(...)` comments.
pub const RULES: &[&str] = &[
    "determinism-thread",
    "determinism-parallelism",
    "determinism-hash-iter",
    "kernel-class",
    "budget-chokepoint",
    "failpoint-sites",
    "unsafe-safety",
    "panic-policy",
    "lock-discipline",
    "warm-path-alloc",
    "determinism-transitive",
    "cfg-parity",
    "dead-pub",
];

/// Synthetic rule name for malformed allowlist comments (not allowable
/// itself, by construction).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// One finding: a file:line location, the rule that fired, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the linted root, with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One `unsafe` site, for the `--inventory` report.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: usize,
    /// The adjacent `SAFETY:` justification, if present.
    pub safety: Option<String>,
}

/// One lock-guard live region observed by the parser, with the
/// forbidden-operation events inside it (annotated ones carry an
/// `(allowed)` mark) — the `--inventory` view of `lock-discipline`.
#[derive(Debug, Clone)]
pub struct LockRegionInfo {
    pub file: String,
    pub fn_name: String,
    /// `"KernelState"` or `"pool-slots"`.
    pub kind: &'static str,
    /// 1-based line span of the live region.
    pub start: usize,
    pub end: usize,
    /// The guard binding name, if the region came from a `let`.
    pub binding: Option<String>,
    pub events: Vec<String>,
}

/// One `// WARM:` root with its transitive call closure — the
/// `--inventory` view of `warm-path-alloc`.
#[derive(Debug, Clone)]
pub struct WarmRootInfo {
    pub file: String,
    pub name: String,
    /// Functions in the transitive call closure (including the root).
    pub closure: usize,
    /// cfg-active allocation sites inside the closure (allowed or not).
    pub alloc_sites: usize,
}

/// One satisfied cfg-parity pairing — the `--inventory` view of
/// `cfg-parity` (what the analyzer believes is properly twinned).
#[derive(Debug, Clone)]
pub struct CfgPairInfo {
    pub file: String,
    pub name: String,
    /// The pairing checked: `"failpoint-site"`, a declared `SITES` entry
    /// that some audited site uses.
    pub kind: &'static str,
}

/// The result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub lock_regions: Vec<LockRegionInfo>,
    pub warm_roots: Vec<WarmRootInfo>,
    pub cfg_pairs: Vec<CfgPairInfo>,
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Lexer: strip comments / string / char literals while keeping line structure.
// ---------------------------------------------------------------------------

/// One source line after lexing: `code` has comments removed and literal
/// *contents* blanked (delimiters kept, so token boundaries survive);
/// `comment` holds the raw comment text that appeared on the line, and
/// `strings` the contents of every string literal that *starts* on the
/// line (in order) — the parser stage needs the real text of `#[cfg]`
/// feature names and failpoint site names, which the blanking erases
/// from `code`.
#[derive(Debug, Default, Clone)]
pub struct Line {
    pub code: String,
    pub comment: String,
    pub strings: Vec<String>,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The lexer's cross-line state (block comments and string literals can
/// span lines; everything else is line-local).
enum LexState {
    Code,
    /// Inside a (possibly nested) block comment, with nesting depth.
    Block(usize),
    /// Inside a normal (escaped) string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`s.
    RawStr(usize),
}

/// Splits `src` into [`Line`]s with comments and literal contents
/// stripped. Handles line/doc comments, nested block comments, string /
/// raw-string / byte-string literals, char literals and lifetimes.
pub fn strip_lines(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut strings: Vec<String> = Vec::new();
    // Accumulates the raw content of the string literal currently being
    // lexed; committed to the line the literal *started* on when it
    // closes.
    let mut lit = String::new();
    let mut lit_line = 0usize;
    let mut state = LexState::Code;
    let mut i = 0;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                strings: std::mem::take(&mut strings),
            });
            i += 1;
            continue;
        }
        match state {
            LexState::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    comment.push_str("*/");
                    i += 2;
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::Block(depth - 1)
                    };
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    comment.push_str("/*");
                    i += 2;
                    state = LexState::Block(depth + 1);
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        // Escaped newline: consume the backslash, let the
                        // top of the loop handle the line break.
                        i += 1;
                    } else {
                        lit.push('\\');
                        if let Some(&e) = chars.get(i + 1) {
                            lit.push(e);
                        }
                        code.push(' ');
                        i += 2;
                    }
                } else if c == '"' {
                    code.push('"');
                    i += 1;
                    state = LexState::Code;
                    commit_literal(&mut lines, &mut strings, &mut lit, lit_line);
                } else {
                    lit.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    code.push('"');
                    i += 1 + hashes;
                    state = LexState::Code;
                    commit_literal(&mut lines, &mut strings, &mut lit, lit_line);
                } else {
                    lit.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            LexState::Code => match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    while i < n && chars[i] != '\n' {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    comment.push_str("/*");
                    i += 2;
                    state = LexState::Block(1);
                }
                '"' => {
                    code.push('"');
                    i += 1;
                    lit.clear();
                    lit_line = lines.len();
                    state = LexState::Str;
                }
                'r' | 'b' if i == 0 || !is_ident_char(chars[i - 1]) => {
                    // Candidate raw / byte string (r", r#", b", br#") or
                    // byte char (b'x'). Raw identifiers (r#foo) fall
                    // through to plain code.
                    let mut j = i;
                    if chars[j] == 'b' {
                        j += 1;
                    }
                    let has_r = chars.get(j) == Some(&'r');
                    if has_r {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if has_r && chars.get(j) == Some(&'"') {
                        code.extend(&chars[i..=j]);
                        i = j + 1;
                        lit.clear();
                        lit_line = lines.len();
                        state = LexState::RawStr(hashes);
                    } else if c == 'b' && !has_r && hashes == 0 && chars.get(j) == Some(&'"') {
                        code.push_str("b\"");
                        i = j + 1;
                        lit.clear();
                        lit_line = lines.len();
                        state = LexState::Str;
                    } else if c == 'b' && !has_r && hashes == 0 && chars.get(j) == Some(&'\'') {
                        // Byte char literal: blank until the closing quote.
                        code.push_str("b'");
                        i = j + 1;
                        if chars.get(i) == Some(&'\\') {
                            i += 2;
                        }
                        while i < n && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: '\n', '\'', '\u{..}', ...
                        code.push('\'');
                        i += 3;
                        while i < n && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            code.push('\'');
                            i += 1;
                        }
                    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        // Plain char literal 'x'.
                        code.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime or loop label: keep the tick as code.
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
        }
    }
    if !code.is_empty() || !comment.is_empty() || !strings.is_empty() {
        lines.push(Line {
            code,
            comment,
            strings,
        });
    }
    lines
}

/// Commits a finished string literal to the line it started on: the
/// current (pending) line's list if it started there, otherwise the
/// already-pushed line's (multi-line literal).
fn commit_literal(
    lines: &mut [Line],
    pending: &mut Vec<String>,
    lit: &mut String,
    lit_line: usize,
) {
    let text = std::mem::take(lit);
    if lit_line == lines.len() {
        pending.push(text);
    } else if let Some(line) = lines.get_mut(lit_line) {
        line.strings.push(text);
    }
}

// ---------------------------------------------------------------------------
// Token helpers over stripped code.
// ---------------------------------------------------------------------------

/// Whether `code` contains `tok` with identifier boundaries on both ends
/// (the token itself may contain `::`).
fn contains_token(code: &str, tok: &str) -> bool {
    find_token(code, tok, 0).is_some()
}

fn find_token(code: &str, tok: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    // Boundary checks only apply where the token itself is word-like.
    let first_is_word = tok.chars().next().map(is_ident_char).unwrap_or(false);
    let last_is_word = tok.chars().next_back().map(is_ident_char).unwrap_or(false);
    let mut start = from;
    while let Some(pos) = code[start..].find(tok) {
        let at = start + pos;
        let before_ok = !first_is_word || at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + tok.len();
        let after_ok = !last_is_word || end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Whether an identifier names an epsilon-like quantity. Deliberately
/// word-shaped (`eps`, `epsilon`, `eps_*`, `*_eps`, `*_eps_*`) so that
/// identifiers like `steps` do not match.
fn is_eps_ident(id: &str) -> bool {
    let l = id.to_ascii_lowercase();
    l == "eps"
        || l == "epsilon"
        || l.starts_with("eps_")
        || l.starts_with("epsilon_")
        || l.ends_with("_eps")
        || l.ends_with("_epsilon")
        || l.contains("_eps_")
}

/// Reads the identifier ending at byte position `end` (exclusive).
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut s = end;
    while s > 0 && is_ident_char(bytes[s - 1] as char) {
        s -= 1;
    }
    if s < end {
        Some(&code[s..end])
    } else {
        None
    }
}

/// Reads the identifier starting at byte position `start`.
fn ident_starting_at(code: &str, start: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut e = start;
    while e < bytes.len() && is_ident_char(bytes[e] as char) {
        e += 1;
    }
    if e > start {
        Some(&code[start..e])
    } else {
        None
    }
}

/// Finds raw `f64` comparisons (`<`, `<=`, `>`, `>=`) where either
/// operand is an epsilon-named identifier.
fn has_eps_comparison(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c != '<' && c != '>' {
            i += 1;
            continue;
        }
        // Skip shifts, arrows and fat arrows.
        let prev = if i > 0 { bytes[i - 1] as char } else { ' ' };
        let next = if i + 1 < bytes.len() {
            bytes[i + 1] as char
        } else {
            ' '
        };
        if prev == c || next == c || prev == '-' || prev == '=' {
            i += 1;
            continue;
        }
        let op_end = if next == '=' { i + 2 } else { i + 1 };
        // Left operand: identifier directly before the operator (modulo
        // whitespace). `x.abs() < eps`-style left sides are caught via
        // the right operand instead.
        let mut l = i;
        while l > 0 && bytes[l - 1] == b' ' {
            l -= 1;
        }
        if let Some(id) = ident_ending_at(code, l) {
            if is_eps_ident(id) {
                return true;
            }
        }
        // Right operand.
        let mut r = op_end;
        while r < bytes.len() && bytes[r] == b' ' {
            r += 1;
        }
        if let Some(id) = ident_starting_at(code, r) {
            if is_eps_ident(id) {
                return true;
            }
        }
        i = op_end;
    }
    false
}

/// Finds a mutation of field `.{field}` (direct or through one index
/// expression): `.field =`, `.field +=`, `.field[..] -=`, ...
fn has_field_mutation(code: &str, field: &str) -> bool {
    let dotted = format!(".{field}");
    let mut from = 0;
    while let Some(at) = find_token(code, &dotted, from) {
        let mut i = at + dotted.len();
        let bytes = code.as_bytes();
        // Optionally skip one balanced [...] index.
        if bytes.get(i) == Some(&b'[') {
            let mut depth = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        while bytes.get(i) == Some(&b' ') {
            i += 1;
        }
        let rest = &code[i.min(code.len())..];
        if (rest.starts_with('=') && !rest.starts_with("=="))
            || rest.starts_with("+=")
            || rest.starts_with("-=")
            || rest.starts_with("*=")
            || rest.starts_with("/=")
        {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Whether `code` calls `.unwrap()`, `.expect(...)` or invokes `panic!`.
fn panic_policy_hits(code: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for (needle, label) in [(".unwrap", ".unwrap()"), (".expect", ".expect(...)")] {
        let mut from = 0;
        while let Some(at) = find_token(code, needle, from) {
            let after = code[at + needle.len()..].trim_start();
            if after.starts_with('(') {
                hits.push(label);
                break;
            }
            from = at + 1;
        }
    }
    let mut from = 0;
    while let Some(at) = find_token(code, "panic", from) {
        if code[at + "panic".len()..].trim_start().starts_with('!') {
            hits.push("panic!");
            break;
        }
        from = at + 1;
    }
    hits
}

// ---------------------------------------------------------------------------
// Allowlist comments.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    /// Present and non-empty reason; `None` means malformed.
    ok: bool,
}

/// Parses every `xlint:` directive in a comment. Returns the parsed
/// allows; malformed ones come back with `ok == false`.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("xlint:") {
        rest = &rest[pos + "xlint:".len()..];
        let body = rest.trim_start();
        let Some(args) = body
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('('))
        else {
            out.push(Allow {
                rule: String::new(),
                ok: false,
            });
            continue;
        };
        // Parse structurally rather than scanning for the first `)`:
        // the quoted reason may itself contain parentheses or commas, so
        // the closing paren is only recognized *after* the closing quote.
        let (rule_part, after_comma) = match args.find(',') {
            Some(i) => (&args[..i], &args[i + 1..]),
            None => (args.split(')').next().unwrap_or(args), ""),
        };
        let rule = rule_part.trim().trim_end_matches(')').trim().to_string();
        let reason_ok = (|| {
            let r = after_comma.trim_start();
            let r = r.strip_prefix("reason")?.trim_start();
            let r = r.strip_prefix('=')?.trim_start();
            let r = r.strip_prefix('"')?;
            let end = r.find('"')?;
            let closed = r[end + 1..].trim_start().starts_with(')');
            Some(closed && !r[..end].trim().is_empty())
        })()
        .unwrap_or(false);
        let known = RULES.contains(&rule.as_str());
        out.push(Allow {
            rule,
            ok: reason_ok && known,
        });
        rest = args;
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------------

/// Everything the rules need to know about one file.
struct FileCtx {
    rel: String,
    lines: Vec<Line>,
    /// Per line: inside a `#[cfg(test)] mod { ... }` region.
    in_test_mod: Vec<bool>,
    /// Per line: parsed allow directives.
    allows: Vec<Vec<Allow>>,
}

impl FileCtx {
    fn new(rel: String, src: &str) -> Self {
        let lines = strip_lines(src);
        let in_test_mod = test_mod_regions(&lines);
        let allows = lines.iter().map(|l| parse_allows(&l.comment)).collect();
        FileCtx {
            rel,
            lines,
            in_test_mod,
            allows,
        }
    }

    /// Whether a diagnostic of `rule` on `line` (0-based) is allowlisted:
    /// a trailing allow on the line itself, or one in the contiguous run
    /// of comment / attribute / blank-with-comment lines directly above.
    fn allowed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| self.allows[l].iter().any(|a| a.ok && a.rule == rule);
        if hit(line) {
            return true;
        }
        let mut j = line;
        while j > 0 {
            j -= 1;
            let code = self.lines[j].code.trim();
            let passthrough = code.is_empty() || code.starts_with("#[");
            if !passthrough {
                return false;
            }
            if hit(j) {
                return true;
            }
            if code.is_empty() && self.lines[j].comment.is_empty() {
                return false; // fully blank line ends the attachment run
            }
        }
        false
    }

    /// `SAFETY:` justification adjacent to `line` (same line, else up to
    /// five lines above), if any.
    fn safety_comment(&self, line: usize) -> Option<String> {
        let probe = |l: usize| {
            let c = &self.lines[l].comment;
            c.contains("SAFETY:").then(|| {
                c.trim_start_matches(['/', '!', '*', ' '])
                    .trim_end()
                    .to_string()
            })
        };
        if let Some(s) = probe(line) {
            return Some(s);
        }
        for back in 1..=5 {
            let Some(j) = line.checked_sub(back) else {
                break;
            };
            if let Some(s) = probe(j) {
                return Some(s);
            }
        }
        None
    }
}

/// Marks lines inside `#[cfg(test)] mod ... { ... }` regions, by brace
/// depth. Only the plain `#[cfg(test)]` attribute directly above a
/// braced `mod` is recognized — which is the convention this workspace
/// uses everywhere.
fn test_mod_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg = false;
    let mut region_entry: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if let Some(entry) = region_entry {
            flags[idx] = true;
            // (depth updated below; region closes when we return to entry)
            let _ = entry;
        }
        if region_entry.is_none() {
            if contains_token(code, "cfg") && code.contains("#[") && code.contains("test") {
                pending_cfg = true;
            } else if pending_cfg && contains_token(code, "mod") && code.contains('{') {
                region_entry = Some(depth);
                pending_cfg = false;
                flags[idx] = true;
            } else if !code.is_empty() && !code.starts_with("#[") {
                pending_cfg = false;
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(entry) = region_entry {
            if depth <= entry {
                region_entry = None;
            }
        }
    }
    flags
}

fn push(report: &mut Report, ctx: &FileCtx, line: usize, rule: &'static str, message: String) {
    if !ctx.allowed(line, rule) {
        report.diagnostics.push(Diagnostic {
            file: ctx.rel.clone(),
            line: line + 1,
            rule,
            message,
        });
    }
}

/// Runs every line-local rule over one file.
fn lint_file(ctx: &FileCtx, report: &mut Report) {
    let is_pool_shim = ctx.rel == "crates/matrix/src/pool.rs";
    let hot_hash_file = matches!(
        ctx.rel.as_str(),
        "crates/matrix/src/matvec.rs"
            | "crates/matrix/src/kernels.rs"
            | "crates/matrix/src/plan.rs"
    );
    let budget_scoped = ctx.rel.starts_with("crates/core/src/kernel/")
        && !ctx.rel.ends_with("/state.rs")
        && !ctx.rel.ends_with("/budget.rs");
    let panic_scoped = ["core", "matrix", "solvers", "plans"]
        .iter()
        .any(|c| ctx.rel.starts_with(&format!("crates/{c}/src/")));
    // The audited fault-injection surface: every file allowed to host a
    // `triggered`/`panic_if` site. Extending the surface means editing
    // this list — a deliberate, reviewable act.
    let failpoint_site_file = matches!(
        ctx.rel.as_str(),
        "crates/matrix/src/failpoints.rs"
            | "crates/core/src/kernel/state.rs"
            | "crates/core/src/kernel/mod.rs"
            | "crates/solvers/src/lsqr.rs"
    );
    let failpoints_module = ctx.rel == "crates/matrix/src/failpoints.rs";
    let lib_src = ctx.rel.starts_with("crates/") && ctx.rel.contains("/src/");

    for (i, line) in ctx.lines.iter().enumerate() {
        let code = line.code.as_str();

        // Malformed / unknown-rule allow comments are diagnostics in
        // their own right, so typos cannot silently disable a rule.
        for a in &ctx.allows[i] {
            if !a.ok {
                report.diagnostics.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: i + 1,
                    rule: ALLOW_SYNTAX,
                    message: format!(
                        "malformed xlint directive (expected `xlint: allow(<rule>, reason = \
                         \"...\")` with a known rule and non-empty reason){}",
                        if a.rule.is_empty() {
                            String::new()
                        } else {
                            format!(": rule `{}`", a.rule)
                        }
                    ),
                });
            }
        }

        for tok in ["thread::spawn", "thread::scope"] {
            if contains_token(code, tok) {
                push(
                    report,
                    ctx,
                    i,
                    "determinism-thread",
                    format!(
                        "`{tok}`: the library is single-threaded, so results never depend \
                         on how work is split across cores; a test or bench that needs real \
                         OS threads must justify them"
                    ),
                );
            }
        }
        if !is_pool_shim && contains_token(code, "available_parallelism") {
            push(
                report,
                ctx,
                i,
                "determinism-parallelism",
                "`available_parallelism` outside the benchmark shim's \
                 `pool::configured_parallelism`: a machine query must never size work"
                    .to_string(),
            );
        }

        if hot_hash_file {
            for tok in ["HashMap", "HashSet"] {
                if contains_token(code, tok) {
                    push(
                        report,
                        ctx,
                        i,
                        "determinism-hash-iter",
                        format!(
                            "`{tok}` in a hot evaluation file: iteration order is randomized \
                             per process — use a BTree/Vec structure or justify explicitly"
                        ),
                    );
                }
            }
        }

        if budget_scoped {
            if has_eps_comparison(code) {
                push(
                    report,
                    ctx,
                    i,
                    "budget-chokepoint",
                    "raw f64 comparison on an epsilon value outside state.rs: admission \
                     decisions must funnel through the KernelState chokepoint (NaN passes \
                     every raw </<= guard)"
                        .to_string(),
                );
            }
            for field in ["reserved", "budget", "held", "charged"] {
                if has_field_mutation(code, field) {
                    push(
                        report,
                        ctx,
                        i,
                        "budget-chokepoint",
                        format!(
                            "mutation of `.{field}` outside state.rs: budget trackers may \
                             only move inside the KernelState chokepoint"
                        ),
                    );
                }
            }
        }

        if lib_src && !ctx.in_test_mod[i] {
            if !failpoints_module {
                for tok in [
                    "failpoints::arm",
                    "failpoints::arm_schedule",
                    "failpoints::clear",
                ] {
                    if contains_token(code, tok) {
                        push(
                            report,
                            ctx,
                            i,
                            "failpoint-sites",
                            format!(
                                "`{tok}` in library code: fault schedules may only be armed \
                                 from tests or the failpoints module — an arm call here is a \
                                 hidden nondeterminism channel"
                            ),
                        );
                    }
                }
            }
            if !failpoint_site_file {
                for tok in ["failpoints::triggered", "failpoints::panic_if"] {
                    if contains_token(code, tok) {
                        push(
                            report,
                            ctx,
                            i,
                            "failpoint-sites",
                            format!(
                                "`{tok}` outside the audited site list: fault-injection sites \
                                 are part of the reviewed failure surface — add the file to \
                                 xlint's site list deliberately or move the site"
                            ),
                        );
                    }
                }
            }
        }

        // unsafe-safety: every `unsafe` keyword (except fn-pointer types
        // like `unsafe fn(*mut T)`) needs an adjacent SAFETY: comment.
        let mut from = 0;
        let mut unsafe_here = false;
        while let Some(at) = find_token(code, "unsafe", from) {
            let rest = code[at + "unsafe".len()..].trim_start();
            let fn_pointer_type = rest
                .strip_prefix("fn")
                .map(|r| r.trim_start().starts_with('('))
                .unwrap_or(false);
            if !fn_pointer_type {
                unsafe_here = true;
            }
            from = at + 1;
        }
        if unsafe_here {
            let safety = ctx.safety_comment(i);
            if safety.is_none() {
                push(
                    report,
                    ctx,
                    i,
                    "unsafe-safety",
                    "`unsafe` without an adjacent `// SAFETY:` comment (same line or within \
                     the five lines above)"
                        .to_string(),
                );
            }
            report.unsafe_sites.push(UnsafeSite {
                file: ctx.rel.clone(),
                line: i + 1,
                safety,
            });
        }

        if panic_scoped && !ctx.in_test_mod[i] {
            for hit in panic_policy_hits(code) {
                push(
                    report,
                    ctx,
                    i,
                    "panic-policy",
                    format!(
                        "`{hit}` in library code: convert to a typed EktError path or \
                         justify with an allowlist comment"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// kernel-class: cross-file rule over kernels.rs + proptest_kernels.rs.
// ---------------------------------------------------------------------------

const KERNELS_FILE: &str = "crates/matrix/src/kernels.rs";
const KERNELS_TESTS: &str = "crates/matrix/tests/proptest_kernels.rs";

/// Checks that every `pub fn` in `kernels.rs` carries a class tag in its
/// doc block and is referenced by name from `proptest_kernels.rs`.
fn lint_kernel_classes(ctx: &FileCtx, proptest_src: Option<&str>, report: &mut Report) {
    let proptest = proptest_src.map(strip_lines);
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test_mod[i] {
            continue;
        }
        let code = line.code.trim();
        let Some(rest) = code.strip_prefix("pub fn ") else {
            continue;
        };
        let Some(name) = ident_starting_at(rest, 0) else {
            continue;
        };
        // Collect the contiguous comment/attribute block directly above.
        let mut tag = None;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = &ctx.lines[j];
            let acode = above.code.trim();
            if !acode.is_empty() && !acode.starts_with("#[") {
                break;
            }
            if acode.is_empty() && above.comment.is_empty() {
                break;
            }
            if let Some(pos) = above.comment.find("CLASS:") {
                tag = Some(above.comment[pos + "CLASS:".len()..].trim().to_string());
            }
        }
        match tag.as_deref() {
            Some(t) if t.starts_with("order-preserving") || t.starts_with("reassociating") => {}
            Some(t) => push(
                report,
                ctx,
                i,
                "kernel-class",
                format!(
                    "kernel `{name}` has unknown class `{t}` (expected `order-preserving` \
                     or `reassociating`)"
                ),
            ),
            None => push(
                report,
                ctx,
                i,
                "kernel-class",
                format!(
                    "public kernel `{name}` is missing a `// CLASS: order-preserving | \
                     reassociating` tag in its doc block"
                ),
            ),
        }
        let referenced = proptest
            .as_ref()
            .map(|lines| lines.iter().any(|l| contains_token(&l.code, name)))
            .unwrap_or(false);
        if !referenced {
            push(
                report,
                ctx,
                i,
                "kernel-class",
                format!(
                    "public kernel `{name}` is not exercised from {KERNELS_TESTS} (every \
                     kernel must be covered by the bit-exact oracle proptests)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tree walk.
// ---------------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "xlint", "related"];

/// Collects every `.rs` file and every `Cargo.toml` under `dir`.
fn collect_files(
    dir: &Path,
    rs: &mut Vec<std::path::PathBuf>,
    manifests: &mut Vec<std::path::PathBuf>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_files(&path, rs, manifests)?;
        } else if name.ends_with(".rs") {
            rs.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
    Ok(())
}

/// Feature names declared under `[features]` in one `Cargo.toml`
/// (`name = ...` lines; array continuation lines carry no `=`).
fn manifest_features(toml: &str) -> Vec<String> {
    let mut in_features = false;
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            in_features = line == "[features]";
        } else if in_features && !line.starts_with('#') {
            if let Some((name, _)) = line.split_once('=') {
                out.push(name.trim().trim_matches('"').to_string());
            }
        }
    }
    out
}

/// One file, lexed and parsed once; shared by every rule and every cfg
/// configuration (the <5 s CI budget depends on parsing each file
/// exactly once).
pub(crate) struct AnalyzedFile {
    pub(crate) ctx: FileCtx,
    pub(crate) facts: parse::FileFacts,
}

/// A fully loaded workspace: every `.rs` file lexed and parsed exactly
/// once. [`Analysis::lint`] can then be run repeatedly with different
/// [`Config`]s (the CI cfg matrix) without re-reading or re-parsing.
pub struct Analysis {
    files: Vec<AnalyzedFile>,
    proptest_src: Option<String>,
    features: BTreeSet<String>,
}

impl Analysis {
    /// Loads every `.rs` file under `root` (the workspace root, or a
    /// fixture tree shaped like one), in sorted order, and the feature
    /// names its `Cargo.toml` files declare.
    pub fn load(root: &Path) -> io::Result<Analysis> {
        let mut paths = Vec::new();
        let mut manifests = Vec::new();
        collect_files(root, &mut paths, &mut manifests)?;
        let mut features = BTreeSet::new();
        for path in &manifests {
            features.extend(manifest_features(&fs::read_to_string(path)?));
        }
        let mut files = Vec::new();
        for path in &paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(path)?;
            let ctx = FileCtx::new(rel, &src);
            let facts = parse::parse_file(&ctx.lines);
            files.push(AnalyzedFile { ctx, facts });
        }
        let proptest_src = fs::read_to_string(root.join(KERNELS_TESTS)).ok();
        Ok(Analysis {
            files,
            proptest_src,
            features,
        })
    }

    /// Every feature declared under `[features]` in a `Cargo.toml` of the
    /// scanned tree: the names a [`Config`] may meaningfully enable.
    pub fn declared_features(&self) -> &BTreeSet<String> {
        &self.features
    }

    /// Runs every rule (line-local and flow) under `config`.
    /// Deterministic: files are visited in sorted order and every
    /// report section is sorted.
    pub fn lint(&self, config: &Config) -> Report {
        let mut report = Report::default();
        for af in &self.files {
            lint_file(&af.ctx, &mut report);
            if af.ctx.rel == KERNELS_FILE {
                lint_kernel_classes(&af.ctx, self.proptest_src.as_deref(), &mut report);
            }
            report.files_scanned += 1;
        }
        flow::run(&self.files, config, &mut report);
        report
            .diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        report
            .unsafe_sites
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        report
            .lock_regions
            .sort_by(|a, b| (&a.file, a.start).cmp(&(&b.file, b.start)));
        report
            .warm_roots
            .sort_by(|a, b| (&a.file, &a.name).cmp(&(&b.file, &b.name)));
        report
            .cfg_pairs
            .sort_by(|a, b| (&a.file, a.kind, &a.name).cmp(&(&b.file, b.kind, &b.name)));
        report
    }
}

/// Lints every `.rs` file under `root` with the default configuration
/// (no cargo features active). The one-shot entry point; for the cfg
/// matrix, [`Analysis::load`] once and [`Analysis::lint`] per config.
pub fn lint_root(root: &Path) -> io::Result<Report> {
    Ok(Analysis::load(root)?.lint(&Config::default()))
}

// ---------------------------------------------------------------------------
// JSON rendering (machine-readable mode; no external deps).
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as a single JSON object:
/// `{"files_scanned":N,"diagnostics":[...],"unsafe_inventory":[...]}`
/// (the inventory is included only when `inventory` is set).
pub fn to_json(report: &Report, inventory: bool) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"files_scanned\":{},", report.files_scanned));
    out.push_str("\"diagnostics\":[");
    for (k, d) in report.diagnostics.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
    }
    out.push(']');
    if inventory {
        out.push_str(",\"unsafe_inventory\":[");
        for (k, s) in report.unsafe_sites.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let safety = match &s.safety {
                Some(t) => format!("\"{}\"", json_escape(t)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"safety\":{}}}",
                json_escape(&s.file),
                s.line,
                safety
            ));
        }
        out.push_str("],\"lock_regions\":[");
        for (k, r) in report.lock_regions.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let binding = match &r.binding {
                Some(b) => format!("\"{}\"", json_escape(b)),
                None => "null".to_string(),
            };
            let events = r
                .events
                .iter()
                .map(|e| format!("\"{}\"", json_escape(e)))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"fn\":\"{}\",\"kind\":\"{}\",\"start\":{},\"end\":{},\
                 \"binding\":{},\"events\":[{}]}}",
                json_escape(&r.file),
                json_escape(&r.fn_name),
                json_escape(r.kind),
                r.start,
                r.end,
                binding,
                events
            ));
        }
        out.push_str("],\"warm_roots\":[");
        for (k, w) in report.warm_roots.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"name\":\"{}\",\"closure\":{},\"alloc_sites\":{}}}",
                json_escape(&w.file),
                json_escape(&w.name),
                w.closure,
                w.alloc_sites
            ));
        }
        out.push_str("],\"cfg_pairs\":[");
        for (k, p) in report.cfg_pairs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"name\":\"{}\",\"kind\":\"{}\"}}",
                json_escape(&p.file),
                json_escape(&p.name),
                json_escape(p.kind)
            ));
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_features_reads_only_the_features_table() {
        let toml = r#"
[package]
name = "x"

[features]
# a comment = not a feature
failpoints = []
"quoted" = ["dep/a"]
multi = [
    "dep/b",
]

[dependencies]
dep = { path = "../dep" }
"#;
        assert_eq!(manifest_features(toml), ["failpoints", "quoted", "multi"]);
    }

    #[test]
    fn lexer_strips_comments_strings_and_chars() {
        let src = r#"let x = "thread::spawn"; // thread::spawn in comment
let c = 'a'; let lt: &'static str = s;
/* block
   thread::spawn */ let y = 1;"#;
        let lines = strip_lines(src);
        assert_eq!(lines.len(), 4);
        assert!(!lines[0].code.contains("thread::spawn"));
        assert!(lines[0].comment.contains("thread::spawn"));
        assert!(lines[1].code.contains("'static"));
        assert!(!lines[3].code.contains("thread::spawn"));
        assert!(lines[3].code.contains("let y = 1;"));
        assert!(lines[3].comment.contains("thread::spawn"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_nested_blocks() {
        let src =
            "let r = r#\"panic! \"quoted\" here\"#;\n/* a /* nested */ still comment */ code();";
        let lines = strip_lines(src);
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[1].code.contains("code();"));
        assert!(!lines[1].code.contains("nested"));
    }

    #[test]
    fn eps_ident_shapes() {
        for yes in [
            "eps",
            "EPS_TOL",
            "eps_total",
            "epsilon",
            "root_eps",
            "per_round_eps_cost",
        ] {
            assert!(is_eps_ident(yes), "{yes}");
        }
        for no in ["steps", "n_steps", "pepsin", "epsord"] {
            assert!(!is_eps_ident(no), "{no}");
        }
    }

    #[test]
    fn eps_comparisons_detected() {
        assert!(has_eps_comparison("if eps <= 0.0 {"));
        assert!(has_eps_comparison("if x.abs() < eps {"));
        assert!(has_eps_comparison("if total > eps_total {"));
        assert!(!has_eps_comparison("let v: Vec<f64> = vec![];"));
        assert!(!has_eps_comparison("for i in 0..n_steps {"));
        assert!(!has_eps_comparison("let f = |x| -> f64 { x };"));
    }

    #[test]
    fn field_mutations_detected() {
        assert!(has_field_mutation("st.reserved += eps;", "reserved"));
        assert!(has_field_mutation("self.nodes[sv].budget -= x;", "budget"));
        assert!(has_field_mutation("s.budget[sv] = 0.0;", "budget"));
        assert!(!has_field_mutation("if st.reserved == 0.0 {", "reserved"));
        assert!(!has_field_mutation(
            "let b = self.nodes[sv].budget;",
            "budget"
        ));
        assert!(!has_field_mutation("self.budget.push(0.0);", "budget"));
    }

    #[test]
    fn allow_parsing_accepts_well_formed_and_rejects_malformed() {
        let ok = parse_allows("// xlint: allow(panic-policy, reason = \"invariant: guarded\")");
        assert_eq!(ok.len(), 1);
        assert!(ok[0].ok && ok[0].rule == "panic-policy");
        let missing_reason = parse_allows("// xlint: allow(panic-policy)");
        assert!(!missing_reason[0].ok);
        let empty_reason = parse_allows("// xlint: allow(panic-policy, reason = \"\")");
        assert!(!empty_reason[0].ok);
        let unknown = parse_allows("// xlint: allow(no-such-rule, reason = \"x\")");
        assert!(!unknown[0].ok);
        // Reasons are prose: parentheses and commas inside the quotes must
        // not be mistaken for the directive's own delimiters.
        let nested = parse_allows(
            "// xlint: allow(panic-policy, reason = \"guarded by len() == 1 (see above, really)\")",
        );
        assert!(nested[0].ok && nested[0].rule == "panic-policy");
        let unclosed = parse_allows("// xlint: allow(panic-policy, reason = \"no closing paren\"");
        assert!(!unclosed[0].ok);
    }

    #[test]
    fn panic_hits_do_not_match_neighbors() {
        assert_eq!(panic_policy_hits("x.unwrap();"), vec![".unwrap()"]);
        assert!(panic_policy_hits("x.unwrap_or_else(|| 0)").is_empty());
        assert!(panic_policy_hits("std::panic::catch_unwind(f)").is_empty());
        assert_eq!(panic_policy_hits("panic!(\"boom\")"), vec!["panic!"]);
        assert_eq!(panic_policy_hits("x.expect(\"msg\")"), vec![".expect(...)"]);
        assert!(panic_policy_hits("x.expected_len()").is_empty());
    }
}
