//! Stage 2 of the analyzer: a recursive-descent item/function parser
//! over the stripped token stream from [`crate::strip_lines`].
//!
//! No `syn`, no proc-macro machinery — the workspace builds offline, so
//! this is a small hand-written tokenizer plus an item walker that
//! produces *per-function facts*: calls made (with receiver chains),
//! allocation sites, panic sites, `parking_lot`-style guard bindings
//! with their live regions, `#[cfg(feature = ...)]` gates (on items and
//! on body statements/blocks), and `// WARM:` tags. The flow rules in
//! [`crate::flow`] consume these facts; nothing here fires diagnostics.
//!
//! # Known approximations (deliberate, documented)
//!
//! * **No macro expansion.** Macro invocations are recorded as calls
//!   (`is_macro`), and their argument tokens are walked like ordinary
//!   code, but code *generated* by a macro is invisible.
//! * **Guard regions are scope-based, not borrow-based.** A guard bound
//!   by the innermost open `let` lives until that binding's block ends
//!   (or an explicit `drop(guard)`); a guard assigned *without* `let`
//!   (`held = self.state.lock();` inside a nested block) is treated as
//!   escaping — its region conservatively extends to the end of the
//!   function. `let outer = { let g = lock(); g };` re-escapes a guard
//!   through a block tail expression and is *not* tracked (a documented
//!   false negative; the workspace convention is to never do this).
//! * **Name-based call resolution.** The call graph edges are resolved
//!   by function name (plus path/module hints), not types — see
//!   [`crate::flow`] for how the rules keep that over-approximation
//!   sound.

use crate::Line;

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

/// One token of stripped code. Strings carry their *real* content
/// (recovered from [`Line::strings`]); numeric literals are folded into
/// `Ident` tokens carrying their text (the parser never interprets
/// them, but signature capture wants the original spelling).
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Punct(char),
    Str(String),
}

/// A token plus the 0-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Tok,
    pub line: usize,
}

/// Tokenizes stripped lines. Char literals and lifetimes disappear
/// (neither can affect any fact we extract); string literals become
/// [`Tok::Str`] with their recorded content.
pub fn tokenize(lines: &[Line]) -> Vec<Token> {
    let mut out = Vec::new();
    // Inside a multi-line string literal whose closing quote is on a
    // later line (content already recorded on the opening line).
    let mut in_str = false;
    for (ln, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut si = 0usize;
        let mut i = 0usize;
        if in_str {
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            if i < chars.len() {
                i += 1;
                in_str = false;
            } else {
                continue;
            }
        }
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c == '"' {
                let content = line.strings.get(si).cloned().unwrap_or_default();
                si += 1;
                out.push(Token {
                    kind: Tok::Str(content),
                    line: ln,
                });
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    i += 1;
                }
                if i < chars.len() {
                    i += 1;
                } else {
                    in_str = true;
                }
                continue;
            }
            if c == '\'' {
                // Blanked char literal (`''` or `' '`) vs lifetime tick.
                if chars.get(i + 1) == Some(&'\'') {
                    i += 2;
                } else if chars.get(i + 1) == Some(&' ') && chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                } else {
                    i += 1; // lifetime: drop the tick, the ident follows
                }
                continue;
            }
            if c == '_' || c.is_ascii_alphabetic() || c.is_ascii_digit() {
                let s = i;
                i += 1;
                while i < chars.len()
                    && (is_ident_char(chars[i])
                        || (chars[i] == '.'
                            && c.is_ascii_digit()
                            && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                out.push(Token {
                    kind: Tok::Ident(chars[s..i].iter().collect()),
                    line: ln,
                });
                continue;
            }
            out.push(Token {
                kind: Tok::Punct(c),
                line: ln,
            });
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Facts.
// ---------------------------------------------------------------------------

/// One `cfg(feature = "...")` atom: `on == false` for `not(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgAtom {
    pub feature: String,
    pub on: bool,
}

impl CfgAtom {
    /// Whether this atom is satisfied under the given enabled-feature
    /// set.
    pub fn active(&self, features: &std::collections::BTreeSet<String>) -> bool {
        features.contains(&self.feature) == self.on
    }
}

/// A call made inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments; the last one is the callee name (`["pool",
    /// "scope"]`, or just `["carve"]` for a method call).
    pub path: Vec<String>,
    /// Receiver chain for method calls (`"self.state"`, `"ws"`); empty
    /// for path calls; `"()"` when the receiver is a non-trivial
    /// expression.
    pub recv: String,
    /// 0-based line.
    pub line: usize,
    /// Body-level cfg gates active at the site (item gates live on the
    /// enclosing [`FnFact`]).
    pub cfg: Vec<CfgAtom>,
    pub is_macro: bool,
}

impl CallSite {
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// An allocation site (token-classified; see `classify_alloc`).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Human label, e.g. `".push()"`, `"Box::new"`, `"format!"`.
    pub what: String,
    pub line: usize,
    pub cfg: Vec<CfgAtom>,
}

/// A possible-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub what: String,
    pub line: usize,
}

/// Which protected lock a guard region belongs to, keyed off the
/// receiver the `.lock()` was called on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `...state.lock()` — the `KernelState` budget ledger.
    State,
    /// `...slots.lock()` — the kernel workspace-pool slots.
    PoolSlots,
}

impl LockKind {
    pub fn label(self) -> &'static str {
        match self {
            LockKind::State => "KernelState",
            LockKind::PoolSlots => "pool-slots",
        }
    }
}

/// A live guard region: from the `.lock()` call to the guard's drop.
#[derive(Debug, Clone)]
pub struct LockRegion {
    pub kind: LockKind,
    /// The `let` binding holding the guard, when recognizable.
    pub binding: Option<String>,
    /// 0-based first line (the `.lock()` call).
    pub start: usize,
    /// 0-based last line (inclusive).
    pub end: usize,
    /// Guard assigned without `let` — it escapes its lexical block, so
    /// the region conservatively runs to the end of the function.
    pub moved: bool,
}

/// A determinism-hostile token found in a body (`HashMap`, `HashSet`,
/// `thread::spawn`, `thread::scope`, `available_parallelism`).
#[derive(Debug, Clone)]
pub struct BanSite {
    pub what: String,
    pub line: usize,
    pub cfg: Vec<CfgAtom>,
}

/// Everything extracted from one `fn` item.
#[derive(Debug, Clone)]
pub struct FnFact {
    pub name: String,
    /// In-file module path (`["inner"]` for `mod inner { fn ... }`).
    pub module: Vec<String>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based line of the closing body brace (== `line` for bodyless
    /// trait-method declarations).
    pub end_line: usize,
    pub is_pub: bool,
    /// `pub(crate)` / `pub(super)` / `pub(in ..)`: visible inside its
    /// crate only (`is_pub` is also set).
    pub pub_restricted: bool,
    /// Self type of the enclosing `impl` block (`Matrix` for
    /// `impl Matrix { .. }` and for `impl Trait for Matrix { .. }`).
    pub owner: Option<String>,
    /// Under `#[cfg(test)]` (module or attribute) or `#[test]`.
    pub in_test: bool,
    /// Item-level cfg atoms (own attributes + enclosing modules).
    pub cfg: Vec<CfgAtom>,
    /// Tagged `// WARM:` in the doc block above.
    pub warm: bool,
    pub calls: Vec<CallSite>,
    pub allocs: Vec<AllocSite>,
    pub panics: Vec<PanicSite>,
    pub locks: Vec<LockRegion>,
    pub bans: Vec<BanSite>,
    /// Function names used as values, not called (`.map(laplace)`,
    /// `Some(Self::build)`): path tails not followed by `(`, `::` or
    /// `!`, and not field accesses.
    pub refs: Vec<CallSite>,
}

/// Per-file parse result.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    pub fns: Vec<FnFact>,
    /// Identifiers inside non-test `const`/`static` items and item-level
    /// macro invocations (a function table in a static names its entries
    /// without calling them; `proptest! { .. }` wraps whole test fns).
    pub item_idents: Vec<String>,
}

/// Parses one stripped file into facts. Never fails: unparseable
/// stretches are skipped with token-level recovery (a linter must not
/// die on code rustc accepts).
pub fn parse_file(lines: &[Line]) -> FileFacts {
    let toks = tokenize(lines);
    let mut p = Parser {
        toks: &toks,
        lines,
        i: 0,
        out: FileFacts::default(),
    };
    let mut module = Vec::new();
    p.parse_items(&mut module, None, &[], false, false);
    p.out
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

/// Accumulated attribute info for the next item.
#[derive(Debug, Clone, Default)]
struct AttrInfo {
    atoms: Vec<CfgAtom>,
    test: bool,
}

struct Parser<'a> {
    toks: &'a [Token],
    lines: &'a [Line],
    i: usize,
    out: FileFacts,
}

impl<'a> Parser<'a> {
    fn kind(&self, idx: usize) -> Option<&Tok> {
        self.toks.get(idx).map(|t| &t.kind)
    }

    fn line(&self, idx: usize) -> usize {
        self.toks
            .get(idx.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn is_punct(&self, idx: usize, c: char) -> bool {
        matches!(self.kind(idx), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident_at(&self, idx: usize) -> Option<&str> {
        match self.kind(idx) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// `::` path separator starting at `idx`.
    fn path_sep(&self, idx: usize) -> bool {
        self.is_punct(idx, ':') && self.is_punct(idx + 1, ':')
    }

    /// Skips a balanced `open ... close` group starting at `self.i`
    /// (which must be at `open`). Leaves `self.i` after the close.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert!(self.is_punct(self.i, open));
        let mut depth = 0usize;
        while self.i < self.toks.len() {
            if self.is_punct(self.i, open) {
                depth += 1;
            } else if self.is_punct(self.i, close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skips a balanced generic-argument group `< ... >` starting at
    /// `self.i` (at `<`). `->` arrows inside do not close angles.
    fn skip_angles(&mut self) {
        let mut depth = 0i64;
        while self.i < self.toks.len() {
            if self.is_punct(self.i, '<') {
                depth += 1;
            } else if self.is_punct(self.i, '>') && !(self.i > 0 && self.is_punct(self.i - 1, '-'))
            {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skips tokens until a `;` at zero brace/bracket/paren depth
    /// (consuming it) — const/static/type/use tails.
    fn skip_to_semi(&mut self) {
        let mut b = 0i64;
        while self.i < self.toks.len() {
            match self.kind(self.i) {
                Some(Tok::Punct('{')) | Some(Tok::Punct('[')) | Some(Tok::Punct('(')) => b += 1,
                Some(Tok::Punct('}')) | Some(Tok::Punct(']')) | Some(Tok::Punct(')')) => b -= 1,
                Some(Tok::Punct(';')) if b <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Parses one `#[...]` / `#![...]` attribute at `self.i` (at `#`)
    /// into `info`. Inner (`#!`) attributes are skipped without effect.
    fn parse_attr(&mut self, info: &mut AttrInfo) {
        self.i += 1; // '#'
        let inner = self.is_punct(self.i, '!');
        if inner {
            self.i += 1;
        }
        if !self.is_punct(self.i, '[') {
            return;
        }
        let start = self.i;
        self.skip_balanced('[', ']');
        if inner {
            return;
        }
        let body = &self.toks[start + 1..self.i.saturating_sub(1)];
        let head = match body.first().map(|t| &t.kind) {
            Some(Tok::Ident(s)) => s.as_str(),
            _ => return,
        };
        match head {
            "test" => info.test = true,
            "cfg" => {
                // Collect `feature = "..."` atoms with `not(...)`
                // awareness; `#[cfg(test)]` marks the item as test code.
                let mut neg_stack: Vec<usize> = Vec::new(); // paren depths of open not(...)
                let mut depth = 0usize;
                let mut k = 0usize;
                while k < body.len() {
                    match &body[k].kind {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            if neg_stack.last() == Some(&depth) {
                                neg_stack.pop();
                            }
                            depth = depth.saturating_sub(1);
                        }
                        Tok::Ident(s) if s == "not" => {
                            if matches!(body.get(k + 1).map(|t| &t.kind), Some(Tok::Punct('('))) {
                                neg_stack.push(depth + 1);
                            }
                        }
                        Tok::Ident(s) if s == "test" => info.test = true,
                        Tok::Ident(s) if s == "feature" => {
                            if matches!(body.get(k + 1).map(|t| &t.kind), Some(Tok::Punct('='))) {
                                if let Some(Tok::Str(f)) = body.get(k + 2).map(|t| &t.kind) {
                                    info.atoms.push(CfgAtom {
                                        feature: f.clone(),
                                        on: neg_stack.len().is_multiple_of(2),
                                    });
                                }
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            _ => {}
        }
    }

    /// Item loop: parses items until the matching `}` (when
    /// `end_at_brace`) or end of input.
    fn parse_items(
        &mut self,
        module: &mut Vec<String>,
        owner: Option<&str>,
        cfg: &[CfgAtom],
        in_test: bool,
        end_at_brace: bool,
    ) {
        let mut pending = AttrInfo::default();
        while self.i < self.toks.len() {
            if self.is_punct(self.i, '}') {
                self.i += 1;
                if end_at_brace {
                    return;
                }
                continue;
            }
            if self.is_punct(self.i, '#') {
                self.parse_attr(&mut pending);
                continue;
            }
            let Some(word) = self.ident_at(self.i).map(str::to_string) else {
                // Unknown leading token: recover. Balanced-skip braces so
                // module nesting stays consistent.
                if self.is_punct(self.i, '{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.i += 1;
                }
                pending = AttrInfo::default();
                continue;
            };
            match word.as_str() {
                "pub" | "unsafe" | "async" | "extern" | "default" => {
                    self.i += 1;
                    if word == "pub" && self.is_punct(self.i, '(') {
                        self.skip_balanced('(', ')');
                    }
                    if word == "extern" {
                        if matches!(self.kind(self.i), Some(Tok::Str(_))) {
                            self.i += 1;
                        }
                        if self.ident_at(self.i) == Some("crate") {
                            self.skip_to_semi();
                            pending = AttrInfo::default();
                        } else if self.is_punct(self.i, '{') {
                            // extern block: no fn bodies inside, skip.
                            self.skip_balanced('{', '}');
                            pending = AttrInfo::default();
                        }
                    }
                    // Modifier: keep `pending`, keep scanning. `is_pub`
                    // is re-derived by lookback in parse_fn.
                    continue;
                }
                "const" | "static" => {
                    if self.ident_at(self.i + 1) == Some("fn") {
                        self.i += 1; // `const fn`: treat as modifier
                        continue;
                    }
                    let start = self.i;
                    self.skip_to_semi();
                    if !(in_test || pending.test) {
                        for t in &self.toks[start..self.i] {
                            if let Tok::Ident(id) = &t.kind {
                                self.out.item_idents.push(id.clone());
                            }
                        }
                    }
                    pending = AttrInfo::default();
                }
                "mod" => {
                    self.i += 1;
                    let name = self.ident_at(self.i).map(str::to_string);
                    self.i += 1;
                    if self.is_punct(self.i, '{') {
                        self.i += 1;
                        let mut atoms = cfg.to_vec();
                        atoms.extend(pending.atoms.iter().cloned());
                        let test = in_test || pending.test;
                        module.push(name.unwrap_or_default());
                        self.parse_items(module, None, &atoms, test, true);
                        module.pop();
                    } else if self.is_punct(self.i, ';') {
                        self.i += 1;
                    }
                    pending = AttrInfo::default();
                }
                "impl" | "trait" => {
                    self.i += 1;
                    if word == "trait" {
                        // skip the trait name; generics/supertraits below
                        self.i += 1;
                    }
                    // Skip generics / type path / where clause up to `{`,
                    // noting the self type: the last path segment outside
                    // generics, after `for` when there is one.
                    let mut self_ty: Option<String> = None;
                    let mut in_where = false;
                    while self.i < self.toks.len() {
                        if self.is_punct(self.i, '<') {
                            self.skip_angles();
                        } else if let Some(id) = self.ident_at(self.i) {
                            match id {
                                "where" => in_where = true,
                                "for" if !in_where => self_ty = None,
                                "dyn" | "mut" | "unsafe" => {}
                                _ if !in_where => self_ty = Some(id.to_string()),
                                _ => {}
                            }
                            self.i += 1;
                        } else if self.is_punct(self.i, '{') {
                            break;
                        } else if self.is_punct(self.i, ';') {
                            self.i += 1;
                            break;
                        } else {
                            self.i += 1;
                        }
                    }
                    if self.is_punct(self.i, '{') {
                        self.i += 1;
                        let mut atoms = cfg.to_vec();
                        atoms.extend(pending.atoms.iter().cloned());
                        let test = in_test || pending.test;
                        // Methods share the module namespace.
                        let owner = if word == "impl" { self_ty } else { None };
                        self.parse_items(module, owner.as_deref(), &atoms, test, true);
                    }
                    pending = AttrInfo::default();
                }
                "fn" => {
                    let mut atoms = cfg.to_vec();
                    atoms.extend(pending.atoms.iter().cloned());
                    let test = in_test || pending.test;
                    self.parse_fn(module, owner, atoms, test);
                    pending = AttrInfo::default();
                }
                "use" => {
                    self.skip_to_semi();
                    pending = AttrInfo::default();
                }
                "struct" | "enum" | "union" | "type" => {
                    // Skip the whole item: `{...}` body or `;` tail.
                    self.i += 1;
                    while self.i < self.toks.len() {
                        if self.is_punct(self.i, '<') {
                            self.skip_angles();
                        } else if self.is_punct(self.i, '{') {
                            self.skip_balanced('{', '}');
                            break;
                        } else if self.is_punct(self.i, ';') {
                            self.i += 1;
                            break;
                        } else {
                            self.i += 1;
                        }
                    }
                    pending = AttrInfo::default();
                }
                "macro_rules" => {
                    self.i += 1; // macro_rules
                    if self.is_punct(self.i, '!') {
                        self.i += 1;
                    }
                    self.i += 1; // name
                    if self.is_punct(self.i, '{') {
                        self.skip_balanced('{', '}');
                    }
                    pending = AttrInfo::default();
                }
                _ => {
                    // An item-level macro (`proptest! { .. }`) hides its
                    // fns from the item walk; keep the names it mentions.
                    let open = self.i + 2;
                    if self.is_punct(self.i + 1, '!') && !(in_test || pending.test) {
                        if let Some(&Tok::Punct(c @ ('{' | '(' | '['))) = self.kind(open) {
                            let close = match c {
                                '{' => '}',
                                '(' => ')',
                                _ => ']',
                            };
                            let resume = self.i;
                            self.i = open;
                            self.skip_balanced(c, close);
                            for t in &self.toks[open..self.i] {
                                if let Tok::Ident(id) = &t.kind {
                                    self.out.item_idents.push(id.clone());
                                }
                            }
                            self.i = resume;
                        }
                    }
                    self.i += 1;
                    pending = AttrInfo::default();
                }
            }
        }
    }

    /// Whether the tokens directly before `at` (same item, skipping
    /// modifier keywords) include `pub`, and whether it is restricted
    /// (`pub(crate)` and the like).
    fn pub_lookback(&self, at: usize) -> (bool, bool) {
        let mut restricted = false;
        let mut j = at;
        let mut steps = 0;
        while j > 0 && steps < 8 {
            j -= 1;
            steps += 1;
            match &self.toks[j].kind {
                Tok::Ident(s)
                    if matches!(
                        s.as_str(),
                        "unsafe" | "async" | "const" | "extern" | "default"
                    ) => {}
                Tok::Ident(s) if s == "pub" => return (true, restricted),
                Tok::Punct(')') => {
                    // `pub(crate)` etc: scan back over the group.
                    restricted = true;
                    let mut depth = 0i64;
                    while j > 0 {
                        if self.is_punct(j, ')') {
                            depth += 1;
                        } else if self.is_punct(j, '(') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j -= 1;
                    }
                }
                Tok::Str(_) => {}
                _ => return (false, false),
            }
        }
        (false, false)
    }

    /// Collects `// WARM:` from the contiguous comment/attribute block
    /// directly above `fn_line`.
    fn warm_tag_above(&self, fn_line: usize) -> bool {
        let mut j = fn_line;
        while j > 0 {
            j -= 1;
            let above = &self.lines[j];
            let acode = above.code.trim();
            if !acode.is_empty() && !acode.starts_with("#[") {
                return false;
            }
            if acode.is_empty() && above.comment.is_empty() {
                return false;
            }
            if above.comment.contains("WARM:") {
                return true;
            }
        }
        false
    }

    /// Parses a `fn` item; `self.i` is at the `fn` keyword.
    fn parse_fn(
        &mut self,
        module: &[String],
        owner: Option<&str>,
        cfg: Vec<CfgAtom>,
        in_test: bool,
    ) {
        let (is_pub, pub_restricted) = self.pub_lookback(self.i);
        let fn_line = self.line(self.i);
        self.i += 1;
        let name = self
            .ident_at(self.i)
            .map(str::to_string)
            .unwrap_or_default();
        // Signature: scan from the name to the body `{` or declaration
        // `;` (generics are angle-skipped as a unit so a `>` never
        // terminates early).
        let mut body_start: Option<usize> = None;
        while self.i < self.toks.len() {
            match self.kind(self.i) {
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('{')) => {
                    body_start = Some(self.i);
                    break;
                }
                Some(Tok::Punct(';')) => {
                    self.i += 1;
                    break;
                }
                Some(_) => self.i += 1,
                None => break,
            }
        }
        let mut fact = FnFact {
            name,
            module: module.to_vec(),
            line: fn_line,
            end_line: fn_line,
            is_pub,
            pub_restricted,
            owner: owner.map(str::to_string),
            in_test,
            cfg,
            warm: self.warm_tag_above(fn_line),
            calls: Vec::new(),
            allocs: Vec::new(),
            panics: Vec::new(),
            locks: Vec::new(),
            bans: Vec::new(),
            refs: Vec::new(),
        };
        if body_start.is_some() {
            self.i += 1; // consume body '{'
            self.parse_body(&mut fact);
        }
        self.out.fns.push(fact);
    }

    fn parse_body(&mut self, fact: &mut FnFact) {
        BodyWalker::walk(self, fact);
    }
}

// ---------------------------------------------------------------------------
// Body walker.
// ---------------------------------------------------------------------------

/// An open `let` binding (innermost-last).
struct LetCtx {
    name: Option<String>,
    depth: i64,
}

/// How an open guard region closes.
enum CloseAt {
    /// When brace depth drops below this value.
    Depth(i64),
    /// At the next `;` at this depth (chained `.lock().x()` temporary
    /// or bare-statement guard).
    Stmt(i64),
    /// At the end of the function (moved guard).
    FnEnd,
}

struct OpenRegion {
    kind: LockKind,
    binding: Option<String>,
    start: usize,
    close: CloseAt,
    moved: bool,
}

/// An active body-level cfg gate.
struct GateCtx {
    atoms: Vec<CfgAtom>,
    /// Depth at which the gate was declared.
    depth: i64,
    /// Gates a single statement (no leading `{`).
    statement: bool,
    /// The gated statement opened at least one block.
    saw_block: bool,
}

struct BodyWalker;

impl BodyWalker {
    fn walk(p: &mut Parser<'_>, fact: &mut FnFact) {
        let mut depth: i64 = 1; // body '{' already consumed
        let mut lets: Vec<LetCtx> = Vec::new();
        let mut regions: Vec<OpenRegion> = Vec::new();
        let mut gates: Vec<GateCtx> = Vec::new();
        let mut suppress_next_let = false;
        let mut last_line = fact.line;
        while p.i < p.toks.len() {
            let line = p.line(p.i);
            last_line = line;
            match p.kind(p.i).cloned() {
                Some(Tok::Punct('{')) => {
                    depth += 1;
                    if let Some(g) = gates.last_mut() {
                        if g.statement && g.depth == depth - 1 {
                            g.saw_block = true;
                        }
                    }
                    p.i += 1;
                }
                Some(Tok::Punct('}')) => {
                    depth -= 1;
                    // Close lexically-scoped things that ended here.
                    lets.retain(|l| l.depth <= depth);
                    let mut k = 0;
                    while k < regions.len() {
                        let done = match regions[k].close {
                            CloseAt::Depth(d) => depth < d,
                            CloseAt::Stmt(d) => depth < d,
                            CloseAt::FnEnd => false,
                        };
                        if done && depth > 0 {
                            let r = regions.remove(k);
                            fact.locks.push(LockRegion {
                                kind: r.kind,
                                binding: r.binding,
                                start: r.start,
                                end: line,
                                moved: r.moved,
                            });
                        } else {
                            k += 1;
                        }
                    }
                    // Close cfg gates.
                    let next_is_else = p.ident_at(p.i + 1) == Some("else");
                    gates.retain(|g| {
                        if g.statement {
                            !(g.saw_block && depth == g.depth && !next_is_else)
                        } else {
                            depth > g.depth
                        }
                    });
                    p.i += 1;
                    if depth == 0 {
                        for r in regions.drain(..) {
                            fact.locks.push(LockRegion {
                                kind: r.kind,
                                binding: r.binding,
                                start: r.start,
                                end: line,
                                moved: r.moved,
                            });
                        }
                        fact.end_line = line;
                        return;
                    }
                }
                Some(Tok::Punct(';')) => {
                    while lets.last().is_some_and(|l| l.depth >= depth) {
                        lets.pop();
                    }
                    let mut k = 0;
                    while k < regions.len() {
                        if matches!(regions[k].close, CloseAt::Stmt(d) if d >= depth) {
                            let r = regions.remove(k);
                            fact.locks.push(LockRegion {
                                kind: r.kind,
                                binding: r.binding,
                                start: r.start,
                                end: line,
                                moved: r.moved,
                            });
                        } else {
                            k += 1;
                        }
                    }
                    gates.retain(|g| !(g.statement && g.depth >= depth));
                    p.i += 1;
                }
                Some(Tok::Punct('#')) => {
                    let mut info = AttrInfo::default();
                    p.parse_attr(&mut info);
                    if !info.atoms.is_empty() {
                        let statement = !p.is_punct(p.i, '{');
                        gates.push(GateCtx {
                            atoms: info.atoms,
                            depth,
                            statement,
                            saw_block: false,
                        });
                    }
                }
                Some(Tok::Ident(word)) => {
                    Self::on_ident(
                        p,
                        fact,
                        &word,
                        line,
                        depth,
                        &mut lets,
                        &mut regions,
                        &gates,
                        &mut suppress_next_let,
                    );
                }
                Some(_) => p.i += 1,
                None => break,
            }
        }
        // Ran off the end (unbalanced braces — recovery): close regions.
        for r in regions.drain(..) {
            fact.locks.push(LockRegion {
                kind: r.kind,
                binding: r.binding,
                start: r.start,
                end: last_line,
                moved: r.moved,
            });
        }
        fact.end_line = last_line;
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ident(
        p: &mut Parser<'_>,
        fact: &mut FnFact,
        word: &str,
        line: usize,
        depth: i64,
        lets: &mut Vec<LetCtx>,
        regions: &mut Vec<OpenRegion>,
        gates: &[GateCtx],
        suppress_next_let: &mut bool,
    ) {
        let active_cfg =
            || -> Vec<CfgAtom> { gates.iter().flat_map(|g| g.atoms.iter().cloned()).collect() };
        match word {
            "if" | "while" => {
                // `if let` / `while let` bind for the *body* block, which
                // brace-depth scoping already models; suppress the `let`
                // so it is not mistaken for an open statement binding.
                *suppress_next_let = true;
                p.i += 1;
                return;
            }
            "const" | "static" => {
                // A function-local item or a `*const T` cast: skip the
                // keyword (and `mut`) so neither reads as a binding.
                p.i += 1;
                if p.ident_at(p.i) == Some("mut") {
                    p.i += 1;
                }
                return;
            }
            "let" => {
                p.i += 1;
                if *suppress_next_let {
                    *suppress_next_let = false;
                    return;
                }
                let mut j = p.i;
                if p.ident_at(j) == Some("mut") {
                    j += 1;
                }
                let name = match (p.ident_at(j), p.kind(j + 1)) {
                    (Some(id), Some(Tok::Punct('=')))
                    | (Some(id), Some(Tok::Punct(':')))
                    | (Some(id), Some(Tok::Punct(';'))) => Some(id.to_string()),
                    _ => None,
                };
                lets.push(LetCtx { name, depth });
                return;
            }
            _ => {}
        }
        if !matches!(word.chars().next(), Some(c) if c == '_' || c.is_ascii_alphabetic()) {
            // Numeric literal token.
            p.i += 1;
            return;
        }
        // drop(guard): closes the named region.
        if word == "drop" && p.is_punct(p.i + 1, '(') && p.is_punct(p.i + 3, ')') {
            if let Some(arg) = p.ident_at(p.i + 2).map(str::to_string) {
                let mut k = 0;
                while k < regions.len() {
                    if regions[k].binding.as_deref() == Some(arg.as_str()) {
                        let r = regions.remove(k);
                        fact.locks.push(LockRegion {
                            kind: r.kind,
                            binding: r.binding,
                            start: r.start,
                            end: line,
                            moved: r.moved,
                        });
                    } else {
                        k += 1;
                    }
                }
                p.i += 4;
                return;
            }
        }
        // Determinism-hostile type tokens (any position, incl. types).
        if word == "HashMap" || word == "HashSet" {
            fact.bans.push(BanSite {
                what: word.to_string(),
                line,
                cfg: active_cfg(),
            });
            p.i += 1;
            return;
        }
        if word == "available_parallelism" {
            fact.bans.push(BanSite {
                what: "available_parallelism".to_string(),
                line,
                cfg: active_cfg(),
            });
            // fall through: it is also a call
        }
        // Call detection: `name(`, `name::<T>(`, `name!(`/`![`/`!{`.
        let mut after = p.i + 1;
        let is_macro = p.is_punct(after, '!')
            && (p.is_punct(after + 1, '(')
                || p.is_punct(after + 1, '[')
                || p.is_punct(after + 1, '{'));
        let mut has_turbofish = false;
        if !is_macro && p.path_sep(after) && p.is_punct(after + 2, '<') {
            // Turbofish: name::<...>(
            let save = p.i;
            p.i = after + 2;
            p.skip_angles();
            after = p.i;
            p.i = save;
            has_turbofish = true;
        }
        let is_call = is_macro || p.is_punct(after, '(');
        // Build the path backwards: `a::b::name(`.
        let mut path = vec![word.to_string()];
        let mut start = p.i;
        while start >= 3 && p.path_sep(start - 2) {
            if let Some(seg) = p.ident_at(start - 3) {
                path.insert(0, seg.to_string());
                start -= 3;
            } else {
                break;
            }
        }
        if !is_call {
            let path_tail = has_turbofish || !p.path_sep(p.i + 1);
            let field = start >= 1 && p.is_punct(start - 1, '.');
            if path_tail && !field {
                fact.refs.push(CallSite {
                    path,
                    recv: String::new(),
                    line,
                    cfg: active_cfg(),
                    is_macro: false,
                });
            }
            p.i += 1;
            return;
        }
        // Receiver chain for method calls: `a.b.name(`.
        let mut recv = String::new();
        if start >= 1 && p.is_punct(start - 1, '.') {
            let mut parts: Vec<String> = Vec::new();
            let mut j = start - 1;
            loop {
                if j == 0 {
                    break;
                }
                if let Some(seg) = p.ident_at(j - 1) {
                    parts.insert(0, seg.to_string());
                    if j >= 2 && p.is_punct(j - 2, '.') {
                        j -= 2;
                        continue;
                    }
                    break;
                }
                // Receiver is an expression (`foo().bar(`, `x[i].bar(`).
                parts.clear();
                parts.push("()".to_string());
                break;
            }
            recv = parts.join(".");
        }
        let cfg_here = active_cfg();
        let name = word.to_string();
        // Thread primitives are reachability bans, not just calls.
        if path.len() >= 2
            && path[path.len() - 2] == "thread"
            && (name == "spawn" || name == "scope")
        {
            fact.bans.push(BanSite {
                what: format!("thread::{name}"),
                line,
                cfg: cfg_here.clone(),
            });
        }
        // Allocation classification.
        if let Some(what) = classify_alloc(&path, &recv, is_macro) {
            fact.allocs.push(AllocSite {
                what,
                line,
                cfg: cfg_here.clone(),
            });
        }
        // Panic classification.
        if let Some(what) = classify_panic(&name, &recv, is_macro) {
            fact.panics.push(PanicSite { what, line });
        }
        // Lock-region opening: `<recv ending in state|slots>.lock()`.
        if !is_macro && name == "lock" {
            let kind = match recv.rsplit('.').next() {
                Some("state") => Some(LockKind::State),
                Some("slots") => Some(LockKind::PoolSlots),
                _ => None,
            };
            if let Some(kind) = kind {
                // `lock()` is zero-arg: the close paren is at after+1.
                let chained = p.is_punct(after + 2, '.') || p.is_punct(after + 2, '?');
                if chained {
                    regions.push(OpenRegion {
                        kind,
                        binding: None,
                        start: line,
                        close: CloseAt::Stmt(depth),
                        moved: false,
                    });
                } else if let Some(top) = lets.last() {
                    regions.push(OpenRegion {
                        kind,
                        binding: top.name.clone(),
                        start: line,
                        close: CloseAt::Depth(top.depth),
                        moved: false,
                    });
                } else if let Some(assignee) = Self::assignment_lookback(p, start) {
                    regions.push(OpenRegion {
                        kind,
                        binding: Some(assignee),
                        start: line,
                        close: CloseAt::FnEnd,
                        moved: true,
                    });
                } else {
                    regions.push(OpenRegion {
                        kind,
                        binding: None,
                        start: line,
                        close: CloseAt::Stmt(depth),
                        moved: false,
                    });
                }
            }
        }
        fact.calls.push(CallSite {
            path,
            recv,
            line,
            cfg: cfg_here,
            is_macro,
        });
        // Advance past the callee name (turbofish included); arguments
        // are walked as ordinary tokens so nested calls are seen.
        p.i = if has_turbofish { after } else { p.i + 1 };
        if is_macro {
            p.i += 1; // the '!'
        }
    }

    /// Looks back from the receiver start of a `.lock()` call for a
    /// plain `name = ...` assignment earlier in the same statement —
    /// the moved-guard shape (`held = self.state.lock();` with `held`
    /// declared in an outer scope).
    fn assignment_lookback(p: &Parser<'_>, from: usize) -> Option<String> {
        let mut j = from;
        while j > 1 {
            j -= 1;
            match p.kind(j) {
                Some(Tok::Punct(';')) | Some(Tok::Punct('{')) | Some(Tok::Punct('}')) => {
                    return None
                }
                Some(Tok::Punct('=')) => {
                    // Exclude `==`, `=>`, `<=`, `>=`, `!=`, `+=`-family.
                    if matches!(p.kind(j + 1), Some(Tok::Punct('=')) | Some(Tok::Punct('>'))) {
                        continue;
                    }
                    if let Some(Tok::Ident(name)) = p.kind(j - 1) {
                        return Some(name.clone());
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// Classifies a call as an allocation site, returning a display label.
/// `Vec::new` is deliberately absent (it does not allocate), as is
/// `.reserve(` — the budget API uses the same method name for epsilon
/// reservation and the workspace arena's `reserve` is annotated at its
/// call sites instead.
fn classify_alloc(path: &[String], recv: &str, is_macro: bool) -> Option<String> {
    let name = path.last().map(String::as_str).unwrap_or("");
    if is_macro {
        return match name {
            "format" | "vec" => Some(format!("{name}!")),
            _ => None,
        };
    }
    if path.len() >= 2 {
        let head = path[path.len() - 2].as_str();
        return match (head, name) {
            ("Box" | "Arc" | "Rc", "new") => Some(format!("{head}::new")),
            ("String", "from") => Some("String::from".to_string()),
            (_, "with_capacity") => Some(format!("{head}::with_capacity")),
            // `Arc::clone(&x)` / `Rc::clone(&x)` are refcount bumps.
            _ => None,
        };
    }
    if recv.is_empty() {
        return None;
    }
    match name {
        "push" | "to_vec" | "collect" | "clone" | "to_string" | "to_owned" | "resize"
        | "resize_with" | "extend" | "insert" | "append" | "with_capacity" => {
            Some(format!(".{name}()"))
        }
        _ => None,
    }
}

/// Classifies a call as a possible-panic site. `debug_assert*` is
/// excluded (compiled out of release, and the panic-policy rule already
/// treats it as diagnostic-only).
fn classify_panic(name: &str, recv: &str, is_macro: bool) -> Option<String> {
    if is_macro {
        return match name {
            "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo"
            | "unimplemented" => Some(format!("{name}!")),
            _ => None,
        };
    }
    if recv.is_empty() {
        return None;
    }
    match name {
        "unwrap" => Some(".unwrap()".to_string()),
        "expect" => Some(".expect(...)".to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_lines;

    fn parse(src: &str) -> FileFacts {
        parse_file(&strip_lines(src))
    }

    #[test]
    fn fn_facts_record_calls_allocs_and_panics() {
        let src = r#"
pub fn f(v: &mut Vec<f64>) {
    v.push(1.0);
    let b = Box::new(3);
    helper(b);
    x.unwrap();
    panic!("boom");
}
"#;
        let facts = parse(src);
        assert_eq!(facts.fns.len(), 1);
        let f = &facts.fns[0];
        assert_eq!(f.name, "f");
        assert!(f.is_pub);
        let allocs: Vec<&str> = f.allocs.iter().map(|a| a.what.as_str()).collect();
        assert!(allocs.contains(&".push()"), "{allocs:?}");
        assert!(allocs.contains(&"Box::new"), "{allocs:?}");
        assert!(f.calls.iter().any(|c| c.name() == "helper"));
        let panics: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(panics.contains(&".unwrap()"), "{panics:?}");
        assert!(panics.contains(&"panic!"), "{panics:?}");
    }

    #[test]
    fn lock_region_scoped_to_let_block() {
        let src = r#"
fn g(&self) -> f64 {
    let snap = {
        let st = self.state.lock();
        st.total()
    };
    finish(snap)
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.locks.len(), 1);
        let r = &f.locks[0];
        assert_eq!(r.kind, LockKind::State);
        assert_eq!(r.binding.as_deref(), Some("st"));
        // Region ends at the inner block close (line 5, 0-based), not
        // at the end of the function.
        assert_eq!(r.start, 3);
        assert_eq!(r.end, 5);
        assert!(!r.moved);
    }

    #[test]
    fn moved_guard_extends_to_fn_end() {
        let src = r#"
fn h(&self) {
    let held;
    {
        held = self.state.lock();
    }
    after();
    last();
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.locks.len(), 1);
        let r = &f.locks[0];
        assert!(r.moved);
        assert_eq!(r.binding.as_deref(), Some("held"));
        assert_eq!(r.end, 8, "moved guard must extend to the fn end");
    }

    #[test]
    fn drop_closes_region_early() {
        let src = r#"
fn k(&self) {
    let st = self.state.lock();
    st.charge(1.0);
    drop(st);
    after();
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].end, 4);
    }

    #[test]
    fn chained_guard_is_statement_scoped() {
        let src = r#"
fn m(&self) -> f64 {
    let t = self.state.lock().total();
    other(t)
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].start, 2);
        assert_eq!(f.locks[0].end, 2);
    }

    #[test]
    fn cfg_atoms_on_items_and_body_consts() {
        let src = r#"
#[cfg(feature = "failpoints")]
pub fn armed() {}
#[cfg(not(feature = "failpoints"))]
pub fn stub() {}
fn host() {
    #[cfg(feature = "failpoints")]
    const PANEL: usize = 4;
    static mut SEEN: usize = 0;
    let n = PANEL;
    after(n)
}
"#;
        let facts = parse(src);
        let armed = facts.fns.iter().find(|f| f.name == "armed").unwrap();
        assert_eq!(
            armed.cfg,
            vec![CfgAtom {
                feature: "failpoints".to_string(),
                on: true
            }]
        );
        let stub = facts.fns.iter().find(|f| f.name == "stub").unwrap();
        assert_eq!(
            stub.cfg,
            vec![CfgAtom {
                feature: "failpoints".to_string(),
                on: false
            }]
        );
        // Body items are skipped without ending the fn or hiding calls.
        let host = facts.fns.iter().find(|f| f.name == "host").unwrap();
        assert_eq!(host.end_line, 11);
        assert!(host.calls.iter().any(|c| c.name() == "after"));
    }

    #[test]
    fn warm_tag_and_modules_and_sig() {
        let src = r#"
pub mod outer {
    /// Dot product.
    // WARM: zero-alloc entry
    pub fn dot<T: Into<f64>>(a: &[T]) -> f64 where T: Copy { first(a) }
}
pub mod inner {
    pub fn dot(a: &[f64], b: &[f64]) -> f64 { 0.0 }
}
"#;
        let facts = parse(src);
        assert_eq!(facts.fns.len(), 2);
        let s = facts.fns.iter().find(|f| f.module == ["outer"]).unwrap();
        let v = facts.fns.iter().find(|f| f.module == ["inner"]).unwrap();
        assert!(s.warm);
        assert!(!v.warm);
        // The signature scan steps over generics, `->` and `where` to
        // the body, so the body's call is attributed to the fn.
        assert!(s.calls.iter().any(|c| c.name() == "first"));
    }

    #[test]
    fn use_groups_and_bans() {
        let src = r#"
#[cfg(feature = "failpoints")]
pub use inner::{dot, axpy};
use std::collections::{BTreeMap as Map, HashSet};
fn bad() {
    let m: HashMap<u32, u32> = make();
    std::thread::spawn(|| {});
}
"#;
        let facts = parse(src);
        let names: Vec<&str> = facts.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["bad"], "use groups must be skipped whole");
        let bad = &facts.fns[0];
        assert!(
            bad.cfg.is_empty(),
            "a `use` attribute leaked: {:?}",
            bad.cfg
        );
        let bans: Vec<&str> = bad.bans.iter().map(|b| b.what.as_str()).collect();
        assert!(bans.contains(&"HashMap"), "{bans:?}");
        assert!(bans.contains(&"thread::spawn"), "{bans:?}");
    }

    #[test]
    fn test_mod_and_test_attr_mark_fns() {
        let src = r#"
fn lib_code() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
"#;
        let facts = parse(src);
        assert!(
            !facts
                .fns
                .iter()
                .find(|f| f.name == "lib_code")
                .unwrap()
                .in_test
        );
        assert!(
            facts
                .fns
                .iter()
                .find(|f| f.name == "helper")
                .unwrap()
                .in_test
        );
        assert!(facts.fns.iter().find(|f| f.name == "case").unwrap().in_test);
    }

    #[test]
    fn receiver_chains_and_paths() {
        let src = r#"
fn r(&self) {
    self.kernel.charge(1.0);
    pool::scope(|s| {});
    ws.carve(4);
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        let charge = f.calls.iter().find(|c| c.name() == "charge").unwrap();
        assert_eq!(charge.recv, "self.kernel");
        let scope = f.calls.iter().find(|c| c.name() == "scope").unwrap();
        assert_eq!(scope.path, vec!["pool", "scope"]);
        assert!(scope.recv.is_empty());
        let carve = f.calls.iter().find(|c| c.name() == "carve").unwrap();
        assert_eq!(carve.recv, "ws");
    }

    #[test]
    fn if_let_does_not_leak_an_open_binding() {
        let src = r#"
fn q(&self) {
    if let Some(x) = probe() {
        use_it(x);
    }
    let st = self.state.lock();
    st.total();
}
"#;
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].binding.as_deref(), Some("st"));
        // Bound at body depth: region runs to the fn's closing brace.
        assert_eq!(f.locks[0].end, 7);
    }

    #[test]
    fn impl_owner_value_refs_and_item_idents() {
        let src = r#"
impl<T: Copy> Trait for Thing<T> where T: Send {
    fn m(&self) {}
}
impl Other {
    pub(crate) fn r(&self) -> usize {
        self.xs.iter().map(Self::build).count() + self.len
    }
    pub fn p() {}
}
static TABLE: [fn(); 1] = [p];
proptest! { fn t() { helper(); } }
"#;
        let facts = parse(src);
        let [m, r, p] = &facts.fns[..] else {
            panic!("expected three fns, got {:?}", facts.fns);
        };
        assert_eq!(m.owner.as_deref(), Some("Thing"));
        assert_eq!(r.owner.as_deref(), Some("Other"));
        assert!(r.is_pub && r.pub_restricted);
        assert!(p.is_pub && !p.pub_restricted);
        // `Self::build` is named as a value; the `len` field is not.
        let refs: Vec<String> = r.refs.iter().map(|c| c.path.join("::")).collect();
        assert!(refs.contains(&"Self::build".to_string()), "{refs:?}");
        assert!(!refs.contains(&"len".to_string()), "{refs:?}");
        for id in ["p", "helper"] {
            assert!(facts.item_idents.iter().any(|i| i == id), "{id} missing");
        }
    }
}
