//! Stage 3 of the analyzer: the workspace call graph and the flow-rule
//! families built on the per-function facts from [`crate::parse`].
//!
//! # Rule families
//!
//! * **`lock-discipline`** — inside a live `KernelState` / pool-slots
//!   guard region (the hottest multi-tenant critical sections), forbid:
//!   allocation, `pool::scope` dispatch, solver entry points, reentrant
//!   calls into same-lock methods (`parking_lot` mutexes are not
//!   reentrant — that is a deadlock, not a slowdown), calls of a closure
//!   or function value (a bare lower-case call naming no workspace
//!   function: caller-supplied code that could panic or block under the
//!   lock), and panics without a justification annotation.
//! * **`warm-path-alloc`** — functions tagged `// WARM:` must have an
//!   allocation-free *transitive* call closure. An
//!   `xlint: allow(warm-path-alloc, ...)` on a call line severs that
//!   edge (declaring the callee a cold/setup boundary); on an
//!   allocation line it justifies the site itself.
//! * **`determinism-transitive`** — `HashMap`/`HashSet`/`thread::spawn`
//!   /`thread::scope`/`available_parallelism` are forbidden anywhere in
//!   the call closure of the deterministic entry points
//!   (`matvec_into`/`rmatvec_into`/`rmatvec_add` and the public
//!   kernels), not just in the three hot files the line rule watches.
//!   No file is exempt: the library is single-threaded.
//! * **`dead-pub`** — every `pub fn` in a library crate's `src/` needs
//!   a caller outside its own file and outside test code: another
//!   library file, a bench bin or bench, an example, or the root
//!   `tests/`. A call whose target the index cannot pin down counts as
//!   a caller of every function it might reach, so the rule can miss a
//!   dead item but never flags a live one.
//! * **`cfg-parity`** — every failpoint name used at a
//!   `triggered`/`panic_if` call site must be declared in
//!   `failpoints.rs`'s `SITES` list and vice versa (the `failpoints`
//!   feature compiles the sites in; the default build stubs them).
//!
//! # Soundness of the approximations
//!
//! Call edges are resolved by *name* (plus module-path hints when the
//! call is path-qualified), because a lexer-level parser has no type
//! information. That over-approximates reachability: extra edges can
//! only produce extra diagnostics, never hide one, and the allow
//! mechanism documents each deliberate boundary. Reachability is
//! depth-limited ([`DEPTH_LIMIT`]) — the workspace's real call chains
//! are < 10 deep; a cycle cannot wedge the traversal.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{CallSite, CfgAtom, FnFact};
use crate::{AnalyzedFile, Config, Diagnostic, Report};

/// Maximum call-graph depth explored from a root. Deep enough for every
/// real chain in the workspace; documented as an approximation in the
/// crate docs.
pub const DEPTH_LIMIT: usize = 16;

/// Path heads that name std/alloc types or modules: calls qualified by
/// these never resolve into workspace functions (prevents `Vec::new`
/// from aliasing every workspace `new`).
const STD_PATH_HEADS: &[&str] = &[
    "Vec", "String", "Box", "Arc", "Rc", "Cell", "RefCell", "BTreeMap", "BTreeSet", "VecDeque",
    "HashMap", "HashSet", "Option", "Result", "Some", "Ok", "Err", "Instant", "Duration", "Path",
    "PathBuf", "OnceLock", "Once", "Mutex", "RwLock", "Ordering", "std", "core", "alloc", "mem",
    "ptr", "slice", "iter", "cmp", "fmt", "f32", "f64", "u8", "u32", "u64", "usize", "i32", "i64",
    "str", "char", "thread", "env", "process", "panic", "array",
];

/// Method names so ubiquitous on std/iterator types that a `recv.name(...)`
/// call almost certainly targets std, not a workspace fn that happens to
/// share the name (`x.map(..)` is an iterator adapter, not `Matrix::map`).
/// Only applied to *method* calls — path-qualified and free calls still
/// resolve these names normally.
const METHOD_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "fold",
    "sum",
    "product",
    "collect",
    "extend",
    "resize",
    "clear",
    "take",
    "zip",
    "rev",
    "enumerate",
    "min",
    "max",
    "abs",
    "sqrt",
    "split",
    "join",
    "sort",
    "swap",
    "fill",
    "first",
    "last",
    "chunks",
    "windows",
    "copied",
    "cloned",
    "unwrap",
    "expect",
    "to_vec",
    "to_string",
    "as_slice",
    "eq",
    "cmp",
    "lock",
];

/// Lower-case words the parser can record as a bare call without one
/// being a closure call: the std prelude's `drop`, and keywords followed
/// by a parenthesized pattern or expression (`for (a, b) in ..`,
/// `match (x, y)`, `return (..)`).
const NOT_CLOSURES: &[&str] = &["drop", "for", "in", "let", "match", "return", "break"];

fn active(atoms: &[CfgAtom], config: &Config) -> bool {
    atoms.iter().all(|a| a.active(&config.features))
}

fn is_lib_src(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

fn push_flow(
    report: &mut Report,
    af: &AnalyzedFile,
    line: usize,
    rule: &'static str,
    message: String,
) {
    if !af.ctx.allowed(line, rule) {
        report.diagnostics.push(Diagnostic {
            file: af.ctx.rel.clone(),
            line: line + 1,
            rule,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// Call-graph index.
// ---------------------------------------------------------------------------

/// One graph node: (file index, fn index within that file's facts).
type NodeId = usize;

struct Index {
    /// cfg-active, non-test functions in library source files.
    nodes: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// Per node: `[file stem] ++ in-file module path`, for resolving
    /// path-qualified calls.
    seqs: Vec<Vec<String>>,
    /// Public solver entry points (everything in `crates/solvers/src`
    /// except `util.rs`).
    solver_fns: BTreeSet<String>,
}

impl Index {
    fn build(files: &[AnalyzedFile], config: &Config) -> Index {
        let mut idx = Index {
            nodes: Vec::new(),
            by_name: BTreeMap::new(),
            seqs: Vec::new(),
            solver_fns: BTreeSet::new(),
        };
        for (fi, af) in files.iter().enumerate() {
            let rel = af.ctx.rel.as_str();
            if !is_lib_src(rel) {
                continue;
            }
            let solver_file = rel.starts_with("crates/solvers/src/") && !rel.ends_with("/util.rs");
            for (gi, fact) in af.facts.fns.iter().enumerate() {
                if fact.in_test || !active(&fact.cfg, config) {
                    continue;
                }
                let node = idx.nodes.len();
                idx.nodes.push((fi, gi));
                let mut seq = vec![file_stem(rel).to_string()];
                seq.extend(fact.module.iter().cloned());
                idx.seqs.push(seq);
                idx.by_name.entry(fact.name.clone()).or_default().push(node);
                if solver_file && fact.is_pub {
                    idx.solver_fns.insert(fact.name.clone());
                }
            }
        }
        idx
    }

    fn fact<'a>(&self, files: &'a [AnalyzedFile], node: NodeId) -> &'a FnFact {
        let (fi, gi) = self.nodes[node];
        &files[fi].facts.fns[gi]
    }

    fn file_of(&self, node: NodeId) -> usize {
        self.nodes[node].0
    }

    /// Resolves a call site to candidate workspace functions.
    ///
    /// Precision tiers, in order: path-qualified calls match their
    /// qualifier against module paths (std-typed qualifiers resolve to
    /// nothing); a qualifier that matches no module (a workspace *type*
    /// name — we have no type info) takes the candidate only if the name
    /// is workspace-unique, else stays in the caller's file (a type's
    /// inherent impl overwhelmingly lives beside its callers here);
    /// `self.`-method calls are same-file by the same argument;
    /// other method calls skip [`METHOD_STOPLIST`] names and otherwise
    /// fan out by name (over-approximate on purpose: an extra edge can
    /// only add a diagnostic, never hide one).
    fn resolve(&self, call: &CallSite, caller_file: usize) -> Vec<NodeId> {
        let name = call.name();
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let same_file = |cands: &[NodeId]| -> Vec<NodeId> {
            cands
                .iter()
                .copied()
                .filter(|&n| self.nodes[n].0 == caller_file)
                .collect()
        };
        if call.path.len() >= 2 {
            let mut prefix: Vec<&str> = call.path[..call.path.len() - 1]
                .iter()
                .map(String::as_str)
                .collect();
            prefix
                .retain(|s| !matches!(*s, "crate" | "self" | "super") && !s.starts_with("ektelo"));
            if let Some(head) = prefix.first() {
                if STD_PATH_HEADS.contains(head) {
                    return Vec::new();
                }
                let matched: Vec<NodeId> = cands
                    .iter()
                    .copied()
                    .filter(|&n| contains_subseq(&self.seqs[n], &prefix))
                    .collect();
                if !matched.is_empty() {
                    return matched;
                }
                // Unknown qualifier: a workspace type name or alias.
                if cands.len() == 1 {
                    return cands.clone();
                }
                return same_file(cands);
            }
        }
        if !call.recv.is_empty() {
            if call.recv == "self" || call.recv.starts_with("self.") {
                return same_file(cands);
            }
            if METHOD_STOPLIST.contains(&name) {
                return Vec::new();
            }
        }
        cands.clone()
    }
}

/// Whether `needle` appears as a contiguous subsequence of `hay`.
fn contains_subseq(hay: &[String], needle: &[&str]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    hay.windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(a, b)| a == b))
}

/// Entry point: runs every flow rule over the parsed workspace.
pub(crate) fn run(files: &[AnalyzedFile], config: &Config, report: &mut Report) {
    let idx = Index::build(files, config);
    lock_discipline(files, &idx, config, report);
    warm_path(files, &idx, config, report);
    determinism_transitive(files, &idx, config, report);
    failpoint_parity(files, report);
    dead_pub(files, config, report);
}

// ---------------------------------------------------------------------------
// lock-discipline.
// ---------------------------------------------------------------------------

fn lock_discipline(files: &[AnalyzedFile], idx: &Index, config: &Config, report: &mut Report) {
    for af in files {
        if !is_lib_src(&af.ctx.rel) {
            continue;
        }
        for fact in &af.facts.fns {
            if fact.in_test || !active(&fact.cfg, config) {
                continue;
            }
            for region in &fact.locks {
                let lock = region.kind.label();
                let in_region = |line: usize| line >= region.start && line <= region.end;
                let mut events: Vec<String> = Vec::new();
                for a in &fact.allocs {
                    if !in_region(a.line) || !active(&a.cfg, config) {
                        continue;
                    }
                    let allowed = af.ctx.allowed(a.line, "lock-discipline");
                    events.push(event("alloc", &a.what, a.line, allowed));
                    push_flow(
                        report,
                        af,
                        a.line,
                        "lock-discipline",
                        format!(
                            "allocation `{}` while the {lock} lock is held: the critical \
                             section must stay allocation-free (shrink the guard region or \
                             hoist the allocation)",
                            a.what
                        ),
                    );
                }
                for c in &fact.calls {
                    if !in_region(c.line) || !active(&c.cfg, config) {
                        continue;
                    }
                    let name = c.name();
                    let pool_dispatch =
                        name == "scope" && c.path.len() >= 2 && c.path[c.path.len() - 2] == "pool";
                    if pool_dispatch {
                        let allowed = af.ctx.allowed(c.line, "lock-discipline");
                        events.push(event("pool-dispatch", name, c.line, allowed));
                        push_flow(
                            report,
                            af,
                            c.line,
                            "lock-discipline",
                            format!(
                                "pool dispatch `pool::{name}` while the {lock} lock is held: \
                                 worker jobs must never wait on a held kernel lock"
                            ),
                        );
                    }
                    if c.recv.is_empty() && !c.is_macro && idx.solver_fns.contains(name) {
                        let allowed = af.ctx.allowed(c.line, "lock-discipline");
                        events.push(event("solver-call", name, c.line, allowed));
                        push_flow(
                            report,
                            af,
                            c.line,
                            "lock-discipline",
                            format!(
                                "solver entry `{name}` while the {lock} lock is held: \
                                 solvers are long-running and allocate — run them outside \
                                 the critical section"
                            ),
                        );
                    }
                    // A closure or function value: a bare, single-segment,
                    // lower-case call that names no workspace function,
                    // keyword or prelude function. Operator code computes
                    // on snapshots after the lock is released, never
                    // inside it.
                    if c.recv.is_empty()
                        && !c.is_macro
                        && c.path.len() == 1
                        && name.starts_with(|ch: char| ch.is_ascii_lowercase())
                        && !NOT_CLOSURES.contains(&name)
                        && !idx.by_name.contains_key(name)
                    {
                        let allowed = af.ctx.allowed(c.line, "lock-discipline");
                        events.push(event("closure-call", name, c.line, allowed));
                        push_flow(
                            report,
                            af,
                            c.line,
                            "lock-discipline",
                            format!(
                                "call of `{name}`, which names no workspace function (a \
                                 closure, function value or renamed import), while the {lock} \
                                 lock is held: operator code must run on a snapshot after the \
                                 lock is released"
                            ),
                        );
                    }
                    // Reentrancy: a self-method that itself takes the
                    // same lock. parking_lot mutexes are not reentrant,
                    // so this is a guaranteed deadlock, found statically.
                    if (c.recv == "self" || c.recv.starts_with("self."))
                        && name != "lock"
                        && af.facts.fns.iter().any(|g| {
                            g.name == name
                                && !g.in_test
                                && g.locks.iter().any(|r2| r2.kind == region.kind)
                        })
                    {
                        let allowed = af.ctx.allowed(c.line, "lock-discipline");
                        events.push(event("reentrant", name, c.line, allowed));
                        push_flow(
                            report,
                            af,
                            c.line,
                            "lock-discipline",
                            format!(
                                "`self.{name}(...)` while the {lock} lock is held, and \
                                 `{name}` takes the same lock: parking_lot mutexes are not \
                                 reentrant — this deadlocks"
                            ),
                        );
                    }
                }
                for p in &fact.panics {
                    if !in_region(p.line) {
                        continue;
                    }
                    // Panic sites already justified under panic-policy
                    // are annotated; don't demand a second annotation.
                    if af.ctx.allowed(p.line, "panic-policy") {
                        events.push(event("panic", &p.what, p.line, true));
                        continue;
                    }
                    let allowed = af.ctx.allowed(p.line, "lock-discipline");
                    events.push(event("panic", &p.what, p.line, allowed));
                    push_flow(
                        report,
                        af,
                        p.line,
                        "lock-discipline",
                        format!(
                            "`{}` while the {lock} lock is held: a panic here unwinds \
                             through the critical section — return a typed error or \
                             justify the invariant",
                            p.what
                        ),
                    );
                }
                report.lock_regions.push(crate::LockRegionInfo {
                    file: af.ctx.rel.clone(),
                    fn_name: fact.name.clone(),
                    kind: lock,
                    start: region.start + 1,
                    end: region.end + 1,
                    binding: region.binding.clone(),
                    events,
                });
            }
        }
    }
}

fn event(kind: &str, what: &str, line: usize, allowed: bool) -> String {
    format!(
        "{kind} `{what}` @{}{}",
        line + 1,
        if allowed { " (allowed)" } else { "" }
    )
}

// ---------------------------------------------------------------------------
// Shared reachability.
// ---------------------------------------------------------------------------

/// BFS over resolved call edges from `root`, honoring per-edge allow
/// severing for `rule` and skipping files matched by `skip_file`.
/// Returns visited nodes with their parent chain.
fn reach(
    files: &[AnalyzedFile],
    idx: &Index,
    root: NodeId,
    rule: &'static str,
    config: &Config,
) -> BTreeMap<NodeId, Option<NodeId>> {
    let mut parent: BTreeMap<NodeId, Option<NodeId>> = BTreeMap::new();
    parent.insert(root, None);
    let mut queue = VecDeque::new();
    queue.push_back((root, 0usize));
    while let Some((node, depth)) = queue.pop_front() {
        if depth >= DEPTH_LIMIT {
            continue;
        }
        let (fi, _) = idx.nodes[node];
        let af = &files[fi];
        for call in &idx.fact(files, node).calls {
            if !active(&call.cfg, config) {
                continue;
            }
            // An allow on the call line severs this edge: the callee is
            // a declared boundary (cold path, sanctioned subsystem).
            if af.ctx.allowed(call.line, rule) {
                continue;
            }
            for target in idx.resolve(call, fi) {
                if target == node {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(target) {
                    e.insert(Some(node));
                    queue.push_back((target, depth + 1));
                }
            }
        }
    }
    parent
}

/// Renders `root -> ... -> node` as a readable chain of fn names.
fn chain(
    files: &[AnalyzedFile],
    idx: &Index,
    parent: &BTreeMap<NodeId, Option<NodeId>>,
    node: NodeId,
) -> String {
    let mut names = Vec::new();
    let mut cur = Some(node);
    while let Some(n) = cur {
        names.push(idx.fact(files, n).name.clone());
        cur = parent.get(&n).copied().flatten();
    }
    names.reverse();
    names.join(" -> ")
}

// ---------------------------------------------------------------------------
// warm-path-alloc.
// ---------------------------------------------------------------------------

fn warm_path(files: &[AnalyzedFile], idx: &Index, config: &Config, report: &mut Report) {
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for root in 0..idx.nodes.len() {
        let root_fact = idx.fact(files, root);
        if !root_fact.warm {
            continue;
        }
        let root_name = root_fact.name.clone();
        let visited = reach(files, idx, root, "warm-path-alloc", config);
        let mut alloc_sites = 0usize;
        for &node in visited.keys() {
            let (fi, _) = idx.nodes[node];
            let af = &files[fi];
            for a in &idx.fact(files, node).allocs {
                if !active(&a.cfg, config) {
                    continue;
                }
                alloc_sites += 1;
                if !reported.insert((fi, a.line)) {
                    continue;
                }
                let via = chain(files, idx, &visited, node);
                push_flow(
                    report,
                    af,
                    a.line,
                    "warm-path-alloc",
                    format!(
                        "allocation `{}` on the warm path (reachable from `// WARM:` root \
                         `{root_name}` via {via}): warm evaluation must be allocation-free \
                         — hoist into the workspace arena or sever the edge with a \
                         justified allow",
                        a.what
                    ),
                );
            }
        }
        report.warm_roots.push(crate::WarmRootInfo {
            file: files[idx.file_of(root)].ctx.rel.clone(),
            name: root_name,
            closure: visited.len(),
            alloc_sites,
        });
    }
}

// ---------------------------------------------------------------------------
// determinism-transitive.
// ---------------------------------------------------------------------------

fn determinism_transitive(
    files: &[AnalyzedFile],
    idx: &Index,
    config: &Config,
    report: &mut Report,
) {
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for root in 0..idx.nodes.len() {
        let fact = idx.fact(files, root);
        let rel = &files[idx.file_of(root)].ctx.rel;
        let matvec_entry = rel.ends_with("matrix/src/matvec.rs")
            && matches!(
                fact.name.as_str(),
                "matvec_into" | "rmatvec_into" | "rmatvec_add"
            );
        let kernel_entry = rel.ends_with("matrix/src/kernels.rs") && fact.is_pub;
        if !matvec_entry && !kernel_entry {
            continue;
        }
        let root_name = fact.name.clone();
        let visited = reach(files, idx, root, "determinism-transitive", config);
        for &node in visited.keys() {
            let (fi, _) = idx.nodes[node];
            let af = &files[fi];
            for b in &idx.fact(files, node).bans {
                if !active(&b.cfg, config) {
                    continue;
                }
                if !reported.insert((fi, b.line)) {
                    continue;
                }
                let via = chain(files, idx, &visited, node);
                push_flow(
                    report,
                    af,
                    b.line,
                    "determinism-transitive",
                    format!(
                        "`{}` reachable from deterministic entry point `{root_name}` (via \
                         {via}): evaluation reachable from the kernels/matvec surface must \
                         not depend on hash order or ad-hoc threads",
                        b.what
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// dead-pub.
// ---------------------------------------------------------------------------

/// Library crates whose public functions must each have a caller.
const DEAD_PUB_CRATES: &[&str] = &["kernel", "core", "matrix", "solvers", "plans", "data"];

/// Which code in a file keeps a library `pub fn` alive.
#[derive(Clone, Copy, PartialEq)]
enum Callers {
    /// A crate's own `tests/` and anything else outside the roots below.
    Ignored,
    /// Library and binary sources (`crates/*/src`, the facade `src/`):
    /// everything outside `#[cfg(test)]` modules and `#[test]` fns.
    NonTest,
    /// Benches, examples and the root `tests/`: the whole file.
    All,
}

fn callers_in(rel: &str) -> Callers {
    if (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/") {
        Callers::NonTest
    } else if rel.starts_with("crates/bench/benches/")
        || rel.starts_with("examples/")
        || rel.starts_with("tests/")
    {
        Callers::All
    } else {
        Callers::Ignored
    }
}

/// A checked `pub fn` and what the scan found calling it.
struct PubFn<'a> {
    file: usize,
    fact: &'a FnFact,
    /// Crate directory, then the file's module path under `src/` and
    /// the in-file modules (`core ops partition grid` for
    /// `crates/core/src/ops/partition/grid.rs`).
    seq: Vec<String>,
    called_outside: bool,
    called_in_file: bool,
}

impl PubFn<'_> {
    fn matches(&self, qualifier: &[&str]) -> bool {
        self.fact.owner.as_deref() == qualifier.last().copied()
            || contains_subseq(&self.seq, qualifier)
    }

    fn mark_called_from(&mut self, file: usize) {
        if file == self.file {
            self.called_in_file = true;
        } else {
            self.called_outside = true;
        }
    }
}

/// Whether `site` may call `cands[k]` (all of `cands` share its name).
/// Unqualified and method calls fan out by name. A qualified call picks
/// the functions whose impl type or module path its qualifier names; a
/// qualifier naming none of them (an alias, a trait, a re-export path)
/// leaves the call unresolved, and it counts for all of them.
fn may_call(site: &CallSite, caller_owner: Option<&str>, cands: &[PubFn<'_>], k: usize) -> bool {
    let mut qualifier: Vec<&str> = site.path[..site.path.len() - 1]
        .iter()
        .map(String::as_str)
        .filter(|s| !matches!(*s, "crate" | "self" | "super") && !s.starts_with("ektelo"))
        .collect();
    if qualifier == ["Self"] {
        match caller_owner {
            Some(owner) => qualifier = vec![owner],
            None => return true,
        }
    }
    let Some(head) = qualifier.first() else {
        return true;
    };
    if cands[k].matches(&qualifier) {
        return true;
    }
    !STD_PATH_HEADS.contains(head) && !cands.iter().any(|c| c.matches(&qualifier))
}

fn dead_pub(files: &[AnalyzedFile], config: &Config, report: &mut Report) {
    let mut by_name: BTreeMap<&str, Vec<PubFn<'_>>> = BTreeMap::new();
    for (fi, af) in files.iter().enumerate() {
        let rel = af.ctx.rel.as_str();
        let Some((krate, path)) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"))
            .filter(|(krate, _)| DEAD_PUB_CRATES.contains(krate))
        else {
            continue;
        };
        let mut seq = vec![krate.to_string()];
        seq.extend(
            path.trim_end_matches(".rs")
                .split('/')
                .filter(|s| !matches!(*s, "mod" | "lib"))
                .map(str::to_string),
        );
        for fact in &af.facts.fns {
            if !fact.is_pub || fact.pub_restricted || fact.in_test || !active(&fact.cfg, config) {
                continue;
            }
            let mut fn_seq = seq.clone();
            fn_seq.extend(fact.module.iter().cloned());
            by_name.entry(&fact.name).or_default().push(PubFn {
                file: fi,
                fact,
                seq: fn_seq,
                called_outside: false,
                called_in_file: false,
            });
        }
    }
    // Calls are counted whatever their cfg gate: an item reached only
    // under a feature is live in that build.
    for (fi, af) in files.iter().enumerate() {
        let scope = callers_in(&af.ctx.rel);
        if scope == Callers::Ignored {
            continue;
        }
        for fact in &af.facts.fns {
            if scope == Callers::NonTest && fact.in_test {
                continue;
            }
            for site in fact.calls.iter().chain(&fact.refs) {
                let Some(cands) = by_name.get_mut(site.name()) else {
                    continue;
                };
                for k in 0..cands.len() {
                    // A function's calls to its own name (recursion, or a
                    // same-named trait method it dispatches to) do not
                    // keep it alive.
                    if !std::ptr::eq(cands[k].fact, fact)
                        && may_call(site, fact.owner.as_deref(), cands, k)
                    {
                        cands[k].mark_called_from(fi);
                    }
                }
            }
        }
        for ident in &af.facts.item_idents {
            for c in by_name.get_mut(ident.as_str()).into_iter().flatten() {
                c.mark_called_from(fi);
            }
        }
    }
    for c in by_name.values().flatten() {
        if c.called_outside {
            continue;
        }
        let name = &c.fact.name;
        let message = if c.called_in_file {
            format!(
                "`pub fn {name}` is called only from its own file: make it private (or \
                 justify it as deliberate API with an allow)"
            )
        } else {
            format!(
                "`pub fn {name}` has no caller outside its own file and tests: delete it \
                 with its tests, or justify it as deliberate API with an allow"
            )
        };
        push_flow(report, &files[c.file], c.fact.line, "dead-pub", message);
    }
}

// ---------------------------------------------------------------------------
// cfg-parity.
// ---------------------------------------------------------------------------

/// Failpoint site names: every literal used at a `triggered`/`panic_if`
/// call site must be declared in `failpoints.rs`'s `SITES` list, and
/// every declared name must be used somewhere in the audited site
/// files (an orphaned declaration is a site that silently stopped
/// existing — chaos drills aimed at it arm nothing).
fn failpoint_parity(files: &[AnalyzedFile], report: &mut Report) {
    let Some(fp_idx) = files
        .iter()
        .position(|af| af.ctx.rel.ends_with("src/failpoints.rs"))
    else {
        return;
    };
    // Declared: string literals between `pub const SITES` and the
    // closing `]`.
    let mut declared: Vec<(String, usize)> = Vec::new();
    {
        let lines = &files[fp_idx].ctx.lines;
        let mut in_sites = false;
        for (i, line) in lines.iter().enumerate() {
            if !in_sites {
                let Some(at) = line.code.find("const SITES") else {
                    continue;
                };
                in_sites = true;
                for s in &line.strings {
                    declared.push((s.clone(), i));
                }
                // `];` after the declaration closes a single-line list;
                // the `]` inside the `&[&str]` type must not.
                if line.code[at..].contains("];") {
                    break;
                }
                continue;
            }
            for s in &line.strings {
                declared.push((s.clone(), i));
            }
            if line.code.trim_start().starts_with(']') || line.code.contains("];") {
                break;
            }
        }
    }
    if declared.is_empty() {
        return;
    }
    let declared_names: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    // Used: literals at triggered/panic_if call sites in the other
    // audited files (direction 1, precise), plus any literal match
    // anywhere in those files (direction 2 — covers names selected
    // into a variable before the call, as `state::charge`/`redeem`
    // are).
    let mut used_at_sites: Vec<(usize, usize, String)> = Vec::new();
    let mut mentioned: BTreeSet<String> = BTreeSet::new();
    for (fi, af) in files.iter().enumerate() {
        if fi == fp_idx || !is_lib_src(&af.ctx.rel) {
            continue;
        }
        for (i, line) in af.ctx.lines.iter().enumerate() {
            if af.ctx.in_test_mod[i] {
                continue;
            }
            for s in &line.strings {
                if declared_names.contains(s.as_str()) {
                    mentioned.insert(s.clone());
                }
            }
            let is_site_line = ["triggered", "panic_if"].iter().any(|t| {
                crate::find_token(&line.code, t, 0)
                    .is_some_and(|at| line.code[at + t.len()..].trim_start().starts_with('('))
            });
            if is_site_line {
                if let Some(name) = line.strings.first() {
                    used_at_sites.push((fi, i, name.clone()));
                }
            }
        }
    }
    for (fi, line, name) in &used_at_sites {
        if !declared_names.contains(name.as_str()) {
            push_flow(
                report,
                &files[*fi],
                *line,
                "cfg-parity",
                format!(
                    "failpoint site `{name}` is not declared in failpoints.rs's `SITES` \
                     list: the fault surface is an audited enumeration — declare the site \
                     or fix the name"
                ),
            );
        }
    }
    for (name, line) in &declared {
        if mentioned.contains(name) {
            report.cfg_pairs.push(crate::CfgPairInfo {
                file: files[fp_idx].ctx.rel.clone(),
                name: format!("failpoint {name}"),
                kind: "failpoint-site",
            });
        } else {
            push_flow(
                report,
                &files[fp_idx],
                *line,
                "cfg-parity",
                format!(
                    "failpoint site `{name}` is declared in `SITES` but never used at any \
                     audited call site: an orphaned declaration means chaos schedules \
                     aimed at it silently arm nothing"
                ),
            );
        }
    }
}
