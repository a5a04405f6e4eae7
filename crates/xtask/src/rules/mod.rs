//! The rule framework: diagnostics, lint context, and the registry of
//! project-invariant rules.
//!
//! Each rule is a token-pattern check over [`SourceFile`]s. Rules are
//! deliberately syntactic: the invariants they guard (panic-free data
//! plane, O(1) queue ops, single drop-accounting entry point, offline
//! shim surface, no `unsafe`) are all expressible as "this token shape
//! must not appear here", which a hand-rolled lexer can enforce without
//! `syn` — a hard requirement in the registry-less build environment.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

mod determinism;
mod drop_accounting;
mod panic_free;
mod queue_discipline;
mod rng_draw_order;
mod shim_surface;
mod sync_discipline;
mod telemetry_naming;
mod unsafe_audit;

pub use determinism::Determinism;
pub use drop_accounting::DropAccounting;
pub use panic_free::PanicFree;
pub use queue_discipline::QueueDiscipline;
pub use rng_draw_order::RngDrawOrder;
pub use shim_surface::ShimSurface;
pub use sync_discipline::SyncDiscipline;
pub use telemetry_naming::TelemetryNaming;
pub use unsafe_audit::UnsafeAudit;

/// One CI-failing finding, rendered as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (the `lint: allow(<rule>)` key).
    pub rule: String,
    /// Human-readable finding.
    pub msg: String,
    /// Interprocedural findings: the caller chain from the deterministic
    /// core down to the source site (`crate::Type::fn` labels). Empty
    /// for intraprocedural findings.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(file: &str, line: u32, rule: &str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            msg: msg.into(),
            chain: Vec::new(),
        }
    }

    /// Attach a call chain (core entry first, source fn last).
    pub fn with_chain(mut self, chain: Vec<String>) -> Diagnostic {
        self.chain = chain;
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )?;
        if !self.chain.is_empty() {
            write!(f, " (reached from core via {})", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Treat every linted file as a data-plane module (fixture mode —
    /// the golden tests exercise data-plane rules on standalone
    /// snippets).
    pub all_dataplane: bool,
    /// Workspace-relative files permitted to contain `unsafe` (the
    /// audited allowlist). Empty: the workspace is `unsafe`-free.
    pub unsafe_allowlist: Vec<String>,
    /// Fixture mode for the interprocedural rules: derive a file's scope
    /// from its stem (`*core*` → deterministic core, `*sync*` → the sync
    /// module, `*node*` → node/router code) instead of its workspace
    /// path, so standalone golden snippets can exercise scope-sensitive
    /// rules.
    pub fixture_scopes: bool,
}

/// The data-plane module set: the per-hop forwarding path whose
/// constant-time, never-failing contract is the paper's whole
/// performance argument (§2). Grow this list as the data plane grows.
pub const DATAPLANE_PREFIXES: &[&str] =
    &["crates/router/src/dataplane/", "crates/router/src/viper/"];

/// Individual files in the data-plane set (see [`DATAPLANE_PREFIXES`]).
pub const DATAPLANE_FILES: &[&str] = &[
    "crates/router/src/ip.rs",
    "crates/router/src/cvc.rs",
    "crates/wire/src/buf.rs",
    "crates/wire/src/alt.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/shard.rs",
    "crates/sim/src/sync.rs",
    "crates/directory/src/te.rs",
    "crates/directory/src/alternates.rs",
    "crates/simtest/src/te.rs",
    "crates/simtest/src/relay.rs",
];

/// The deterministic core: crates where simulated behaviour must be a
/// pure function of (topology, seed). Nondeterminism reaching these —
/// directly or through calls — breaks golden digests and seed replay.
pub const CORE_CRATES: &[&str] = &["sim", "router", "wire", "simtest", "telemetry"];

/// Individual files outside [`CORE_CRATES`] held to the same
/// determinism contract: the TE route search must return byte-identical
/// k-route sets for a given (topology, query) — client spreading and
/// the `exp_te` digests replay it — and route protection must grant the
/// same alternate branches for the same link map.
pub const CORE_FILES: &[&str] = &[
    "crates/directory/src/te.rs",
    "crates/directory/src/alternates.rs",
];

/// Crates holding node/router logic, where every random draw must go
/// through `Context::rng()` so per-shard RNG streams stay aligned.
pub const NODE_CODE_PREFIXES: &[&str] = &[
    "crates/router/src/",
    "crates/core/src/",
    "crates/transport/src/",
];

/// The one file allowed to construct `std::sync` primitives: the sharded
/// engine's synchronization nucleus.
pub const SYNC_MODULE: &str = "crates/sim/src/sync.rs";

fn stem_has(rel: &str, marker: &str) -> bool {
    let stem = rel.rsplit('/').next().unwrap_or(rel);
    let stem = stem.strip_suffix(".rs").unwrap_or(stem);
    stem.contains(marker)
}

impl Config {
    /// Whether `rel` is a data-plane module.
    pub fn is_dataplane(&self, rel: &str) -> bool {
        self.all_dataplane
            || DATAPLANE_PREFIXES.iter().any(|p| rel.starts_with(p))
            || DATAPLANE_FILES.contains(&rel)
    }

    /// Whether `rel` belongs to the deterministic core ([`CORE_CRATES`]
    /// or the [`CORE_FILES`] additions).
    pub fn is_core_file(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            return stem_has(rel, "core");
        }
        CORE_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
            || CORE_FILES.contains(&rel)
    }

    /// Whether `rel` is the sync nucleus ([`SYNC_MODULE`]).
    pub fn is_sync_module(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            return stem_has(rel, "sync");
        }
        rel == SYNC_MODULE
    }

    /// Whether `rel` is node/router code ([`NODE_CODE_PREFIXES`]).
    pub fn is_node_code(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            return stem_has(rel, "node");
        }
        NODE_CODE_PREFIXES.iter().any(|p| rel.starts_with(p))
    }
}

/// Everything a rule can see: all analyzed files, the config, and the
/// vendored-shim API surfaces.
pub struct LintCtx<'a> {
    /// All files being linted.
    pub files: &'a [SourceFile],
    /// Engine configuration.
    pub cfg: &'a Config,
    /// Shim crate name → set of identifiers its sources define.
    pub shims: &'a BTreeMap<String, std::collections::BTreeSet<String>>,
    /// Workspace symbol table (fn items, use maps, crate dep closure).
    pub symbols: &'a SymbolTable,
    /// Over-approximate caller → callee graph over [`Self::symbols`].
    pub graph: &'a CallGraph,
}

/// A project-invariant rule.
pub trait Rule {
    /// Stable rule name — diagnostics key and `lint: allow` key.
    fn name(&self) -> &'static str;
    /// One-line description for `xtask lint --list`.
    fn describe(&self) -> &'static str;
    /// Run over the whole context, appending findings.
    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The full rule registry, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFree),
        Box::new(QueueDiscipline),
        Box::new(DropAccounting),
        Box::new(ShimSurface),
        Box::new(TelemetryNaming),
        Box::new(UnsafeAudit),
        Box::new(Determinism),
        Box::new(SyncDiscipline),
        Box::new(RngDrawOrder),
    ]
}

/// Rust keywords that can directly precede a `[` without forming an
/// index expression (`for x in [..]`, `return [..]`, …). Shared by the
/// indexing detector.
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "await",
];
