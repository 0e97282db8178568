//! Hierarchical span profiler: simulated-clock per-stage attribution.
//!
//! A [`SpanStack`] tracks a stack of named stages (fault → buddy alloc →
//! pcp hit/miss, recovery → reclaim/compaction, nested-virt gfault → host
//! fault, …). Spans measure deltas of the session's **simulated** clock, so
//! profiling observes the run without perturbing it: enabling spans can
//! never change an allocation, an RNG draw, or a result digest.
//!
//! Every closed span feeds two log2 histograms in the session registry —
//! `span.<stage>.total_ns` (inclusive) and `span.<stage>.self_ns` (exclusive
//! of child spans) — and one collapsed-stack cell keyed by the full
//! `parent;child;leaf` path, exportable in the inferno/flamegraph folded
//! text format via [`SpanStack::export_collapsed`].
//!
//! The stack itself is plain data; the probe entry points are on
//! [`crate::Tracer`], where a disabled handle costs one branch.

use std::collections::BTreeMap;

use crate::registry::MetricsRegistry;

/// Canonical stage names of the fault-path span taxonomy.
///
/// Instrumented crates open spans with these constants; reports and the
/// name validator treat any other `span.*` metric as a typo.
pub mod stage {
    /// One serviced page fault, end to end (`System::touch`).
    pub const FAULT: &str = "fault";
    /// VMA lookup for the faulting address.
    pub const VMA_WALK: &str = "vma_walk";
    /// Page-table translate of the fault address (present check).
    pub const PT_WALK: &str = "pt_walk";
    /// Placement-policy decision (CA paging `on_fault`/`on_target_busy`).
    pub const CA_PLACE: &str = "ca_place";
    /// Physical allocation through the buddy heap (default or targeted).
    pub const BUDDY_ALLOC: &str = "buddy_alloc";
    /// Order-0 allocation served from a warm per-CPU list.
    pub const PCP_HIT: &str = "pcp_hit";
    /// Order-0 allocation that had to refill the per-CPU list first.
    pub const PCP_MISS: &str = "pcp_miss";
    /// One background contiguity-maintenance daemon tick (budgeted epoch
    /// slice: compaction, THP promotion, poison-run repair).
    pub const DAEMON_TICK: &str = "daemon_tick";
    /// PTE install + policy `post_map` + the modelled fault latency.
    pub const MAP: &str = "map";
    /// One OOM-recovery escalation round (`try_recover`).
    pub const RECOVERY: &str = "recovery";
    /// Page-cache reclaim pass inside recovery.
    pub const RECLAIM: &str = "reclaim";
    /// Compaction/migration pass inside recovery.
    pub const COMPACTION: &str = "compaction";
    /// Jittered retry backoff between recovery rounds.
    pub const BACKOFF: &str = "backoff";
    /// TLB shootdown round (poison migrate-and-heal remap).
    pub const TLB_SHOOTDOWN: &str = "tlb_shootdown";
    /// Nested-virt guest-fault service: backing guest-physical memory with
    /// host memory (host faults nest inside).
    pub const GFAULT: &str = "gfault";
}

/// Every canonical stage, sorted — the validation whitelist for `span.*`
/// metric names.
pub const SPAN_STAGES: &[&str] = &[
    stage::BACKOFF,
    stage::BUDDY_ALLOC,
    stage::CA_PLACE,
    stage::COMPACTION,
    stage::DAEMON_TICK,
    stage::FAULT,
    stage::GFAULT,
    stage::MAP,
    stage::PCP_HIT,
    stage::PCP_MISS,
    stage::PT_WALK,
    stage::RECLAIM,
    stage::RECOVERY,
    stage::TLB_SHOOTDOWN,
    stage::VMA_WALK,
];

/// The two histogram suffixes every stage feeds.
const SPAN_SUFFIXES: [&str; 2] = ["total_ns", "self_ns"];

/// Whether `name` is a well-formed `span.<stage>.<suffix>` metric over the
/// canonical taxonomy.
pub(crate) fn is_valid_span_metric(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("span.") else { return false };
    let Some((stage, suffix)) = rest.rsplit_once('.') else { return false };
    SPAN_STAGES.contains(&stage) && SPAN_SUFFIXES.contains(&suffix)
}

/// Checks every `span.*` counter and histogram name in `registry` against
/// the canonical taxonomy and returns the offenders, sorted. Reports call
/// this so a typoed stage name fails loudly instead of silently forking a
/// new metric.
pub fn validate_metric_names(registry: &MetricsRegistry) -> Vec<String> {
    let mut bad: Vec<String> = registry
        .counters()
        .map(|(n, _)| n)
        .chain(registry.histograms().map(|(n, _)| n))
        .filter(|name| name.starts_with("span.") && !is_valid_span_metric(name))
        .map(str::to_owned)
        .collect();
    bad.sort();
    bad.dedup();
    bad
}

/// Pre-registers every canonical `span.*` histogram in `registry` at zero,
/// so reports render explicit zero rows for stages that never fired instead
/// of silently omitting them.
pub fn declare_canonical_metrics(registry: &mut MetricsRegistry) {
    for stage in SPAN_STAGES {
        for suffix in SPAN_SUFFIXES {
            registry.declare_histogram(&format!("span.{stage}.{suffix}"));
        }
    }
}

/// One open span on the stack.
#[derive(Clone, Debug)]
struct Frame {
    /// The trie node of this span's `parent;child;…;name` path.
    node: usize,
    /// Simulated clock at entry.
    enter_ns: u64,
    /// Simulated time already attributed to closed children.
    child_ns: u64,
}

/// Accumulated totals for one distinct stack path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackCell {
    /// Spans closed at this exact path.
    pub count: u64,
    /// Simulated self time (excluding child spans), summed.
    pub self_ns: u64,
    /// Simulated inclusive time, summed.
    pub total_ns: u64,
}

impl StackCell {
    fn add(&mut self, other: &StackCell) {
        self.count += other.count;
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }
}

/// One distinct stack path: a node of the path trie. A path is its node, so
/// entering a span compares a handful of sibling names instead of building a
/// `parent;child` string, and leaving one indexes its cell.
#[derive(Clone, Debug)]
struct Node {
    name: &'static str,
    /// `None` for an outermost span.
    parent: Option<usize>,
    /// Spans closed at this path; `count == 0` until the first one closes.
    cell: StackCell,
    kids: Vec<usize>,
}

/// The span profiler state: the stack of open spans plus the collapsed-stack
/// accumulation of every closed span.
///
/// Spans must nest LIFO (the [`crate::ScopedSpan`] RAII guard guarantees
/// this for well-scoped code, including unwinding out of a panic). One
/// stack serves one session; guest- and host-dimension spans of a nested VM
/// interleave naturally because a guest fault fully completes before the
/// host backs it.
///
/// Two stacks are equal when everything observable about them is: the open
/// spans, the closed paths with their cells, and the counters — not the
/// order in which paths were first entered.
#[derive(Clone, Debug, Default)]
pub struct SpanStack {
    open: Vec<Frame>,
    /// Every path ever entered; a parent precedes its children.
    nodes: Vec<Node>,
    /// The outermost spans' nodes.
    roots: Vec<usize>,
    enters: u64,
    exits: u64,
    max_depth: u64,
}

impl SpanStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node of `name` under `parent`, added if this is its first entry.
    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let kids = match parent {
            Some(p) => &self.nodes[p].kids,
            None => &self.roots,
        };
        let same = |a: &str| std::ptr::eq(a, name) || a == name;
        if let Some(&kid) = kids.iter().find(|&&k| same(self.nodes[k].name)) {
            return kid;
        }
        let id = self.nodes.len();
        self.nodes.push(Node { name, parent, cell: StackCell::default(), kids: Vec::new() });
        match parent {
            Some(p) => self.nodes[p].kids.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// The `a;b;c` path of `node`.
    fn path(&self, node: usize) -> String {
        match self.nodes[node].parent {
            Some(parent) => format!("{};{}", self.path(parent), self.nodes[node].name),
            None => self.nodes[node].name.to_owned(),
        }
    }

    /// The stage name of a node returned by [`SpanStack::exit_node`].
    pub(crate) fn node_name(&self, node: usize) -> &'static str {
        self.nodes[node].name
    }

    /// Opens a span named `name` at simulated time `now_ns`.
    pub fn enter(&mut self, name: &'static str, now_ns: u64) {
        let node = self.child(self.open.last().map(|parent| parent.node), name);
        self.open.push(Frame { node, enter_ns: now_ns, child_ns: 0 });
        self.enters += 1;
        self.max_depth = self.max_depth.max(self.open.len() as u64);
    }

    /// Closes the innermost open span at simulated time `now_ns`, returning
    /// `(name, total_ns, self_ns)` — or `None` if nothing is open.
    pub fn exit(&mut self, now_ns: u64) -> Option<(&'static str, u64, u64)> {
        let (node, total, self_ns) = self.exit_node(now_ns)?;
        Some((self.nodes[node].name, total, self_ns))
    }

    /// [`SpanStack::exit`], naming the closed span by its path's node: a
    /// small dense index the session keys its per-path histograms by.
    pub(crate) fn exit_node(&mut self, now_ns: u64) -> Option<(usize, u64, u64)> {
        let frame = self.open.pop()?;
        self.exits += 1;
        let total = now_ns.saturating_sub(frame.enter_ns);
        let self_ns = total.saturating_sub(frame.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(total);
        }
        self.nodes[frame.node].cell.add(&StackCell { count: 1, self_ns, total_ns: total });
        Some((frame.node, total, self_ns))
    }

    /// Number of currently-open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Deepest nesting seen over the stack's lifetime.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Total spans opened.
    pub fn enters(&self) -> u64 {
        self.enters
    }

    /// Total spans closed.
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// Whether every opened span has been closed — the invariant the
    /// balance proptest asserts after arbitrary fault/recovery/poison
    /// interleavings.
    pub fn is_balanced(&self) -> bool {
        self.open.is_empty() && self.enters == self.exits
    }

    /// The closed-span accumulation, keyed by full `a;b;c` stack path,
    /// path-sorted. A path that was entered but never closed is absent.
    pub fn collapsed(&self) -> Vec<(String, StackCell)> {
        let mut out: Vec<_> = (0..self.nodes.len())
            .filter(|&node| self.nodes[node].cell.count > 0)
            .map(|node| (self.path(node), self.nodes[node].cell))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Per-leaf-stage roll-up across all paths ending in that stage,
    /// name-sorted — the per-stage table without path context.
    pub fn by_stage(&self) -> BTreeMap<&str, StackCell> {
        let mut out: BTreeMap<&str, StackCell> = BTreeMap::new();
        for node in self.nodes.iter().filter(|node| node.cell.count > 0) {
            out.entry(node.name).or_default().add(&node.cell);
        }
        out
    }

    /// Folds another (balanced) stack's closed spans into this one —
    /// how per-task engine profiles aggregate into one report.
    pub fn merge(&mut self, other: &SpanStack) {
        // A parent precedes its children, so its node here is known first.
        let mut mine = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            let id = self.child(node.parent.map(|parent| mine[parent]), node.name);
            self.nodes[id].cell.add(&node.cell);
            mine.push(id);
        }
        self.enters += other.enters;
        self.exits += other.exits;
        self.max_depth = self.max_depth.max(other.max_depth);
    }

    /// The collapsed stacks in inferno/flamegraph folded text format: one
    /// `path;segments value` line per distinct path, path-sorted, value =
    /// summed simulated self time in ns. Feed to `inferno-flamegraph` or
    /// `flamegraph.pl` directly.
    pub fn export_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, cell) in self.collapsed() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&cell.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

impl PartialEq for SpanStack {
    fn eq(&self, other: &Self) -> bool {
        let open = |stack: &SpanStack| -> Vec<(String, u64, u64)> {
            stack.open.iter().map(|f| (stack.path(f.node), f.enter_ns, f.child_ns)).collect()
        };
        (self.enters, self.exits, self.max_depth) == (other.enters, other.exits, other.max_depth)
            && open(self) == open(other)
            && self.collapsed() == other.collapsed()
    }
}

impl Eq for SpanStack {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_and_child_time() {
        let mut s = SpanStack::new();
        s.enter(stage::FAULT, 100);
        s.enter(stage::BUDDY_ALLOC, 100);
        assert_eq!(s.depth(), 2);
        let (name, total, self_ns) = s.exit(130).unwrap();
        assert_eq!((name, total, self_ns), (stage::BUDDY_ALLOC, 30, 30));
        s.enter(stage::MAP, 130);
        s.exit(180).unwrap();
        let (name, total, self_ns) = s.exit(200).unwrap();
        assert_eq!(name, stage::FAULT);
        assert_eq!(total, 100);
        assert_eq!(self_ns, 20, "fault self time excludes both children");
        assert!(s.is_balanced());
        assert_eq!(s.max_depth(), 2);

        let folded = s.export_collapsed();
        assert_eq!(folded, "fault 20\nfault;buddy_alloc 30\nfault;map 50\n");
        let by_stage = s.by_stage();
        assert_eq!(by_stage["fault"].total_ns, 100);
        assert_eq!(by_stage["map"].self_ns, 50);
    }

    #[test]
    fn exit_on_empty_stack_is_none_and_merge_folds() {
        let mut a = SpanStack::new();
        assert!(a.exit(5).is_none());
        a.enter(stage::FAULT, 0);
        a.exit(10).unwrap();
        let mut b = SpanStack::new();
        b.enter(stage::FAULT, 0);
        b.exit(7).unwrap();
        a.merge(&b);
        assert_eq!(a.collapsed()[0].1.count, 2);
        assert_eq!(a.collapsed()[0].1.self_ns, 17);
        assert!(a.is_balanced());
    }

    #[test]
    fn validation_catches_typos_and_passes_canon() {
        assert!(is_valid_span_metric("span.fault.total_ns"));
        assert!(is_valid_span_metric("span.pcp_hit.self_ns"));
        assert!(!is_valid_span_metric("span.fautl.total_ns"));
        assert!(!is_valid_span_metric("span.fault.mean_ns"));
        let mut reg = MetricsRegistry::new();
        declare_canonical_metrics(&mut reg);
        assert!(validate_metric_names(&reg).is_empty());
        reg.observe("span.fautl.total_ns", 1);
        reg.add("span.fault.mean_ns", 1);
        reg.add("buddy.alloc", 1);
        assert_eq!(
            validate_metric_names(&reg),
            vec!["span.fault.mean_ns".to_string(), "span.fautl.total_ns".to_string()]
        );
    }

    #[test]
    fn declared_metrics_render_as_zero_rows() {
        let mut reg = MetricsRegistry::new();
        declare_canonical_metrics(&mut reg);
        let h = reg.histogram("span.tlb_shootdown.total_ns").expect("declared");
        assert_eq!(h.count(), 0);
        assert_eq!(reg.histograms().count(), SPAN_STAGES.len() * SPAN_SUFFIXES.len());
        assert_eq!(reg.counters().count(), 0, "only span histograms are declared");
    }
}
