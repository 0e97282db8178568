//! The path-trie [`SpanStack`] against the structure it replaced.
//!
//! `OldStack` is the previous implementation transcribed with its exact
//! rules: every open frame carries its `parent;child` path as a `String`
//! built at entry, closed spans accumulate in a `BTreeMap` keyed by that
//! string, and the session feeds `span.<stage>.*` histograms by formatting
//! the metric name at every exit. Random enter / exit / clock / merge
//! sequences must leave both with the same observable state.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use contig_trace::{MetricsRegistry, SpanStack, StackCell};
use proptest::prelude::*;

struct OldFrame {
    name: &'static str,
    enter_ns: u64,
    child_ns: u64,
    path: String,
}

#[derive(Default)]
struct OldStack {
    open: Vec<OldFrame>,
    closed: BTreeMap<String, StackCell>,
    enters: u64,
    exits: u64,
    max_depth: u64,
}

impl OldStack {
    fn enter(&mut self, name: &'static str, now_ns: u64) {
        let path = match self.open.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_owned(),
        };
        self.open.push(OldFrame { name, enter_ns: now_ns, child_ns: 0, path });
        self.enters += 1;
        self.max_depth = self.max_depth.max(self.open.len() as u64);
    }

    fn exit(&mut self, now_ns: u64) -> Option<(&'static str, u64, u64)> {
        let frame = self.open.pop()?;
        self.exits += 1;
        let total = now_ns.saturating_sub(frame.enter_ns);
        let self_ns = total.saturating_sub(frame.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(total);
        }
        let cell = self.closed.entry(frame.path).or_default();
        cell.count += 1;
        cell.self_ns = cell.self_ns.saturating_add(self_ns);
        cell.total_ns = cell.total_ns.saturating_add(total);
        Some((frame.name, total, self_ns))
    }

    fn by_stage(&self) -> BTreeMap<&str, StackCell> {
        let mut out: BTreeMap<&str, StackCell> = BTreeMap::new();
        for (path, cell) in &self.closed {
            let leaf = path.rsplit(';').next().unwrap_or(path.as_str());
            let agg = out.entry(leaf).or_default();
            agg.count += cell.count;
            agg.self_ns = agg.self_ns.saturating_add(cell.self_ns);
            agg.total_ns = agg.total_ns.saturating_add(cell.total_ns);
        }
        out
    }

    fn merge(&mut self, other: &OldStack) {
        for (path, cell) in &other.closed {
            let mine = self.closed.entry(path.clone()).or_default();
            mine.count += cell.count;
            mine.self_ns = mine.self_ns.saturating_add(cell.self_ns);
            mine.total_ns = mine.total_ns.saturating_add(cell.total_ns);
        }
        self.enters += other.enters;
        self.exits += other.exits;
        self.max_depth = self.max_depth.max(other.max_depth);
    }

    fn export_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, cell) in &self.closed {
            out.push_str(path);
            out.push(' ');
            out.push_str(&cell.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

/// Names whose full-path order differs from their trie order: `;` sorts
/// after `.` and digits and before letters and `_`, so `a.b` < `a;x` < `a_b`
/// as strings while `a` < `a.b` < `a_b` as siblings.
const NAMES: [&str; 8] = ["fault", "fault.2", "fault_2", "map", "a", "a0", "a-b", "pcp_hit"];

#[derive(Clone, Copy, Debug)]
enum Op {
    Enter(usize),
    Exit,
    Advance(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..9).prop_map(Op::Enter),
            (0usize..9).prop_map(Op::Enter),
            Just(Op::Exit),
            Just(Op::Exit),
            (0u64..5_000).prop_map(Op::Advance),
        ],
        0..120,
    )
}

/// Index 8 is `"fault"` again at another address: equal names are one
/// stage wherever the string lives.
fn name(i: usize) -> &'static str {
    static FAULT_AGAIN: OnceLock<&'static str> = OnceLock::new();
    let again = || *FAULT_AGAIN.get_or_init(|| String::from("fault").leak());
    NAMES.get(i).copied().unwrap_or_else(again)
}

/// Runs `ops` on both stacks, checking every return value on the way.
fn drive(ops: &[Op]) -> (SpanStack, OldStack) {
    let (mut new, mut old, mut now) = (SpanStack::new(), OldStack::default(), 0u64);
    for &op in ops {
        match op {
            Op::Enter(i) => {
                new.enter(name(i), now);
                old.enter(name(i), now);
            }
            Op::Exit => assert_eq!(new.exit(now), old.exit(now)),
            Op::Advance(dt) => now += dt,
        }
        assert_eq!(new.depth(), old.open.len());
    }
    (new, old)
}

fn assert_same(new: &SpanStack, old: &OldStack) {
    assert_eq!(new.export_collapsed(), old.export_collapsed());
    let cells: Vec<(String, StackCell)> =
        old.closed.iter().map(|(path, cell)| (path.clone(), *cell)).collect();
    assert_eq!(new.collapsed(), cells);
    assert_eq!(new.by_stage(), old.by_stage());
    assert_eq!(
        (new.enters(), new.exits(), new.max_depth()),
        (old.enters, old.exits, old.max_depth)
    );
    assert_eq!(new.is_balanced(), old.open.is_empty() && old.enters == old.exits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trie_and_string_paths_agree(a in ops(), b in ops()) {
        let (mut new_a, mut old_a) = drive(&a);
        let (mut new_b, mut old_b) = drive(&b);
        assert_same(&new_a, &old_a);
        assert_same(&new_b, &old_b);

        // Merging folds closed paths (open ones stay the receiver's own),
        // and equality sees the result, not the order paths were met in.
        let (mut new_ba, closed_a) = (new_b.clone(), new_a.clone());
        new_a.merge(&new_b);
        old_a.merge(&old_b);
        assert_same(&new_a, &old_a);
        new_b.merge(&closed_a);
        old_b.merge(&OldStack { open: Vec::new(), ..drive(&a).1 });
        assert_same(&new_b, &old_b);
        new_ba.merge(&closed_a);
        prop_assert_eq!(&new_ba, &new_b);
        if a.is_empty() && b.is_empty() {
            prop_assert_eq!(&new_a, &SpanStack::new());
        }
    }

    /// A session's `span.*` histograms are what formatting the metric name
    /// at every exit used to produce.
    #[test]
    fn session_histograms_match_per_exit_observes(ops in ops()) {
        let session = contig_trace::TraceSession::flight_only(4);
        let tracer = session.tracer();
        let (mut old, mut want, mut now) = (OldStack::default(), MetricsRegistry::new(), 0u64);
        let mut guards = Vec::new();
        let mut exit = |old: &mut OldStack, now| {
            if let Some((stage, total, self_ns)) = old.exit(now) {
                want.observe(&format!("span.{stage}.total_ns"), total);
                want.observe(&format!("span.{stage}.self_ns"), self_ns);
            }
        };
        for &op in &ops {
            match op {
                // Odd names are instantaneous marks, even ones scoped spans.
                Op::Enter(i) if i % 2 == 1 => {
                    tracer.span_mark(name(i));
                    old.enter(name(i), now);
                    exit(&mut old, now);
                }
                Op::Enter(i) => {
                    guards.push(tracer.span(name(i)));
                    old.enter(name(i), now);
                }
                Op::Exit => {
                    drop(guards.pop());
                    exit(&mut old, now);
                }
                Op::Advance(dt) => {
                    now += dt;
                    tracer.set_clock(now);
                }
            }
        }
        // Read once with spans still open, once with everything closed.
        assert_same(&session.spans(), &old);
        while let Some(guard) = guards.pop() {
            drop(guard);
            exit(&mut old, now);
        }
        assert_same(&session.spans(), &old);
        prop_assert_eq!(session.metrics(), want);
    }
}
