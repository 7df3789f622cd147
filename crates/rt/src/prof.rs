//! Hierarchical profiler: span call trees with self/total attribution.
//!
//! [`obs`](crate::obs) spans record flat per-name histograms; this
//! module adds the structure those histograms lack. Each thread keeps a
//! parent/child span stack per [`Profiler`], accumulating into an
//! index-linked local tree with **no per-call allocation** — span names
//! are `&'static str` (the interned span-path IDs), child lookup is a
//! linear scan over a node's few children, and nothing is boxed on
//! enter/exit. Whenever a thread's span stack empties, the local tree's
//! deltas are merged into the profiler's shared master tree, so worker
//! trees fold into the engine's master tree at evaluation granularity
//! rather than per span.
//!
//! Exports are deterministic: children are sorted by name (cross-thread
//! merge order cannot leak into the bytes), and the
//! [`ClockKind::Ticks`] clock advances a fixed [`TICK_NS`] per read so
//! a seeded single-thread run produces byte-identical profile JSON —
//! the same determinism bar the JSONL traces meet.
//!
//! Spans reach the tree through the innermost profiler
//! [`install`](Profiler::install)ed on the calling thread, opened by
//! [`span`]. When none is installed the cost is one thread-local `Cell`
//! read. Two forms share that primitive:
//!
//! * [`prof_span!`](crate::prof_span!) — leaf kernels (GEMM,
//!   activations) that hold no `Obs` handle.
//! * `Obs` spans — when a profiler is attached to an `Obs` (see
//!   `ObsBuilder::profiler`), `Obs::span` opens its frame through
//!   [`span`] too, so on threads that install the profiler the
//!   engine's `train`/`evaluate` spans become interior nodes above the
//!   kernel spans. The handle decides whether, the thread which tree.
//!
//! Out-of-order closes are tolerated: closing a span also closes any
//! younger spans still open above it (they are charged up to the same
//! instant), and closing an already-closed span is a no-op. This keeps
//! the tree invariants — a child's total never exceeds its parent's,
//! and self time is exactly total minus the sum of child totals —
//! regardless of drop order.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{Cursor, DecodeError, FromJson, Json};

/// Schema version stamped into exported profile JSON documents.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Nanoseconds the [`ClockKind::Ticks`] clock advances per read.
pub const TICK_NS: u64 = 1_000;

/// Time source for a [`Profiler`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClockKind {
    /// Real monotonic time ([`Instant`]).
    Wall,
    /// A deterministic virtual clock: every read advances a shared
    /// counter by [`TICK_NS`], so durations are a pure function of the
    /// sequence of clock reads. A seeded single-thread run therefore
    /// exports byte-identical profile JSON run to run.
    Ticks,
}

impl ClockKind {
    /// Parses `"wall"` or `"ticks"`.
    pub fn parse(s: &str) -> Option<ClockKind> {
        match s {
            "wall" => Some(ClockKind::Wall),
            "ticks" => Some(ClockKind::Ticks),
            _ => None,
        }
    }

    /// The name [`parse`](Self::parse) accepts, as stamped into JSON.
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Wall => "wall",
            ClockKind::Ticks => "ticks",
        }
    }
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

struct Shared {
    id: u64,
    clock: ClockKind,
    root: &'static str,
    epoch: Instant,
    ticks: AtomicU64,
    master: Mutex<MergedNode>,
    /// Imported subtrees (e.g. cross-wire worker profiles) grafted
    /// under the root at export time, keyed by graft name.
    grafts: Mutex<Vec<(String, ProfileNode)>>,
}

impl Shared {
    fn now(&self) -> u64 {
        match self.clock {
            ClockKind::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockKind::Ticks => self.ticks.fetch_add(TICK_NS, Ordering::Relaxed) + TICK_NS,
        }
    }
}

#[derive(Default)]
struct MergedNode {
    total_ns: u64,
    calls: u64,
    children: Vec<(&'static str, MergedNode)>,
}

impl MergedNode {
    fn child(&mut self, name: &'static str) -> &mut MergedNode {
        if let Some(i) = self.children.iter().position(|(n, _)| *n == name) {
            return &mut self.children[i].1;
        }
        self.children.push((name, MergedNode::default()));
        &mut self.children.last_mut().unwrap().1
    }
}

/// Handle to a hierarchical span collector. Cloning shares the
/// underlying tree; the handle is `Send + Sync` and cheap to clone.
#[derive(Clone)]
pub struct Profiler {
    shared: Arc<Shared>,
}

impl Profiler {
    /// A profiler whose exported root node is named `engine`.
    pub fn new(clock: ClockKind) -> Profiler {
        Profiler::with_root(clock, "engine")
    }

    /// A profiler with an explicit root-node name.
    pub fn with_root(clock: ClockKind, root: &'static str) -> Profiler {
        Profiler {
            shared: Arc::new(Shared {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                root,
                epoch: Instant::now(),
                ticks: AtomicU64::new(0),
                master: Mutex::new(MergedNode::default()),
                grafts: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The clock this profiler reads.
    pub fn clock(&self) -> ClockKind {
        self.shared.clock
    }

    /// Installs this profiler as the calling thread's current one:
    /// [`span`] records under it until the guard drops. Installs nest;
    /// the innermost wins. Dropping the guard flushes any completed
    /// spans to the master tree.
    pub fn install(&self) -> InstallGuard {
        DEPTH.with(|d| d.set(d.get() + 1));
        STATE.with(|s| s.borrow_mut().installed.push(self.clone()));
        InstallGuard {
            _not_send: PhantomData,
        }
    }

    /// Opens a span in this profiler on the calling thread without
    /// installing it — for a caller that holds the profiler and wants
    /// one frame of its own around work that installs it (a benchmark
    /// harness timing a whole search). Instrumented code uses the
    /// installed profiler through [`span`] instead.
    pub fn enter(&self, name: &'static str) -> ProfGuard {
        enter_in(&self.shared, name)
    }

    /// Exports the merged call tree. Only spans flushed to the master
    /// tree are included — a thread flushes whenever its span stack
    /// empties and when an [`InstallGuard`] drops — so call this after
    /// workers have finished. Children are name-sorted, making the
    /// export invariant to thread merge order.
    pub fn report(&self) -> ProfileNode {
        let master = self
            .shared
            .master
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut root = export(self.shared.root, &master);
        drop(master);
        // Graft imported subtrees (cross-wire worker profiles) as
        // additional top-level children, renamed to their graft key.
        // Children stay name-sorted, so a set of grafts exports the
        // same bytes no matter the order they arrived in.
        let grafts = self
            .shared
            .grafts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, sub) in grafts.iter() {
            let mut sub = sub.clone();
            sub.name = name.clone();
            root.children.push(sub);
        }
        drop(grafts);
        root.children.sort_by(|a, b| a.name.cmp(&b.name));
        // The root is synthetic (never itself closed): its total is the
        // sum of its top-level phases and it has no self time.
        root.total_ns = root.children.iter().map(|c| c.total_ns).sum();
        root.self_ns = 0;
        root.calls = 1;
        root
    }

    /// Grafts an imported subtree (e.g. a worker's profile shipped over
    /// the wire) under the root as a top-level child named `name`.
    /// Attaching under an existing name replaces the previous subtree —
    /// periodic snapshots are cumulative, so the latest wins — and the
    /// export stays invariant to attach order because [`report`]
    /// name-sorts its children.
    ///
    /// [`report`]: Profiler::report
    pub fn attach_subtree(&self, name: &str, subtree: ProfileNode) {
        let mut grafts = self
            .shared
            .grafts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(slot) = grafts.iter_mut().find(|(n, _)| n == name) {
            slot.1 = subtree;
        } else {
            grafts.push((name.to_string(), subtree));
        }
    }

    /// Total seconds per top-level phase (depth-1 child of the root),
    /// name-sorted — the shape the engine mirrors into gauges.
    pub fn phase_seconds(&self) -> Vec<(String, f64)> {
        self.report()
            .children
            .iter()
            .map(|c| (c.name.clone(), c.total_ns as f64 / 1e9))
            .collect()
    }
}

fn export(name: &str, node: &MergedNode) -> ProfileNode {
    let mut children: Vec<ProfileNode> =
        node.children.iter().map(|(n, c)| export(n, c)).collect();
    children.sort_by(|a, b| a.name.cmp(&b.name));
    let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
    ProfileNode {
        name: name.to_string(),
        total_ns: node.total_ns,
        self_ns: node.total_ns.saturating_sub(child_total),
        calls: node.calls,
        children,
    }
}

/// Keeps a [`Profiler`] installed on the current thread; see
/// [`Profiler::install`]. Not `Send`: it must drop on the thread that
/// created it.
pub struct InstallGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let popped = STATE.with(|s| s.borrow_mut().installed.pop());
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if let Some(p) = popped {
            // Flush completed spans so a worker's tree reaches the
            // master even if this thread never opens another span.
            STATE.with(|s| s.borrow_mut().flush(&p.shared));
        }
    }
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

#[derive(Default)]
struct ThreadState {
    installed: Vec<Profiler>,
    trees: Vec<LocalTree>,
}

impl ThreadState {
    fn tree_for(&mut self, shared: &Arc<Shared>) -> &mut LocalTree {
        let idx = match self.trees.iter().position(|t| t.profiler_id == shared.id) {
            Some(i) => i,
            None => {
                self.trees.push(LocalTree::new(shared));
                self.trees.len() - 1
            }
        };
        &mut self.trees[idx]
    }

    fn flush(&mut self, shared: &Arc<Shared>) {
        if let Some(t) = self.trees.iter_mut().find(|t| t.profiler_id == shared.id) {
            t.flush_if_idle();
        }
    }
}

struct LocalTree {
    profiler_id: u64,
    shared: Arc<Shared>,
    /// `nodes[0]` is the root; children link by index.
    nodes: Vec<LocalNode>,
    stack: Vec<Frame>,
    next_span: u64,
}

#[derive(Default)]
struct LocalNode {
    total_ns: u64,
    calls: u64,
    children: Vec<(&'static str, usize)>,
}

struct Frame {
    node: usize,
    span: u64,
    start_ns: u64,
}

impl LocalTree {
    fn new(shared: &Arc<Shared>) -> LocalTree {
        LocalTree {
            profiler_id: shared.id,
            shared: shared.clone(),
            nodes: vec![LocalNode::default()],
            stack: Vec::new(),
            next_span: 1,
        }
    }

    fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&(_, idx)) = self.nodes[parent].children.iter().find(|(n, _)| *n == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(LocalNode::default());
        self.nodes[parent].children.push((name, idx));
        idx
    }

    /// Merges accumulated totals into the shared master tree and resets
    /// the local tree. Only safe (and only called) with no open spans.
    fn flush_if_idle(&mut self) {
        if !self.stack.is_empty() {
            return;
        }
        if self.nodes.len() == 1 && self.nodes[0].children.is_empty() {
            return;
        }
        let mut master = self
            .shared
            .master
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        merge_into(&self.nodes, 0, &mut master);
        self.nodes.truncate(1);
        self.nodes[0].children.clear();
        self.nodes[0].total_ns = 0;
        self.nodes[0].calls = 0;
    }
}

fn merge_into(nodes: &[LocalNode], idx: usize, dst: &mut MergedNode) {
    dst.total_ns += nodes[idx].total_ns;
    dst.calls += nodes[idx].calls;
    for &(name, child) in &nodes[idx].children {
        merge_into(nodes, child, dst.child(name));
    }
}

fn enter_in(shared: &Arc<Shared>, name: &'static str) -> ProfGuard {
    let span = STATE.with(|s| {
        let mut st = s.borrow_mut();
        let tree = st.tree_for(shared);
        let parent = tree.stack.last().map_or(0, |f| f.node);
        let node = tree.child_of(parent, name);
        tree.nodes[node].calls += 1;
        let span = tree.next_span;
        tree.next_span += 1;
        let start_ns = tree.shared.now();
        tree.stack.push(Frame {
            node,
            span,
            start_ns,
        });
        span
    });
    ProfGuard {
        shared: shared.clone(),
        span,
    }
}

/// Closes span `span`, plus any younger spans still open above it (all
/// charged up to the same instant). A span an enclosing close already
/// closed is left alone, without a clock read.
fn exit_in(shared: &Arc<Shared>, span: u64) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some(tree) = st.trees.iter_mut().find(|t| t.profiler_id == shared.id) else {
            return;
        };
        let Some(pos) = tree.stack.iter().rposition(|f| f.span == span) else {
            return;
        };
        let now = tree.shared.now();
        for f in tree.stack.drain(pos..) {
            tree.nodes[f.node].total_ns += now.saturating_sub(f.start_ns);
        }
        tree.flush_if_idle();
    });
}

/// An open span; closes on drop. Returned by [`span`] and
/// [`Profiler::enter`].
pub struct ProfGuard {
    shared: Arc<Shared>,
    span: u64,
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        exit_in(&self.shared, self.span);
    }
}

/// Opens `name` under the innermost profiler installed on this thread,
/// or returns `None` when none is — a single thread-local `Cell` read,
/// so instrumented kernels are near-zero cost with profiling off.
pub fn span(name: &'static str) -> Option<ProfGuard> {
    if DEPTH.with(Cell::get) == 0 {
        return None;
    }
    let shared = STATE.with(|s| s.borrow().installed.last().map(|p| p.shared.clone()))?;
    Some(enter_in(&shared, name))
}

/// Opens a profiler span under the thread's installed profiler:
/// `let _g = rt::prof_span!("gemm");`. Expands to [`span`]; binds the
/// guard or it closes immediately.
#[macro_export]
macro_rules! prof_span {
    ($name:expr) => {
        $crate::prof::span($name)
    };
}

/// One node of an exported profile tree: total time, self time (total
/// minus the sum of child totals), call count, and name-sorted
/// children.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileNode {
    /// Span name (root nodes are typically `engine`).
    pub name: String,
    /// Nanoseconds between this span's opens and closes, summed.
    pub total_ns: u64,
    /// `total_ns` minus the sum of child totals (never underflows).
    pub self_ns: u64,
    /// Number of times the span was opened.
    pub calls: u64,
    /// Child spans, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Serializes this node (recursively) as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object()
            .insert("name", self.name.as_str())
            .insert("total_ns", self.total_ns)
            .insert("self_ns", self.self_ns)
            .insert("calls", self.calls)
            .insert(
                "children",
                Json::Array(self.children.iter().map(ProfileNode::to_json).collect()),
            )
    }

    /// Collapsed-stack text: one `path;to;node self_ns` line per node
    /// with nonzero self time, in name-sorted depth-first order — the
    /// input format of standard flamegraph tooling.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        let mut path = Vec::new();
        self.collapse_into(&mut path, &mut out);
        out
    }

    fn collapse_into<'a>(&'a self, path: &mut Vec<&'a str>, out: &mut String) {
        path.push(&self.name);
        if self.self_ns > 0 {
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&self.self_ns.to_string());
            out.push('\n');
        }
        for c in &self.children {
            c.collapse_into(path, out);
        }
        path.pop();
    }

    /// Renders an indented total/self/calls attribution table. For
    /// human eyes, children sort by total time descending (name breaks
    /// ties), unlike the name-sorted machine exports.
    pub fn render_table(&self) -> String {
        let mut rows = Vec::new();
        self.table_rows(0, &mut rows);
        let name_w = rows
            .iter()
            .map(|r| r.0.len())
            .max()
            .unwrap_or(0)
            .max("span".len());
        let mut out = format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>8}\n",
            "span", "total", "self", "calls"
        );
        for (label, total, self_ns, calls) in rows {
            out.push_str(&format!(
                "{label:<name_w$}  {:>12}  {:>12}  {calls:>8}\n",
                fmt_ns(total),
                fmt_ns(self_ns),
            ));
        }
        out
    }

    fn table_rows(&self, depth: usize, rows: &mut Vec<(String, u64, u64, u64)>) {
        rows.push((
            format!("{}{}", "  ".repeat(depth), self.name),
            self.total_ns,
            self.self_ns,
            self.calls,
        ));
        let mut kids: Vec<&ProfileNode> = self.children.iter().collect();
        kids.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.name.cmp(&b.name)));
        for c in kids {
            c.table_rows(depth + 1, rows);
        }
    }

    /// Finds a descendant by name (depth-first), including `self`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Wraps a root node in the schema-pinned profile document
/// (`{"schema_version":1,"clock":"ticks","root":{...}}`).
pub fn profile_to_json(clock: ClockKind, root: &ProfileNode) -> Json {
    Json::object()
        .insert("schema_version", PROFILE_SCHEMA_VERSION)
        .insert("clock", clock.name())
        .insert("root", root.to_json())
}

/// Parses a profile document produced by [`profile_to_json`], checking
/// the schema version. Returns `(clock, root)`.
///
/// # Errors
///
/// A [`DecodeError`] naming the first malformed field.
pub fn profile_from_json(j: &Json) -> Result<(String, ProfileNode), DecodeError> {
    let j = Cursor::root(j);
    let version: u64 = j.get("schema_version")?;
    if version != PROFILE_SCHEMA_VERSION {
        return Err(j.field("schema_version")?.error(format!(
            "unsupported profile schema_version {version} (expected {PROFILE_SCHEMA_VERSION})"
        )));
    }
    Ok((j.get("clock")?, j.get("root")?))
}

impl FromJson for ProfileNode {
    fn decode(j: Cursor<'_>) -> Result<ProfileNode, DecodeError> {
        let node = ProfileNode {
            name: j.get("name")?,
            total_ns: j.get("total_ns")?,
            self_ns: j.get("self_ns")?,
            calls: j.get("calls")?,
            children: j.get("children")?,
        };
        if node.self_ns > node.total_ns {
            let at = j.field("self_ns")?;
            return Err(at.error(format!("exceeds total_ns {}", node.total_ns)));
        }
        Ok(node)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::{Pcg64, RngCore, SeedableRng};

    fn ticks() -> Profiler {
        Profiler::new(ClockKind::Ticks)
    }

    #[test]
    fn nested_spans_attribute_self_and_total() {
        let p = ticks();
        {
            let _i = p.install();
            let outer = span("train").unwrap();
            {
                let _inner = span("gemm");
                // gemm: enter(now=2) .. exit(now=3) => 1 tick
            }
            drop(outer);
        }
        let root = p.report();
        assert_eq!(root.name, "engine");
        let train = &root.children[0];
        assert_eq!(train.name, "train");
        assert_eq!(train.calls, 1);
        let gemm = &train.children[0];
        assert_eq!(gemm.name, "gemm");
        assert_eq!(gemm.calls, 1);
        assert_eq!(gemm.total_ns, TICK_NS);
        assert_eq!(train.total_ns, 3 * TICK_NS);
        assert_eq!(train.self_ns, train.total_ns - gemm.total_ns);
        assert_eq!(root.total_ns, train.total_ns);
        assert_eq!(root.self_ns, 0);
    }

    #[test]
    fn ticks_clock_is_deterministic_across_runs() {
        let run = || {
            let p = ticks();
            let _i = p.install();
            for _ in 0..3 {
                let _e = span("evaluate");
                let _t = span("train");
                for _ in 0..2 {
                    let _g = span("gemm");
                }
            }
            drop(_i);
            profile_to_json(p.clock(), &p.report()).pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uninstalled_span_is_none_and_free() {
        assert!(span("gemm").is_none());
    }

    #[test]
    fn out_of_order_drop_closes_children_first() {
        let p = ticks();
        let _i = p.install();
        let outer = span("outer").unwrap();
        let inner = span("inner").unwrap();
        // Parent closed before child: the child is force-closed at the
        // same instant, and the child's later drop is a no-op. It reads
        // no clock and closes nothing, so the span open around it is
        // charged only its own two reads.
        drop(outer);
        let later = span("later").unwrap();
        drop(inner);
        drop(later);
        drop(_i);
        let root = p.report();
        let outer_n = root.find("outer").unwrap();
        let inner_n = outer_n.find("inner").unwrap();
        assert_eq!((outer_n.total_ns, outer_n.calls), (2 * TICK_NS, 1));
        assert_eq!((inner_n.total_ns, inner_n.calls), (TICK_NS, 1));
        let later_n = root.children.iter().find(|c| c.name == "later").unwrap();
        assert_eq!((later_n.total_ns, later_n.calls), (TICK_NS, 1));
    }

    #[test]
    fn cross_thread_merge_is_permutation_invariant() {
        // Two fixed workloads, run in both orders (each on its own
        // thread, sequenced so tick interleaving is identical): the
        // name-sorted export must not depend on merge order.
        let workload_a = |p: &Profiler| {
            let _i = p.install();
            let _e = span("evaluate");
            let _t = span("train");
            let _g = span("gemm");
        };
        let workload_b = |p: &Profiler| {
            let _i = p.install();
            let _e = span("evaluate");
            let _h = span("hw_model");
        };
        let run = |order: [u8; 2]| {
            let p = ticks();
            for which in order {
                let p2 = p.clone();
                std::thread::spawn(move || match which {
                    0 => workload_a(&p2),
                    _ => workload_b(&p2),
                })
                .join()
                .unwrap();
            }
            profile_to_json(p.clock(), &p.report()).pretty()
        };
        assert_eq!(run([0, 1]), run([1, 0]));
    }

    fn worker_subtree(scale: u64) -> ProfileNode {
        let gemm = ProfileNode {
            name: "gemm".to_string(),
            total_ns: scale * TICK_NS,
            self_ns: scale * TICK_NS,
            calls: scale,
            children: Vec::new(),
        };
        ProfileNode {
            name: "worker".to_string(),
            total_ns: 3 * scale * TICK_NS,
            self_ns: 2 * scale * TICK_NS,
            calls: 1,
            children: vec![gemm],
        }
    }

    #[test]
    fn attached_subtrees_are_permutation_invariant() {
        // Cross-wire import: the same pair of worker subtrees attached
        // in either order exports identical bytes.
        let run = |order: [u64; 2]| {
            let p = ticks();
            {
                let _i = p.install();
                let _d = span("dispatch");
            }
            for slot in order {
                p.attach_subtree(&format!("worker:{slot}"), worker_subtree(slot));
            }
            profile_to_json(p.clock(), &p.report()).pretty()
        };
        assert_eq!(run([1, 2]), run([2, 1]));
        let text = run([1, 2]);
        assert!(text.contains("worker:1") && text.contains("worker:2"));
    }

    #[test]
    fn attach_subtree_replaces_by_name_and_feeds_root_total() {
        let p = ticks();
        p.attach_subtree("worker:0", worker_subtree(5));
        // Periodic snapshots are cumulative: a later snapshot under the
        // same name replaces the earlier one instead of accumulating.
        p.attach_subtree("worker:0", worker_subtree(2));
        p.attach_subtree("worker:1", worker_subtree(1));
        let root = p.report();
        assert_eq!(root.children.len(), 2);
        let w0 = root.find("worker:0").unwrap();
        assert_eq!(w0.total_ns, 6 * TICK_NS);
        assert_eq!(w0.find("gemm").unwrap().calls, 2);
        assert_eq!(root.total_ns, 6 * TICK_NS + 3 * TICK_NS);
        assert_eq!(root.self_ns, 0);
    }

    /// Property: over random span programs, child totals never exceed
    /// the parent's total and every node's self time is exactly total
    /// minus the sum of child totals.
    #[test]
    fn prop_tree_invariants_over_random_programs() {
        let seed = std::env::var("RT_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xecad);
        let mut rng = Pcg64::seed_from_u64(seed);
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        for _case in 0..200 {
            let p = ticks();
            {
                let _i = p.install();
                let mut open: Vec<ProfGuard> = Vec::new();
                for _step in 0..40 {
                    let r = rng.next_u64();
                    if open.is_empty() || r % 3 != 0 {
                        let name = NAMES[(r / 3) as usize % NAMES.len()];
                        if let Some(g) = span(name) {
                            open.push(g);
                        }
                    } else {
                        // Drop a random open guard — possibly out of
                        // order relative to the stack.
                        let idx = (r / 3) as usize % open.len();
                        drop(open.swap_remove(idx));
                    }
                }
                // Guards drop in arbitrary (swap_remove-scrambled)
                // order here, exercising forced closes again.
            }
            check_invariants(&p.report());
        }
    }

    fn check_invariants(node: &ProfileNode) {
        let child_sum: u64 = node.children.iter().map(|c| c.total_ns).sum();
        assert!(
            child_sum <= node.total_ns,
            "children {child_sum} exceed parent {} at {}",
            node.total_ns,
            node.name
        );
        assert_eq!(
            node.self_ns,
            node.total_ns - child_sum,
            "self time mismatch at {}",
            node.name
        );
        let mut names: Vec<&str> = node.children.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "children not name-sorted at {}", node.name);
        names.dedup();
        assert_eq!(names.len(), node.children.len(), "duplicate child name");
        for c in &node.children {
            check_invariants(c);
        }
    }

    #[test]
    fn from_json_rejects_negative_fractional_and_inconsistent_counts() {
        let node = |total: &str, self_ns: &str, calls: &str| {
            let text = format!(
                r#"{{"name":"n","total_ns":{total},"self_ns":{self_ns},"calls":{calls},"children":[]}}"#
            );
            ProfileNode::from_json(&Json::parse(&text).unwrap())
        };
        assert_eq!(node("5", "3", "1").map(|n| n.self_ns), Ok(3));
        assert_eq!(node("-5", "0", "1").unwrap_err().path, "total_ns");
        assert_eq!(node("5", "3", "1.5").unwrap_err().path, "calls");
        let err = node("5", "6", "1").unwrap_err();
        assert_eq!(err.to_string(), "self_ns: exceeds total_ns 5");
    }

    #[test]
    fn json_round_trip_and_schema() {
        let p = ticks();
        {
            let _i = p.install();
            let _e = span("evaluate");
            let _t = span("train");
        }
        let root = p.report();
        let doc = profile_to_json(p.clock(), &root);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        let (clock, root2) = profile_from_json(&parsed).unwrap();
        assert_eq!(clock, "ticks");
        assert_eq!(root, root2);
        assert!(profile_from_json(&Json::object().insert("schema_version", 99)).is_err());
    }

    #[test]
    fn collapsed_lines_are_path_and_self_ns() {
        let p = ticks();
        {
            let _i = p.install();
            let outer = span("train").unwrap();
            {
                let _g = span("gemm");
            }
            drop(outer);
        }
        let collapsed = p.report().to_collapsed();
        for line in collapsed.lines() {
            let (path, ns) = line.rsplit_once(' ').unwrap();
            assert!(path.starts_with("engine;"));
            assert!(ns.parse::<u64>().unwrap() > 0);
        }
        assert!(collapsed.contains("engine;train;gemm "));
    }

    #[test]
    fn render_table_shows_hierarchy() {
        let p = ticks();
        {
            let _i = p.install();
            let outer = span("train").unwrap();
            {
                let _g = span("gemm");
            }
            drop(outer);
        }
        let table = p.report().render_table();
        assert!(table.starts_with("span"));
        assert!(table.contains("engine"));
        assert!(table.contains("  train"));
        assert!(table.contains("    gemm"));
    }

    #[test]
    fn obs_enter_without_install_still_records() {
        // `enter` opens a frame in a profiler directly, without it
        // being installed on the thread.
        let p = ticks();
        drop(p.enter("train"));
        let root = p.report();
        assert_eq!(root.children.len(), 1);
        let train = &root.children[0];
        assert_eq!(train.name, "train");
        assert_eq!((train.total_ns, train.calls), (TICK_NS, 1));
    }
}
