//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<operation>`, where the layer is one of the
//! workspace crates (`rawcsv`, `store`, `exec`, `sql`, `core`, `server`)
//! or `bench` for the benchmark's own request spans. Spans of one request
//! share a request id; a child names its parent. Spans stay in memory and
//! are written out once, when the run ends. A span's self time is its
//! duration minus the part of it that its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use nodb::types::profile::Phase;
use nodb::QueryProfile;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span recorder of one thread. Tracers of several threads share an
/// origin and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Open a span that [`Tracer::close`] ends; its children can be
    /// recorded in between.
    pub fn open(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    /// End a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, parent, request, start, end))
    }

    /// Record the phases of an engine query profile as children of
    /// `parent`. The profile holds each phase's self time, not its
    /// position, so the children are laid end to end from the parent's
    /// start; self-time arithmetic only needs their lengths.
    pub fn record_profile(&mut self, parent: usize, profile: &QueryProfile) {
        let (request, mut at, end) = {
            let p = &self.spans[parent];
            (p.request, p.start_ns, p.end_ns)
        };
        for (phase, ns, _hits) in profile.phases() {
            if ns == 0 {
                continue;
            }
            let stop = (at + ns).min(end);
            self.record(phase_span_name(phase), Some(parent), request, at, stop);
            at = stop;
        }
    }

    /// Move every span of `other` into this tracer, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Every recorded span, indexed by id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Span name of an engine profile phase, under the crate that owns the
/// work: planning is `sql`, tokenizing `rawcsv`, cracking `store`,
/// kernels and merges `exec`, wire encoding `server`, and the engine's
/// own loading, fused cold pipeline and result cache `core`.
pub fn phase_span_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Plan => "sql.plan",
        Phase::ResultCacheLookup => "core.result_cache_lookup",
        Phase::ResultCacheCapture => "core.result_cache_capture",
        Phase::Tokenize1 => "rawcsv.tokenize1",
        Phase::Tokenize2 => "rawcsv.tokenize2",
        Phase::ColdPipeline => "core.cold_pipeline",
        Phase::Load => "core.load",
        Phase::Cracking => "store.cracking",
        Phase::WarmKernel => "exec.warm_kernel",
        Phase::GroupMerge => "exec.group_merge",
        Phase::JoinBuild => "exec.join_build",
        Phase::JoinProbe => "exec.join_probe",
        Phase::WireSerialize => "server.wire_serialize",
    }
}

/// Self time of every span, indexed by id: its duration minus the union
/// of its direct children's intervals, each clipped to the span. Children
/// that overlap one another (work on parallel threads) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = union_len(kids, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let mut t = tracer();
        t.record("core.sql", None, 1, 100, 350);
        assert_eq!(self_times(t.spans()), vec![250]);
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        let mut t = tracer();
        let root = t.record("core.sql", None, 1, 0, 1000);
        let child = t.record("core.cold_pipeline", Some(root), 1, 100, 700);
        t.record("rawcsv.tokenize1", Some(child), 1, 200, 400);
        let own = self_times(t.spans());
        assert_eq!(own, vec![400, 400, 200]);
        assert_eq!(own.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = tracer();
        let root = t.record("bench.op", None, 7, 0, 100);
        t.record("server.query", Some(root), 7, 10, 50);
        t.record("server.fetch", Some(root), 7, 30, 70);
        t.record("server.fetch", Some(root), 7, 40, 45);
        assert_eq!(self_times(t.spans())[0], 100 - 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut t = tracer();
        let root = t.record("core.sql", None, 1, 100, 200);
        t.record("exec.warm_kernel", Some(root), 1, 50, 150);
        t.record("exec.group_merge", Some(root), 1, 180, 400);
        assert_eq!(self_times(t.spans())[0], 100 - 50 - 20);
    }

    #[test]
    fn profile_phases_become_children() {
        let mut t = tracer();
        let root = t.record("core.sql", None, 3, 1_000, 11_000);
        let mut profile = QueryProfile::default();
        profile.phase_ns[Phase::Plan as usize] = 1_000;
        profile.phase_ns[Phase::ColdPipeline as usize] = 6_000;
        t.record_profile(root, &profile);
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name["core.sql"], 3_000);
        assert_eq!(by_name["sql.plan"], 1_000);
        assert_eq!(by_name["core.cold_pipeline"], 6_000);
        assert!(t.spans().iter().all(|s| s.request == 3));
    }

    #[test]
    fn absorb_renumbers_parents() {
        let mut a = tracer();
        a.record("bench.op", None, 1, 0, 10);
        let mut b = Tracer::new(a.origin);
        let r = b.record("bench.op", None, 2, 0, 10);
        b.record("server.query", Some(r), 2, 2, 8);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(self_times(a.spans()), vec![10, 4, 6]);
    }
}
