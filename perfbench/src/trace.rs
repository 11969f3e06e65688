//! In-memory span recording for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into a
//! layer; nothing inside the library crates is instrumented. A span has a
//! name, a start and an end (nanoseconds since the tracer was created), an
//! optional parent span and the id of the job it belongs to. Spans stay in
//! memory until the run ends and are then written out as one JSON file.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Index of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct Open(usize);

/// A span recorder. A disabled tracer records nothing and costs one branch
/// per call, which is how the untraced runs use it.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u64) -> Option<Open> {
        if !self.on {
            return None;
        }
        let i = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(i);
        Some(Open(i))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Option<Open>) {
        if let Some(Open(i)) = open {
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, job);
        let r = f();
        self.end(open);
        r
    }

    /// Records an interval measured elsewhere (e.g. a request's write and
    /// read instants), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent, job });
        }
    }

    /// Appends `other`'s spans, re-based onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\": \"perfbench-spans/v1\", \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}}}{}\n",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.job,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Host cost of recording one span (a `begin`/`end` pair on an enabled
/// tracer), in nanoseconds: the median over rounds of many pairs each.
pub fn span_cost_ns() -> f64 {
    const ROUNDS: usize = 5;
    const PAIRS: u32 = 100_000;
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut t = Tracer::new(true);
            let start = Instant::now();
            for i in 0..PAIRS {
                let open = t.begin("probe", u64::from(i));
                t.end(std::hint::black_box(open));
            }
            start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of self time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub self_ns: u64,
    /// Self time of each span, in recording order.
    pub each_ns: Vec<u64>,
}

impl Layer {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Groups self times by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.self_ns += st;
        l.each_ns.push(st);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping) and
        // [60,70); the first child has a grandchild [12,18).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("grand", 12, 18, Some(1)),
            sp("b", 20, 50, Some(0)),
            sp("c", 60, 70, Some(0)),
        ];
        // Root: covered = [10,50) ∪ [60,70) = 50 → self 50.
        // a: 20 - 6 = 14; grand: 6; b: 30; c: 10.
        assert_eq!(self_times(&spans), vec![50, 14, 6, 30, 10]);
        let layers = by_name(&spans);
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["a"].mean_ns(), 14.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![sp("p", 10, 20, None), sp("k", 5, 15, Some(0)), sp("k", 18, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![3, 10, 22]);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let x = t.span("inner", 7, || 41 + 1);
        t.end(outer);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(spans);
        assert_eq!(st[0] + st[1], spans[0].dur_ns());
        assert!(t.to_json().contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false);
        let o = off.begin("x", 0);
        off.span("y", 0, || ());
        off.end(o);
        assert!(off.spans().is_empty());
        assert!(span_cost_ns() > 0.0);
    }
}
