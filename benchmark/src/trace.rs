//! In-memory span recording and self-time arithmetic.
//!
//! The traced run wraps calls into each module's public functions in
//! spans (name, start, end, parent span, site). Spans nest by the caller's
//! stack, so a span's **self time** is its duration minus its children's
//! durations, and the self times under a span add up to its duration by
//! construction. Layers that cannot be called separately from inside a
//! public function (the DOM parse and KB match inside a page build) are
//! measured out of band on the same inputs and attached as **detached**
//! children: their interval is the probe's own, not inside the parent, but
//! their duration is subtracted from the parent's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are milliseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub site: usize,
    /// Measured out of band (see the module docs).
    pub detached: bool,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Records spans into memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    site: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: crate::clock::now(), spans: Vec::new(), stack: Vec::new(), site: 0 }
    }

    /// Tag spans opened from now on with `site`.
    pub fn set_site(&mut self, site: usize) {
        self.site = site;
    }

    fn at(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ms = self.at();
        self.spans.push(Span {
            name,
            start_ms,
            end_ms: start_ms,
            parent,
            site: self.site,
            detached: false,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn close(&mut self, id: usize) {
        let end = self.at();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans must close innermost first");
        self.stack.pop();
        self.spans[id].end_ms = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Attach a detached child of `parent` lasting `dur_ms`, measured out
    /// of band starting at `start`.
    pub fn detached(&mut self, name: &'static str, parent: usize, start: Instant, dur_ms: f64) {
        let start_ms = start.duration_since(self.origin).as_secs_f64() * 1e3;
        self.spans.push(Span {
            name,
            start_ms,
            end_ms: start_ms + dur_ms,
            parent: Some(parent),
            site: self.spans[parent].site,
            detached: true,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ms();
        }
    }
    own
}

/// Per span name: (total self time, total duration, span count).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, self_ms) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_insert((0.0, 0.0, 0));
        e.0 += self_ms;
        e.1 += s.dur_ms();
        e.2 += 1;
    }
    out
}

/// Render spans as tab-separated lines (id, parent, site, name, start,
/// end, self, detached) under a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("id\tparent\tsite\tname\tstart_ms\tend_ms\tself_ms\tdetached\n");
    for (i, (s, self_ms)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{}",
            s.site,
            s.name,
            s.start_ms,
            s.end_ms,
            self_ms,
            u8::from(s.detached)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start_ms: start, end_ms: end, parent, site: 0, detached: false }
    }

    /// root 0..100
    ///   ingest 0..40      (self 40 - 25 - 10 = 5)
    ///     build 0..25     (self 25 - 8 - 4 = 13, detached parse 8 + match 4)
    ///     build 25..35    (self 10)
    ///   train 40..95      (self 55 - 50 = 5)
    ///     ml 41..91       (self 50)
    fn tree() -> Vec<Span> {
        let mut spans = vec![
            span("root", 0.0, 100.0, None),
            span("ingest", 0.0, 40.0, Some(0)),
            span("build", 0.0, 25.0, Some(1)),
            span("build", 25.0, 35.0, Some(1)),
            span("train", 40.0, 95.0, Some(0)),
            span("ml", 41.0, 91.0, Some(4)),
        ];
        let mut parse = span("parse", 200.0, 208.0, Some(2));
        parse.detached = true;
        let mut matching = span("match", 208.0, 212.0, Some(2));
        matching.detached = true;
        spans.push(parse);
        spans.push(matching);
        spans
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = self_times(&tree());
        assert_eq!(own, vec![5.0, 5.0, 13.0, 10.0, 5.0, 50.0, 8.0, 4.0]);
    }

    #[test]
    fn self_times_under_a_span_add_up_to_its_duration() {
        let spans = tree();
        let own = self_times(&spans);
        // Every span is a descendant of the root, so all self times sum to
        // the root's duration exactly.
        let total: f64 = own.iter().sum();
        assert_eq!(total, spans[0].dur_ms());
    }

    #[test]
    fn totals_group_by_name() {
        let t = totals_by_name(&tree());
        assert_eq!(t["build"], (23.0, 35.0, 2));
        assert_eq!(t["parse"], (8.0, 8.0, 1));
        assert_eq!(t["ingest"], (5.0, 40.0, 1));
    }

    #[test]
    fn tracer_nests_by_stack_and_tags_sites() {
        let mut tr = Tracer::new();
        tr.set_site(3);
        let a = tr.open("a");
        let v = tr.leaf("b", || 7);
        tr.close(a);
        tr.detached("c", a, crate::clock::now(), 1.5);
        let spans = tr.into_spans();
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.site == 3));
        assert!(spans[2].detached && (spans[2].dur_ms() - 1.5).abs() < 1e-9);
        assert!(spans[0].start_ms <= spans[1].start_ms && spans[1].end_ms <= spans[0].end_ms);
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let tsv = to_tsv(&tree());
        assert_eq!(tsv.lines().count(), 1 + tree().len());
        assert!(tsv.lines().nth(3).unwrap().starts_with("2\t1\t0\tbuild\t"));
    }
}
