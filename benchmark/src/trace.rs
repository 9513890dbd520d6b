//! In-memory span recorder for the traced run. Spans are recorded from
//! the harness's own files only, around each call into a layer's public
//! function; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json;

/// One recorded interval. `parent` indexes the span that was open on
/// the same thread when this one began; spans of one operation (one
/// query, one request, one build) share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

/// A single-thread span recorder. Each load-generator thread records
/// into its own `Tracer` (same `origin`), merged with [`Tracer::absorb`]
/// after the thread is joined.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Count, total time and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer { origin, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder for another thread, sharing this one's clock origin
    /// and on/off state.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Switch recording on or off; spans already open still close.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op_id: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: op_id as u64,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`.
    ///
    /// # Panics
    ///
    /// When `span` is not the innermost open span: spans must nest.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must be closed innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span. Returns what `f` returns and how long it
    /// took, measured whether or not spans are being recorded.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op_id: usize,
        f: impl FnOnce() -> T,
    ) -> (T, std::time::Duration) {
        let start = Instant::now();
        let span = self.begin(name, op_id);
        let out = f();
        self.end(span);
        (out, start.elapsed())
    }

    /// Append another thread's closed spans, keeping their nesting.
    ///
    /// # Panics
    ///
    /// When `other` still has an open span.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Per span: its duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Totals by span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += own;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(tracer: &mut Tracer, name: &'static str, op: usize) {
        let s = tracer.begin(name, op);
        std::hint::black_box((0..2000u64).sum::<u64>());
        tracer.end(s);
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.begin("bench.op", 7);
        busy(&mut t, "core.prepare", 7);
        let knn = t.begin("index.knn", 7);
        busy(&mut t, "distance.euclid", 7);
        t.end(knn);
        t.end(op);
        busy(&mut t, "bench.other", 8);

        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p as usize];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert_eq!(parent.op_id, s.op_id);
            }
        }
        // Σ children ≤ parent, so self time is what is left over.
        let own = t.self_times();
        let children: u64 = spans[1].dur_ns() + spans[2].dur_ns();
        assert!(children <= spans[0].dur_ns());
        assert_eq!(own[0], spans[0].dur_ns() - children);
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
        assert_eq!(own[3], spans[3].dur_ns());

        let agg = t.aggregate();
        assert_eq!(agg["bench.op"].count, 1);
        assert_eq!(agg["bench.op"].total_ns, spans[0].dur_ns());
        assert_eq!(agg["bench.op"].self_ns, own[0]);
        let total_self: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(total_self, spans[0].dur_ns() + spans[4].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("bench.op", 1);
        t.end(s);
        assert!(t.spans().is_empty());
        let mut forked = t.fork();
        let s = forked.begin("bench.op", 2);
        forked.end(s);
        assert!(forked.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_nesting_of_the_other_thread() {
        let mut main = Tracer::new(true, Instant::now());
        busy(&mut main, "bench.main", 1);
        let mut worker = main.fork();
        let op = worker.begin("serve.request", 2);
        busy(&mut worker, "serve.wire", 2);
        worker.end(op);
        main.absorb(worker);
        assert_eq!(main.spans()[1].parent, None);
        assert_eq!(main.spans()[2].parent, Some(1));
        let mut text = Vec::new();
        main.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            assert!(v.get("start_ns").unwrap().as_f64() <= v.get("end_ns").unwrap().as_f64());
        }
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("a", 0);
        let _inner = t.begin("b", 0);
        t.end(outer);
    }
}
