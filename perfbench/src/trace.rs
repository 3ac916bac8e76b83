//! In-memory span recorder used by the traced run.
//!
//! A span is one call into a layer, timed in host nanoseconds from the
//! recorder's epoch. Spans nest through a stack: the span open when
//! another opens is its parent. A layer's self time is its span minus
//! the time its child spans cover. Nothing is written while the run
//! measures; [`Tracer::write_tsv`] dumps the spans once it has ended.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `workload.execute`.
    pub name: &'static str,
    /// Host ns since the recorder's epoch.
    pub start_ns: u64,
    /// Host ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Transaction index, append-group index or call index.
    pub op: u64,
    /// Host ns covered by direct children.
    pub child_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, host ns.
    pub total_ns: u64,
    /// Sum of durations minus child coverage, host ns.
    pub self_ns: u64,
}

/// Span recorder. Disabled recorders keep no spans and read no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The recorder shared by the wrappers around each layer.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Handle to an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::exit"]
pub struct SpanId(Option<u32>);

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A shared recorder.
    pub fn shared(enabled: bool) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(enabled)))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, op, child_ns: 0 });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        let dur = end_ns - s.start_ns;
        if let Some(p) = s.parent {
            self.spans[p as usize].child_ns += dur;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-(root span name, span name) totals: the root is the outermost
    /// enclosing span, so a layer's time can be split by phase.
    pub fn totals_by_root(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let mut out: BTreeMap<(&'static str, &'static str), SpanTotals> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.end_ns > 0) {
            let mut root = s;
            while let Some(p) = root.parent {
                root = &self.spans[p as usize];
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry((root.name, s.name)).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(s.child_ns);
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `id name op parent start_ns end_ns self_ns`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let self_ns = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(s.child_ns);
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Time `f` as a span named `name` on the shared recorder. The closure
/// must not touch the recorder itself.
pub fn timed<R>(tracer: &SharedTracer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let span = tracer.borrow_mut().enter(name, op);
    let r = f();
    tracer.borrow_mut().exit(span);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let totals = t.totals_by_root();
        let (o, i) = (totals[&("outer", "outer")], totals[&("outer", "inner")]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", 1);
        t.exit(s);
        assert!(t.spans().is_empty() && t.totals_by_root().is_empty());
    }
}
