//! Timing wrappers around the layers' public entry points.
//!
//! Each wrapper forwards every call unchanged and records a span around
//! it, so the program itself carries no tracing. The backend wrapper also
//! records each group's virtual submit-to-durable time, which needs no
//! host clock and is kept in untraced runs too.

use crate::trace::SharedTracer;
use memdb::{AppendTag, Database, LogBackend, TxnOutcome};
use simkit::{DetRng, SimTime};
use std::collections::VecDeque;
use xssd_bench::driver::Workload;

/// A [`LogBackend`] that times every data-path call into `inner`.
pub struct TimedBackend<B> {
    inner: B,
    tracer: SharedTracer,
    calls: u64,
    /// Start of the blocking-path group being appended (before its sync).
    group_start: Option<SimTime>,
    /// Asynchronous groups awaiting durability, in submit order.
    submitted: VecDeque<(AppendTag, SimTime)>,
    /// Virtual submit-to-durable time of every group, µs.
    ack_us: Vec<f64>,
}

impl<B: LogBackend> TimedBackend<B> {
    /// Wrap `inner`, recording spans on `tracer`.
    pub fn new(inner: B, tracer: SharedTracer) -> Self {
        TimedBackend {
            inner,
            tracer,
            calls: 0,
            group_start: None,
            submitted: VecDeque::new(),
            ack_us: Vec::new(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (crash injection, checkpoints).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Data-path calls made (appends, syncs, submits, drains, polls).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Virtual submit-to-durable time of every group so far, µs.
    pub fn ack_us(&self) -> &[f64] {
        &self.ack_us
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut B) -> R) -> R {
        let op = self.calls;
        self.calls += 1;
        let span = self.tracer.borrow_mut().enter(name, op);
        let r = f(&mut self.inner);
        self.tracer.borrow_mut().exit(span);
        r
    }
}

impl<B: LogBackend> LogBackend for TimedBackend<B> {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        self.group_start.get_or_insert(now);
        self.span("memdb.backend.append", |b| b.append(now, data))
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        let t = self.span("memdb.backend.sync", |b| b.sync(now));
        if let Some(start) = self.group_start.take() {
            self.ack_us.push(t.saturating_since(start).as_micros_f64());
        }
        t
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        let (tag, t) = self.span("memdb.backend.append_submit", |b| b.append_submit(now, data));
        self.submitted.push_back((tag, now));
        (tag, t)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        let from = out.len();
        self.span("memdb.backend.drain_completions", |b| b.drain_completions(now, out));
        for &(tag, at) in &out[from..] {
            let pos = self.submitted.iter().position(|&(t, _)| t == tag);
            let (_, start) = self
                .submitted
                .remove(pos.expect("a backend completes only tags it handed out"))
                .expect("position is in range");
            self.ack_us.push(at.saturating_since(start).as_micros_f64());
        }
    }

    fn appends_in_flight(&self) -> usize {
        self.inner.appends_in_flight()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.inner.next_completion_at()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<B: simkit::Instrument> simkit::Instrument for TimedBackend<B> {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        self.inner.instrument(out);
    }
}

/// A driver [`Workload`] that times every transaction `inner` executes.
pub struct TimedWorkload<W> {
    inner: W,
    tracer: SharedTracer,
    executed: u64,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wrap `inner`, recording spans on `tracer`.
    pub fn new(inner: W, tracer: SharedTracer) -> Self {
        TimedWorkload { inner, tracer, executed: 0 }
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Transactions executed, committed or not.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn kinds(&self) -> &'static [&'static str] {
        self.inner.kinds()
    }

    fn default_mix(&self) -> &'static [u32] {
        self.inner.default_mix()
    }

    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        now_ns: u64,
    ) -> TxnOutcome {
        let span = self.tracer.borrow_mut().enter("workload.execute", self.executed);
        self.executed += 1;
        let r = self.inner.execute(db, rng, kind, now_ns);
        self.tracer.borrow_mut().exit(span);
        r
    }
}
