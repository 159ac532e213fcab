//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Every span keeps its name, start, end, parent and op id.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file.

use ssresf_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Records spans for every traced op of a run.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Makes `op` the op id of the spans recorded from now on.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut state = self.lock();
            let parent = state.open.last().copied();
            let op = state.op;
            state.spans.push(Span {
                name: name.to_owned(),
                op,
                parent,
                start: Instant::now(),
                end: None,
            });
            let index = state.spans.len() - 1;
            state.open.push(index);
            index
        };
        let out = f();
        let mut state = self.lock();
        state.spans[index].end = Some(Instant::now());
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close in reverse order");
        out
    }

    /// Records an interval observed by a program hook (a progress report)
    /// as a finished child of the innermost open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        let mut state = self.lock();
        let parent = state.open.last().copied();
        let op = state.op;
        state.spans.push(Span {
            name: name.to_owned(),
            op,
            parent,
            start,
            end: Some(end),
        });
    }

    /// Per span name, the summed self time in seconds of the current op's
    /// spans: each span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let state = self.lock();
        let op = state.op;
        let duration = |s: &Span| {
            s.end
                .map_or(0.0, |end| end.duration_since(s.start).as_secs_f64())
        };
        let mut child_time = vec![0.0f64; state.spans.len()];
        for span in state.spans.iter().filter(|s| s.op == op) {
            if let Some(parent) = span.parent {
                child_time[parent] += duration(span);
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in state.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            *out.entry(span.name.clone()).or_insert(0.0) += duration(span) - child_time[i];
        }
        out
    }

    /// Durations in seconds of the current op's spans named `name`, in
    /// recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let state = self.lock();
        state
            .spans
            .iter()
            .filter(|s| s.op == state.op && s.name == name)
            .filter_map(|s| s.end.map(|end| end.duration_since(s.start).as_secs_f64()))
            .collect()
    }

    /// Every span, with times in seconds from the tracer's creation.
    pub fn to_json(&self) -> Value {
        let state = self.lock();
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        Value::Array(
            state
                .spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    ssresf_json::object([
                        ("id", Value::from(i)),
                        ("name", Value::from(s.name.as_str())),
                        ("op", Value::from(s.op)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("start_s", Value::from(at(s.start))),
                        ("end_s", s.end.map_or(Value::Null, |e| Value::from(at(e)))),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs `f` in a span when a tracer is attached, and plainly otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
