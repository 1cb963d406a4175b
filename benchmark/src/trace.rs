//! Spans recorded from outside the program, around the calls into each
//! layer: name, start, end, parent, and the counts taken at the same
//! boundary. Kept in memory until the traced run ends, then written as
//! Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`<crate>.<module>.<what>`) or a structural name such
    /// as `replay`.
    pub name: String,
    /// Index of the enclosing span; `None` for the root.
    pub parent: Option<usize>,
    /// 0 for the harness's own sequential lane; scheduler lanes of a
    /// real build are numbered from 1 and annotate their parent without
    /// taking from its self time.
    pub lane: u32,
    /// Microseconds from the tracer's origin.
    pub start_us: f64,
    /// Microseconds from the tracer's origin.
    pub end_us: f64,
    /// Counts taken at this boundary, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder for one sequential lane plus annotations.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Starts a tracer whose root span `root` opens now.
    pub fn new(root: &str) -> Tracer {
        let mut tracer = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        tracer.open_span(root);
        tracer
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds from the origin to `instant`.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Pushes a span under the one open now and returns its id.
    fn push(&mut self, name: &str, lane: u32, start_us: f64, end_us: f64) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            lane,
            start_us,
            end_us,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn open_span(&mut self, name: &str) -> usize {
        let now = self.now_us();
        let id = self.push(name, 0, now, now);
        self.open.push(id);
        id
    }

    fn close_span(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`, a child of the span open now.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open_span(name);
        let out = f(self);
        self.close_span(id);
        out
    }

    /// Records an already-finished interval as a child of the span open
    /// now (for calls whose layer is only known once they return).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.push(name, 0, self.at_us(start), self.at_us(end));
    }

    /// Records an interval on a scheduler lane under the span open now,
    /// clamped into it.
    pub fn annotate(&mut self, name: &str, lane: u32, start_us: f64, end_us: f64) {
        let parent = *self.open.last().expect("the root is open");
        let (lo, hi) = (self.spans[parent].start_us, self.now_us());
        self.push(
            name,
            lane.max(1),
            start_us.clamp(lo, hi),
            end_us.clamp(lo, hi),
        );
    }

    /// Adds `value` to count `key` on the span open now.
    pub fn count(&mut self, key: &'static str, value: f64) {
        let id = *self.open.last().expect("the root is open");
        self.spans[id].counts.push((key, value));
    }

    /// Closes the root and returns the spans.
    pub fn finish(mut self) -> Vec<Span> {
        while let Some(id) = self.open.last().copied() {
            self.close_span(id);
        }
        self.spans
    }
}

/// Self time of every span in microseconds: its duration minus its
/// lane-0 children's. Scheduler-lane spans run in parallel with each
/// other, so they keep their own duration and take nothing from their
/// parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for span in spans.iter().filter(|s| s.lane == 0) {
        if let Some(parent) = span.parent {
            own[parent] -= span.dur_us();
        }
    }
    own
}

/// Checks the tree: exactly one root, each child inside its parent, self
/// times non-negative, and the lane-0 self times summing to the root's
/// duration.
///
/// # Errors
///
/// The first violation found.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    // Rounding of microsecond floats.
    const SLACK_US: f64 = 1.0;
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    if roots != 1 || spans[0].parent.is_some() {
        return Err(format!("{roots} roots; expected span 0 to be the only one"));
    }
    for (i, span) in spans.iter().enumerate() {
        if span.end_us < span.start_us {
            return Err(format!("span {i} `{}` ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            let parent = spans
                .get(p)
                .ok_or(format!("span {i} names a missing parent {p}"))?;
            if p >= i {
                return Err(format!("span {i} `{}` precedes its parent", span.name));
            }
            if span.start_us + SLACK_US < parent.start_us || span.end_us > parent.end_us + SLACK_US
            {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    span.name, parent.name
                ));
            }
        }
    }
    let own = self_times_us(spans);
    if let Some(i) = own.iter().position(|&t| t < -SLACK_US) {
        return Err(format!(
            "span {i} `{}` has self time {} us",
            spans[i].name, own[i]
        ));
    }
    let lane0: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.lane == 0)
        .map(|(_, t)| t)
        .sum();
    let root = spans[0].dur_us();
    if (lane0 - root).abs() > SLACK_US * spans.len() as f64 {
        return Err(format!(
            "self times sum to {lane0} us, the root lasts {root} us"
        ));
    }
    Ok(())
}

/// Indices of `root` and every span below it.
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    // Parents precede children, so one forward pass suffices.
    for i in root + 1..spans.len() {
        inside[i] = spans[i].parent.is_some_and(|p| inside[p]);
    }
    (0..spans.len()).filter(|&i| inside[i]).collect()
}

/// Seconds of self time per span name and the sum of every count, over
/// the lane-0 spans listed in `which`.
pub fn totals(
    spans: &[Span],
    which: &[usize],
) -> (BTreeMap<String, f64>, BTreeMap<&'static str, f64>) {
    let own = self_times_us(spans);
    let mut seconds = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for &i in which {
        let span = &spans[i];
        if span.lane == 0 {
            *seconds.entry(span.name.clone()).or_insert(0.0) += own[i] / 1e6;
        }
        for &(key, value) in &span.counts {
            *counts.entry(key).or_insert(0.0) += value;
        }
    }
    (seconds, counts)
}

/// The spans as Chrome trace-event "complete" events: `ts`/`dur` in
/// microseconds, one `tid` per lane, and each event's id, parent, self
/// time and counts under `args`. All events share `pid` 1, the one
/// traced run.
pub fn chrome_events(spans: &[Span]) -> Value {
    let own = self_times_us(spans);
    Value::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let mut args = vec![
                    ("id".to_owned(), Value::from(i)),
                    (
                        "parent".to_owned(),
                        span.parent.map_or(Value::Null, Value::from),
                    ),
                    ("self_us".to_owned(), Value::from(own[i])),
                ];
                args.extend(
                    span.counts
                        .iter()
                        .map(|&(k, v)| (k.to_owned(), Value::from(v))),
                );
                obj([
                    ("name", Value::from(span.name.as_str())),
                    (
                        "cat",
                        Value::from(if span.lane == 0 { "layer" } else { "scheduler" }),
                    ),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(span.start_us)),
                    ("dur", Value::from(span.dur_us())),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(u64::from(span.lane))),
                    ("args", Value::Obj(args)),
                ])
            })
            .collect(),
    )
}
