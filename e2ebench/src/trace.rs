//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the crates is instrumented. A disabled
//! tracer records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Index of a recorded span; `None` marks a root.
pub type SpanId = Option<usize>;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub rep: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    // lint: timing-carrier -- spans time the benchmark's calls; no simulated statistic reads them
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorded spans; a panic in a traced worker leaves them readable.
    fn recorded(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent nested spans. Callable from worker threads.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        rep: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.recorded();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                rep,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        if let Some(span) = self.recorded().get_mut(id) {
            span.end_ns = end_ns;
        }
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.recorded().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// the union of its children's intervals covers (children may overlap when
/// they run on parallel workers).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

/// Total duration of the spans named `name` in each repetition, in
/// milliseconds.
pub fn ms_by_rep(spans: &[Span], name: &str) -> BTreeMap<u32, f64> {
    let mut by_rep = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_rep.entry(s.rep).or_insert(0.0) += s.ns() as f64 / 1e6;
    }
    by_rep
}

/// Mean over repetitions of [`ms_by_rep`]; 0 when no such span exists.
pub fn per_rep_ms(spans: &[Span], name: &str) -> f64 {
    let by_rep = ms_by_rep(spans, name);
    if by_rep.is_empty() {
        return 0.0;
    }
    by_rep.values().sum::<f64>() / by_rep.len() as f64
}

/// Spans as a JSON array (one object per span, with its self time).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}",
            s.name,
            s.rep,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 120, Some(0)),
        ];
        // Children cover [10, 70) and [90, 100) of the parent: 70 ns.
        assert_eq!(self_times(&spans), vec![30, 40, 40, 30]);
    }
}
