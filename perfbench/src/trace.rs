//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in this benchmark's own code, around calls into
//! a layer's public functions; nothing is added inside the program. Each
//! span has a name, a start, an end and a parent. They stay in memory and
//! are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `routesim.engine.run`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans while enabled; a disabled tracer only runs the
/// wrapped closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: crate::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// covered by its child spans.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Whether span `id` lies under span `root` (or is it).
    fn within(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// For every root span called `root`, the summed seconds of the spans
    /// called `name` beneath it (the root itself included), in root order.
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for (r, span) in self.spans.iter().enumerate() {
            if span.parent.is_some() || span.name != root {
                continue;
            }
            let total: Duration = self
                .spans
                .iter()
                .enumerate()
                .skip(r)
                .take_while(|(_, s)| s.start <= span.end)
                .filter(|(i, s)| s.name == name && self.within(*i, r))
                .map(|(_, s)| s.duration())
                .sum();
            out.push(total.as_secs_f64());
        }
        out
    }

    /// For every root span called `root`, the self time of the root.
    pub fn root_self(&self, root: &str) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.parent.is_none() && s.name == root)
            .map(|(_, d)| d.as_secs_f64())
            .collect()
    }

    /// The spans as JSON lines: `id`, `name`, `parent`, `start_s`, `end_s`
    /// and `self_s`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                own.as_secs_f64()
            );
        }
        out
    }

    /// Per span name: occurrences, total seconds and total self seconds,
    /// in order of first appearance.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => r,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.duration().as_secs_f64();
            row.3 += own.as_secs_f64();
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = crate::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let mut tr = Tracer::new(true);
        tr.span("op", |tr| {
            spin(Duration::from_millis(2));
            tr.span("child", |_| spin(Duration::from_millis(3)));
            tr.span("child", |_| spin(Duration::from_millis(3)));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = tr.self_times();
        let op = spans[0].duration();
        let kids = spans[1].duration() + spans[2].duration();
        assert_eq!(selfs[0], op - kids);
        assert_eq!(selfs[1], spans[1].duration());
        let per = tr.per_root("op", "child");
        assert_eq!(per.len(), 1);
        assert!((per[0] - kids.as_secs_f64()).abs() < 1e-9);
        assert_eq!(tr.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("op", |tr| tr.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
