//! Spans recorded from outside the toolchain's public calls.
//!
//! A [`Tracer`] wraps each call into a layer in a span (name, job,
//! start, end, parent) kept in memory; the spans are written out when
//! the run ends. A layer's self time is its span's duration minus the
//! durations of its child spans. A disabled tracer runs the wrapped
//! call and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `crate.function`.
    pub name: &'static str,
    /// The job the call belongs to.
    pub job: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

impl Tracer {
    /// A tracer, recording only while enabled.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Turns recording on or off between jobs.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// The position the next span will take, for [`Tracer::self_ms`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in milliseconds per span name, over the spans recorded
    /// since `mark`.
    pub fn self_ms(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut self_ns: Vec<i64> = spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in spans {
            if let Some(p) = s.parent.map(|p| p as usize).filter(|&p| p >= mark) {
                self_ns[p - mark] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Summed duration in milliseconds of the spans named `name`
    /// recorded since `mark`, children included.
    pub fn total_ms(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// All spans as JSON, compactly: `"span_names"` lists the names,
    /// and `"spans"` has one `[name index, job, start_ns, end_ns,
    /// parent index or -1]` per span, a span's index being its
    /// position.
    pub fn spans_json(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut rows = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, i64::from);
            rows.push(format!(
                "[{name},{},{},{},{parent}]",
                s.job, s.start_ns, s.end_ns
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!(
            "\"span_names\": [{}],\n\"spans\": [\n{}\n]",
            names.join(", "),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let ms = tr.self_ms(0);
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(ms["inner"] >= 4.0);
        assert!(ms["outer"] >= 2.0);
        assert!((ms["outer"] - (dur(&tr.spans[0]) - dur(&tr.spans[1]))).abs() < 1e-9);
    }

    #[test]
    fn spans_json_is_compact_and_indexed() {
        let mut tr = Tracer::new(true);
        tr.set_job(3);
        tr.span("a", |tr| tr.span("b", |_| ()));
        let json = tr.spans_json();
        assert!(json.starts_with("\"span_names\": [\"a\", \"b\"]"));
        assert!(json.contains(",-1]") && json.ends_with(",0]\n]"));
        assert!(json.contains("[0,3,") && json.contains("[1,3,"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert_eq!(tr.mark(), 0);
    }
}
