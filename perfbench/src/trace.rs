//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the run id. Spans stay in memory
//! while the run measures and are written as JSON lines when it ends; each line also
//! carries the span's self time, its duration minus the time its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Self {
        Self {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        let id = *self.open.last().expect("a count belongs to an open span");
        self.spans[id].counts.push((name, value));
    }

    /// Durations in milliseconds of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Values of the count `name` across all spans, in start order.
    pub fn counts(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .flat_map(|s| s.counts.iter())
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Self time of each span: its duration minus its direct children's durations.
    fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= span.end_ns - span.start_ns;
            }
        }
        self_ns
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            writeln!(
                out,
                "{{\"run\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"counts\": {{{}}}}}",
                self.run,
                span.name,
                span.start_ns,
                span.end_ns,
                counts.join(", ")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(7);
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.count("n", 3);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let self_ns = t.self_ns();
        let duration = |s: &Span| s.end_ns - s.start_ns;
        let (outer, inner) = (duration(&t.spans[0]), duration(&t.spans[1]));
        assert!(inner >= 2_000_000);
        assert_eq!(self_ns, vec![outer - inner, inner]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.counts("n"), vec![3]);
    }
}
