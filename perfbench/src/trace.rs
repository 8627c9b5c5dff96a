//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer's public functions. Nothing is added inside the
//! program under test.
//!
//! A [`Tracer`] belongs to one thread. Spans keep their name, start and
//! end (ns since a shared base instant), the index of the span that
//! caused them, and the app or request id they belong to. Tracers from
//! several threads are merged at the end of a run and written out once.
//! An untraced run uses a disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`policy.analyze`, `serve.keepalive`, ...).
    pub name: &'static str,
    /// The app index or request sequence number the span belongs to.
    pub id: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's base instant.
    pub start_ns: u64,
    /// End, in ns since the tracer's base instant.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Disabled tracers are free to call.
#[derive(Debug, Clone)]
pub struct Tracer {
    base: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, for use as a parent.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

impl Tracer {
    /// A tracer measuring from `base`; records only when `enabled`.
    pub fn new(base: Instant, enabled: bool) -> Self {
        Tracer { base, enabled, spans: Vec::new() }
    }

    /// The instant span times are measured from; tracers on other
    /// threads share it so their spans merge onto one timeline.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Whether this tracer records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span now.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end_ns = self.ns(Instant::now());
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Records a span whose bounds were taken elsewhere (for example on
    /// another thread, as with an app's time in the engine).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let span = Span { name, id, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
        Open(Some(self.spans.len() - 1))
    }

    /// Appends another tracer's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the durations of its direct children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0.0) +=
                span.dur_ns().saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// Writes the spans as a JSON array to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let base = Instant::now();
        let mut t = Tracer::new(base, true);
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("app", 1, None, at(0), at(10)).index();
        t.record("policy.analyze", 1, root, at(1), at(5));
        t.record("desc.analyze", 1, root, at(5), at(8));
        let selfs = t.self_seconds();
        assert!((selfs["app"] - 0.003).abs() < 1e-9);
        assert!((selfs["policy.analyze"] - 0.004).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let open = t.begin("x", 0, None);
        t.end(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let base = Instant::now();
        let mut a = Tracer::new(base, true);
        a.begin("a", 0, None);
        let mut b = Tracer::new(base, true);
        let p = b.begin("b", 0, None).index();
        b.begin("c", 0, p);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
