//! Harness-side spans: the benchmark wraps each call into a layer's
//! public functions, keeps the spans in memory, and writes them out
//! when the workload ends. Nothing inside the program is touched.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one workload's traced pass.
pub struct Tracer {
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` may open child spans
    /// on the tracer it is handed.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span with no children: times exactly the call `f`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed duration of spans whose name starts with `prefix` and
    /// whose ancestry includes a span called `under`.
    pub fn total_under_s(&self, under: &str, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix) && self.has_ancestor(s, under))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    fn has_ancestor(&self, s: &Span, name: &str) -> bool {
        let mut cur = s.parent;
        while let Some(p) = cur {
            if self.spans[p].name == name {
                return true;
            }
            cur = self.spans[p].parent;
        }
        false
    }

    /// Per span, its duration minus the part its direct children
    /// cover. Children run one after another on one thread, so their
    /// durations add without overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of the traced pass — first span start to last span end —
    /// that top-level spans cover.
    pub fn coverage(&self) -> f64 {
        let tops = || self.spans.iter().filter(|s| s.parent.is_none());
        let (Some(first), Some(last)) = (
            tops().map(|s| s.start_ns).min(),
            tops().map(|s| s.end_ns).max(),
        ) else {
            return 0.0;
        };
        let covered: u64 = tops().map(Span::dur_ns).sum();
        covered as f64 / (last - first).max(1) as f64
    }

    /// Writes one JSON object per span: `id, name, start_ns, end_ns,
    /// self_ns, parent, workload`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[id],
                self.workload,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("test");
        t.span("outer", |t| {
            t.leaf("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf("inner", || ());
        });
        let outer = &t.spans()[0];
        assert_eq!(outer.parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans().len(), 3);
        let inner: u64 = t.spans()[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(t.self_ns()[0], outer.dur_ns() - inner);
        assert_eq!(t.self_ns()[1], t.spans()[1].dur_ns());
        assert!(t.total_under_s("outer", "inn") >= 0.002);
        assert_eq!(t.total_under_s("nothing", "inn"), 0.0);
        assert!(t.coverage() > 0.99);
    }
}
