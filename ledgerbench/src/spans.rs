//! The benchmark's own spans, recorded around its calls into each layer
//! (never inside the program), kept in memory and written out as JSON
//! lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start: Instant,
    end: Instant,
    /// Operations the span covers (1 for a single call).
    n: u64,
}

/// An in-memory span log; a span's id is its index.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        n: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name: name.into(),
            start,
            end,
            n,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span, with its self time (duration
    /// minus the time its child spans cover).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += ns(s.end) - ns(s.start);
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let dur = ns(s.end) - ns(s.start);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"n\": {}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                dur.saturating_sub(child_ns[id]),
                s.n
            )?;
        }
        out.flush()
    }
}
