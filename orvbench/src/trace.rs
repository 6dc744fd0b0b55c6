//! The benchmark's own spans: one per call into a layer's public
//! function, kept in memory and written out as JSON lines when the traced
//! run ends. Spans live in the benchmark, not in the program: the layers
//! are measured from outside.

use crate::alloc;
use orv_obs::{obj, JsonValue};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Allocation calls made inside the span, by any thread.
    allocs: u64,
}

/// What one finished span measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    pub secs: f64,
    pub allocs: u64,
}

impl std::iter::Sum for Measured {
    fn sum<I: Iterator<Item = Measured>>(iter: I) -> Self {
        iter.fold(Measured::default(), |a, b| Measured {
            secs: a.secs + b.secs,
            allocs: a.allocs + b.allocs,
        })
    }
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the span open around
    /// this call.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Measured) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs: 0,
        });
        self.open.push(idx);
        let allocs_before = alloc::count();
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        let allocs = alloc::count() - allocs_before;
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        span.allocs = allocs;
        (
            out,
            Measured {
                secs: (end - start).as_secs_f64(),
                allocs,
            },
        )
    }

    /// One JSON object per span: `{id, name, start_ns, end_ns, parent,
    /// workload, allocs}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", id.into()),
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(JsonValue::Null, Into::into)),
                ("workload", self.workload.as_str().into()),
                ("allocs", s.allocs.into()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
