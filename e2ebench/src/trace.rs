//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, the span open around it when
//! it started (its parent) and the request it serves (a burst, a
//! query, a crawl cycle). Spans stay in memory until the run ends and
//! are then written out one per line. A layer's self time is its
//! spans' durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals: spans recorded, summed duration, summed self time.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns
    /// its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
        (end - self.spans[id].start_ns) as f64
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, request);
        let out = f();
        (out, self.close(id))
    }

    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_insert(SelfTime {
                name: span.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered);
        }
        by_name.into_values().collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns` (`-` for no parent).
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
