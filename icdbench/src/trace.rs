//! In-memory spans: name, start, end and parent, recorded around calls
//! into each layer and written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`logic.map`).
    pub name: &'static str,
    /// 1-based id.
    pub id: u32,
    /// Id of the enclosing span (0: a root span).
    pub parent: u32,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start = self.now();
        self.spans.push(Span {
            name,
            id: self.spans.len() as u32 + 1,
            parent,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (ids are renumbered).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: if s.parent == 0 { 0 } else { s.parent + offset },
            start: s.start + shift,
            end: s.end + shift,
            ..s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time
    /// its direct children cover, summed over the spans of one name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_time[s.parent as usize - 1] += s.nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0) += s.nanos().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as tab-separated `id parent name start end`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}
