//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions — nothing inside the library is
//! instrumented. Each span keeps its name, start, end, parent and the
//! request it belongs to; spans stay in memory and are written out once,
//! when the run ends. A span's self time is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time per span, ns.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// In-memory span recorder; spans nest through [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for `request`; spans opened before the
    /// matching [`Tracer::end`] become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Records a span around `f`; spans `f` opens on the tracer it is
    /// handed become this span's children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The self-time table, most expensive first.
    pub fn report(&self) -> String {
        let mut rows: Vec<(&'static str, SpanTotals)> = self.totals().into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        let mut out = format!(
            "{:<24} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "mean ns", "self ns", "self total ms"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12.0} {:>12.0} {:>12.3}\n",
                name,
                t.count,
                t.mean_ns(),
                t.mean_self_ns(),
                t.self_ns as f64 / 1e6
            ));
        }
        out
    }

    /// Writes every span as a tab-separated line: id, parent (-1 for a
    /// root), request, name, start ns, end ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("root", 0, |tr| {
            tr.span("child", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("child", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = tr.totals();
        assert_eq!(t["root"].count, 1);
        assert_eq!(t["child"].count, 2);
        assert!(t["root"].total_ns >= t["child"].total_ns);
        assert_eq!(t["root"].self_ns, t["root"].total_ns - t["child"].total_ns);
        assert_eq!(t["child"].self_ns, t["child"].total_ns);
    }
}
