//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is one call (or, for calls too frequent to record one by one, a
//! summary of many: `calls` > 1 and a duration equal to their summed time,
//! placed at the end of the parent's interval). Spans stay in memory and
//! are written out once, when the run ends. Nothing inside the program is
//! instrumented: every span wraps a public entry point.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `seed.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start: u64,
    /// End, nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The job the span belongs to (index into [`Tracer::jobs`]).
    pub job: u32,
    /// Calls the span covers (1 unless it summarises many).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Which part of the traced run a job belongs to. Only [`Group::Replay`]
/// jobs make up a workload's layer table; the others measure single layers
/// the table would otherwise lack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// Loading the inputs into the program's stores.
    Setup,
    /// Sequential replay of the workload's own jobs.
    Replay,
    /// Seed construction over a store the workload's jobs do not use.
    Probe,
    /// Parallel engine calls.
    Engine,
    /// Client-side spans of service jobs.
    Service,
}

impl Group {
    /// Label in the span file and the report.
    pub fn label(self) -> &'static str {
        match self {
            Group::Setup => "setup",
            Group::Replay => "replay",
            Group::Probe => "probe",
            Group::Engine => "engine",
            Group::Service => "service",
        }
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    t0: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// `(label, group)` of each job.
    pub jobs: Vec<(String, Group)>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            jobs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new job; later spans belong to it.
    pub fn job(&mut self, label: String, group: Group) {
        assert!(self.stack.is_empty(), "a job starts outside every span");
        self.jobs.push((label, group));
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            job: self.jobs.len().saturating_sub(1) as u32,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, adding one
    /// summary child per `(name, calls, nanos)` entry with `calls > 0`.
    pub fn close(&mut self, id: u32, summaries: &[(&'static str, u64, u64)]) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let (start, job) = {
            let s = &mut self.spans[id as usize];
            s.end = end;
            (s.start, s.job)
        };
        for &(name, calls, nanos) in summaries.iter().filter(|s| s.1 > 0) {
            self.spans.push(Span {
                name,
                start: end - nanos.min(end - start),
                end,
                parent: id,
                job,
                calls,
            });
        }
    }

    /// Records an already-timed call as a closed span under the innermost
    /// open one (the service client's own timestamps of a job's phases).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start, end) = (rel(start), rel(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            job: self.jobs.len().saturating_sub(1) as u32,
            calls: 1,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Per-name totals of the spans in `group`: `(spans, calls, self ns)`.
    pub fn table(&self, group: Group) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if self.jobs[s.job as usize].1 != group {
                continue;
            }
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.calls;
            row.2 += own;
        }
        rows
    }

    /// Summed self seconds of spans named `name` in `group`.
    pub fn self_s(&self, group: Group, name: &str) -> f64 {
        self.table(group)
            .get(name)
            .map_or(0.0, |r| r.2 as f64 / 1e9)
    }

    /// Summed calls of spans named `name` in `group`.
    pub fn calls(&self, group: Group, name: &str) -> u64 {
        self.table(group).get(name).map_or(0, |r| r.1)
    }

    /// Renders the layer table of `group`: self time and counts per span
    /// name, largest self time first, with each row's share of the group.
    pub fn render_table(&self, group: Group) -> String {
        let rows = self.table(group);
        let total: u64 = rows.values().map(|r| r.2).sum();
        let mut sorted: Vec<_> = rows.into_iter().collect();
        sorted.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
        let mut out = format!(
            "layer table ({}): {:<16} {:>10} {:>12} {:>12} {:>7}\n",
            group.label(),
            "span",
            "spans",
            "calls",
            "self_s",
            "share"
        );
        for (name, (spans, calls, own)) in sorted {
            out.push_str(&format!(
                "layer table ({}): {:<16} {:>10} {:>12} {:>12.6} {:>6.2}%\n",
                group.label(),
                name,
                spans,
                calls,
                own as f64 / 1e9,
                100.0 * own as f64 / total.max(1) as f64
            ));
        }
        out
    }

    /// Writes every span as a tab-separated file, after a `#` header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\tjob\tgroup\tcalls")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let (label, group) = &self.jobs[s.job as usize];
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{label}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                group.label(),
                s.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_summaries() {
        let mut t = Tracer::new();
        t.job("j".into(), Group::Replay);
        let outer = t.open("outer");
        let inner = t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner, &[("leaf", 10, 1_000_000)]);
        t.close(outer, &[]);
        let own = t.self_times();
        let leaf = t.spans.iter().position(|s| s.name == "leaf").unwrap();
        assert_eq!(t.spans[leaf].parent, inner);
        assert_eq!(t.spans[leaf].dur(), 1_000_000);
        assert_eq!(
            own[inner as usize] + 1_000_000,
            t.spans[inner as usize].dur()
        );
        assert!(own[outer as usize] <= t.spans[outer as usize].dur());
        assert_eq!(t.calls(Group::Replay, "leaf"), 10);
    }
}
