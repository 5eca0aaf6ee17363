//! In-memory spans recorded around the benchmark's calls into each
//! layer, reduced to self times after the run.
//!
//! Spans are opened and closed by the benchmark's own code only; the
//! program under test is not instrumented. Each client thread owns a
//! [`Recorder`], so recording takes no lock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A request span's children must account for its duration within
/// this share, summed over all traced requests; a larger remainder is
/// reported as a finding.
pub const CONSERVATION_TOLERANCE: f64 = 0.01;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `registry.publish`; `request` for a whole request.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A client's span buffer. Recording is switched per request, so one
/// run can alternate traced and untraced requests.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    request: u64,
    root: Option<usize>,
    excluded_ns: u64,
    /// Spans in the order they closed (roots first opened, then filled).
    pub spans: Vec<Span>,
}

/// Prefix of spans that time the benchmark's own checks: they are
/// recorded, but left out of the request's latency.
pub const CHECK_PREFIX: &str = "bench.";

impl Recorder {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            on: false,
            request: 0,
            root: None,
            excluded_ns: 0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open request `request`'s root span when `traced`.
    pub fn begin(&mut self, request: u64, traced: bool) {
        self.on = traced;
        self.excluded_ns = 0;
        self.request = request;
        self.root = traced.then(|| {
            self.spans.push(Span {
                name: "request",
                start: self.now(),
                end: 0,
                parent: None,
                request,
            });
            self.spans.len() - 1
        });
    }

    /// Close the current request's root span, and return the time its
    /// checks took (ns), which the request's latency leaves out.
    pub fn end(&mut self) -> u64 {
        if let Some(root) = self.root.take() {
            self.spans[root].end = self.now();
        }
        self.on = false;
        self.excluded_ns
    }

    /// Run the benchmark's own check `f` inside the current request, as
    /// span `name` (which must start with [`CHECK_PREFIX`]); its time is
    /// excluded from the request's latency, traced or not.
    pub fn check<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(name.starts_with(CHECK_PREFIX));
        let start = self.now();
        let out = self.span(name, f);
        self.excluded_ns += self.now() - start;
        out
    }

    /// Run `f` as a child span `name` of the current request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.root,
            request: self.request,
        });
        out
    }
}

/// Per-name reduction of a span set.
#[derive(Default, Debug)]
pub struct Reduced {
    /// Durations (µs) of every span of each name.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Summed self time (ns) of each name: duration minus children.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Traced requests.
    pub requests: usize,
    /// Summed request duration (ns), checks included.
    pub request_ns: u64,
    /// Summed request self time (ns): what no child span explains.
    pub unexplained_ns: u64,
    /// Requests whose own remainder exceeds the tolerance.
    pub unbalanced_requests: usize,
}

impl Reduced {
    /// Share of traced request time no child span explains.
    pub fn unexplained_share(&self) -> f64 {
        crate::stats::ratio(self.unexplained_ns as f64, self.request_ns as f64)
    }

    /// The conservation check: children add up to their requests
    /// within [`CONSERVATION_TOLERANCE`].
    pub fn conserved(&self) -> bool {
        self.unexplained_share() <= CONSERVATION_TOLERANCE
    }

    /// Durations (µs) of the spans called `name`.
    pub fn us(&self, name: &str) -> &[f64] {
        self.durations_us.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Reduce every client's spans to per-name durations and self times.
pub fn reduce(recorders: &[Vec<Span>]) -> Reduced {
    let mut out = Reduced::default();
    for spans in recorders {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let own = span.ns().saturating_sub(child_ns[i]);
            *out.self_ns.entry(span.name).or_default() += own;
            out.durations_us
                .entry(span.name)
                .or_default()
                .push(span.ns() as f64 / 1e3);
            if span.parent.is_none() {
                out.requests += 1;
                out.request_ns += span.ns();
                out.unexplained_ns += own;
                if own as f64 > CONSERVATION_TOLERANCE * span.ns() as f64 {
                    out.unbalanced_requests += 1;
                }
            }
        }
    }
    out
}

/// Write every span as one tab-separated line:
/// `client request name parent start_ns end_ns`.
pub fn write_spans(path: &Path, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "client\trequest\tname\tparent\tstart_ns\tend_ns")?;
    for (client, spans) in recorders.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{client}\t{}\t{}\t{parent}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_conservation_holds() {
        let mut rec = Recorder::new(Instant::now());
        rec.begin(0, true);
        rec.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.check("bench.c", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(rec.end() >= 1_000_000, "check time not excluded");
        rec.begin(1, false);
        rec.span("a", || ());
        rec.end();
        let reduced = reduce(&[rec.spans]);
        assert_eq!(reduced.requests, 1);
        assert_eq!(reduced.us("a").len(), 1, "untraced request recorded");
        assert!(reduced.conserved(), "{reduced:?}");
        let request = reduced.request_ns;
        let children = reduced.self_ns["a"] + reduced.self_ns["b"] + reduced.self_ns["bench.c"];
        assert_eq!(request - children, reduced.unexplained_ns);
    }

    #[test]
    fn an_unexplained_gap_fails_conservation() {
        let mut rec = Recorder::new(Instant::now());
        rec.begin(0, true);
        rec.span("a", || ());
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end();
        let reduced = reduce(&[rec.spans]);
        assert!(!reduced.conserved());
        assert_eq!(reduced.unbalanced_requests, 1);
    }
}
