//! The benchmark's own span recorder and job clock.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Rec::call`]. Untraced, a call is a plain function call: the
//! job clock is one `Instant` pair around the whole job, minus the time
//! spent in [`Rec::untimed`] sections (input generation and output
//! checks). Traced, each call also records a span named for its layer,
//! parented to the job span, in memory; the spans are written out when
//! the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span (nanoseconds since the recorder's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Rec {
    traced: bool,
    epoch: Instant,
    next_id: u64,
    parent: u64,
    excluded: Duration,
    pub spans: Vec<Span>,
}

impl Rec {
    pub fn new(traced: bool) -> Self {
        Rec {
            traced,
            epoch: Instant::now(),
            next_id: 1,
            parent: 0,
            excluded: Duration::ZERO,
            spans: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Calls into one layer. Traced, the call gets a span named `layer`.
    pub fn call<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.push(layer, self.parent, start, end);
        r
    }

    /// Work outside the timed window: generating inputs and checking
    /// outputs. Its duration is subtracted from the job's time, and the
    /// program's collector is paused so that its counters describe only
    /// the timed calls.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let collecting = hetero_obs::enabled();
        if collecting {
            hetero_obs::disable();
        }
        let r = f();
        if collecting {
            hetero_obs::enable();
        }
        self.excluded += start.elapsed();
        r
    }

    /// Runs one job and returns its result with its timed duration
    /// (wall time minus untimed sections). Traced, the job gets a span
    /// named `job` covering only its timed part's wall interval.
    pub fn job<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, Duration) {
        self.excluded = Duration::ZERO;
        let job_id = self.next_id;
        self.next_id += 1;
        self.parent = job_id;
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.parent = 0;
        let timed = end.duration_since(start).saturating_sub(self.excluded);
        if self.traced {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id: job_id,
                parent: 0,
                name: "job",
                start_ns,
                end_ns,
            });
        }
        (r, timed)
    }

    /// Seconds per layer summed over every recorded span of that name.
    pub fn busy_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for s in &self.spans {
            if s.name != "job" {
                *busy.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        busy
    }

    /// Spans as JSON lines (`id`, `parent`, `name`, `start_ns`, `end_ns`).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
