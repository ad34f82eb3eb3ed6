//! Host-time spans recorded by the benchmark around its calls into each
//! layer of the simulator.
//!
//! A span carries its name (`<layer>.<call>`), start and end (nanoseconds
//! since the log's epoch), its parent span and the point it belongs to.
//! Spans stay in memory until the benchmark ends; a layer's self time is
//! the time its spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use simkernel::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `system.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The point the span belongs to, if any.
    pub point: Option<usize>,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }
}

/// An append-only span log sharing one epoch with the logs it absorbs.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            point,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.spans[id].duration_s()
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, point);
        let r = f();
        self.close(id);
        r
    }

    /// Moves every span of `other` (recorded against the same epoch) into
    /// this log; `other`'s root spans become children of `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: Option<usize>) {
        debug_assert_eq!(self.epoch, other.epoch, "span logs must share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds covered by spans named `name` (0 when there are none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .fold(0.0, |a, b| a + b)
    }

    /// Self seconds per layer: each span's duration minus the union of its
    /// children's intervals (children may overlap when they ran on
    /// different workers), summed by layer.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            *out.entry(s.layer()).or_insert(0.0) += (s.duration_ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array (the `--trace 1` span dump).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        (
                            "point",
                            s.point.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: None,
        }
    }

    fn log(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let l = log(vec![
            span("bench.point", 0, 100, None),
            span("system.run", 10, 70, Some(0)),
            span("workloads.compile", 20, 30, Some(1)),
        ]);
        let s = l.self_s_by_layer();
        assert!((s["bench"] - 40e-9).abs() < 1e-15);
        assert!((s["system"] - 50e-9).abs() < 1e-15);
        assert!((s["workloads"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' spans overlap inside one executor span.
        let l = log(vec![
            span("campaign.executor", 0, 100, None),
            span("system.verify_raw", 0, 60, Some(0)),
            span("system.verify_raw", 40, 90, Some(0)),
        ]);
        let s = l.self_s_by_layer();
        assert!((s["campaign"] - 10e-9).abs() < 1e-15);
        assert!((s["system"] - 110e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut main = SpanLog::new(epoch);
        let root = main.open("campaign.executor", None, None);
        let mut worker = SpanLog::new(epoch);
        let p = worker.open("bench.point", None, Some(3));
        worker.time("system.run", Some(p), Some(3), || ());
        worker.close(p);
        main.absorb(worker, Some(root));
        main.close(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].point, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(main.to_json().as_array().map(<[Json]>::len), Some(3));
    }
}
