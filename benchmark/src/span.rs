//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer, and the per-layer arithmetic on them.
//!
//! One [`Recorder`] per worker thread, so recording never contends; the
//! workers' span lists are concatenated once the traced loop has ended.

use std::time::Instant;

/// Name of the span that wraps one whole worker-step.
pub const STEP: &str = "core.step";

/// One timed interval. `parent` indexes the same recorder's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub worker: usize,
    pub step: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token for an open span; `None` while recording is off.
pub struct Open(Option<usize>);

/// A worker thread's span list. Recording can be switched per epoch, so
/// traced and untraced epochs of one loop alternate in one process and
/// their difference is the tracing overhead.
pub struct Recorder {
    origin: Instant,
    worker: usize,
    step: usize,
    pub enabled: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, worker: usize) -> Self {
        Self {
            origin,
            worker,
            step: 0,
            enabled: false,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Label the spans that follow with worker-step `step`.
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            worker: self.worker,
            step: self.step,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the span `open` names; spans close in the order they nest.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// of that interval its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// What one worker's spans say about its steps.
pub struct StepTable {
    /// Duration of each step's root span, ms.
    pub step_ms: Vec<f64>,
    /// Per layer name: self time summed over the name's spans within
    /// each step, ms — one entry per step, 0 where the name is absent
    /// (so the median of a layer used in 3 of 4 steps says so).
    pub layers: Vec<(&'static str, Vec<f64>)>,
}

impl StepTable {
    /// Build from one recorder's spans. Spans outside a step root (there
    /// are none today) would be ignored.
    pub fn new(spans: &[Span]) -> Self {
        let own = self_ns(spans);
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == STEP && spans[i].parent.is_none())
            .collect();
        let mut slot = vec![usize::MAX; spans.len()];
        for (row, &r) in roots.iter().enumerate() {
            slot[r] = row;
        }
        let mut layers: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so the root's row is known.
            if let Some(p) = s.parent {
                slot[i] = slot[p];
            }
            if slot[i] == usize::MAX {
                continue;
            }
            let col = match layers.iter().position(|(n, _)| *n == s.name) {
                Some(c) => c,
                None => {
                    layers.push((s.name, vec![0.0; roots.len()]));
                    layers.len() - 1
                }
            };
            layers[col].1[slot[i]] += own[i] as f64 / 1e6;
        }
        Self {
            step_ms: roots
                .iter()
                .map(|&r| spans[r].dur_ns() as f64 / 1e6)
                .collect(),
            layers,
        }
    }

    /// Append another worker's steps.
    pub fn merge(&mut self, other: StepTable) {
        let before = self.step_ms.len();
        self.step_ms.extend(&other.step_ms);
        for (name, col) in other.layers {
            match self.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => mine.extend(col),
                None => {
                    let mut full = vec![0.0; before];
                    full.extend(col);
                    self.layers.push((name, full));
                }
            }
        }
        let after = self.step_ms.len();
        for (_, col) in &mut self.layers {
            col.resize(after, 0.0);
        }
    }

    /// Per-step self times of `name`, ms (empty if never recorded).
    pub fn layer(&self, name: &str) -> &[f64] {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, c)| c.as_slice())
    }

    /// Total self time of `name` over all steps, ms.
    pub fn total(&self, name: &str) -> f64 {
        self.layer(name).iter().sum()
    }

    /// Share of all step time that no layer span accounts for: the step
    /// roots' own self time over their duration.
    pub fn unattributed_share(&self) -> f64 {
        let all: f64 = self.step_ms.iter().sum();
        if all == 0.0 {
            return 0.0;
        }
        self.total(STEP) / all
    }

    /// Share of all step time spent in the spans named by `names`.
    pub fn share(&self, names: &[&str]) -> f64 {
        let all: f64 = self.step_ms.iter().sum();
        if all == 0.0 {
            return 0.0;
        }
        names.iter().map(|n| self.total(n)).sum::<f64>() / all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, step: usize) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            worker: 0,
            step,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(STEP, 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("a.inner", 20, 30, Some(1), 0),
            // Adjacent to `a`: starts exactly where it ends.
            span("b", 40, 90, Some(0), 0),
        ];
        // root: 100 − 30 − 50; a: 30 − 10; grandchild counts once, under a.
        assert_eq!(self_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span(STEP, 10, 50, None, 0),
            span("late", 40, 70, Some(0), 0),
        ];
        assert_eq!(self_ns(&spans), vec![30, 30]);
    }

    #[test]
    fn step_table_sums_a_layer_per_step_and_pads_absent_layers() {
        let ms = 1_000_000;
        let spans = vec![
            span(STEP, 0, 10 * ms, None, 0),
            span("x", 0, 2 * ms, Some(0), 0),
            span("x", 2 * ms, 5 * ms, Some(0), 0),
            span(STEP, 10 * ms, 30 * ms, None, 1),
            span("y", 10 * ms, 26 * ms, Some(3), 1),
        ];
        let t = StepTable::new(&spans);
        assert_eq!(t.step_ms, vec![10.0, 20.0]);
        assert_eq!(t.layer("x"), &[5.0, 0.0]);
        assert_eq!(t.layer("y"), &[0.0, 16.0]);
        assert_eq!(t.layer("absent"), &[] as &[f64]);
        // Roots keep 5 and 4 ms of 30.
        assert!((t.unattributed_share() - 0.3).abs() < 1e-12);
        assert!((t.share(&["x", "y"]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn merge_keeps_columns_aligned_across_workers() {
        let ms = 1_000_000;
        let mut a = StepTable::new(&[span(STEP, 0, 4 * ms, None, 0), span("x", 0, ms, Some(0), 0)]);
        let b = StepTable::new(&[
            span(STEP, 0, 6 * ms, None, 0),
            span("y", 0, 2 * ms, Some(0), 0),
        ]);
        a.merge(b);
        assert_eq!(a.step_ms, vec![4.0, 6.0]);
        assert_eq!(a.layer("x"), &[1.0, 0.0]);
        assert_eq!(a.layer("y"), &[0.0, 2.0]);
        assert_eq!(a.layer(STEP), &[3.0, 4.0]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0);
        let o = r.enter(STEP);
        r.exit(o);
        r.enabled = true;
        let o = r.enter(STEP);
        let i = r.enter("inner");
        r.exit(i);
        r.exit(o);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
