//! Spans recorded from the benchmark's own code around each call into a
//! crate's public functions.
//!
//! A span has a name (`<layer>.<call>`, the layer being the crate the
//! call enters), a start, an end, the span that caused it, and the step it
//! belongs to. Spans stay in memory while a pass runs; [`Agg::absorb`]
//! folds them into per-layer totals afterwards, and the first traced pass
//! is written out as TSV at the end of the run. With tracing off,
//! [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<u32>,
    /// Closed-loop step the span belongs to.
    pub step: u32,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the call enters: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a pass-through.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), step: 0 }
    }

    /// Turns recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with closed-loop step `step`.
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns its index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: self.step });
        self.open.push(idx);
        idx
    }

    /// Closes the span `begin` opened.
    pub fn end(&mut self, idx: u32) {
        if idx == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
        self.open.pop();
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.begin(name);
        let r = f();
        self.end(idx);
        r
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands over the recorded spans, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name totals across absorbed passes.
#[derive(Debug, Default, Clone)]
pub struct NameAgg {
    /// Summed duration.
    pub total_ns: u64,
    /// Calls.
    pub count: u64,
    /// Median call duration of each absorbed batch of spans.
    pub p50s_ns: Vec<f64>,
}

/// Span totals folded from one or more passes.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Per span name.
    pub by_name: BTreeMap<&'static str, NameAgg>,
    /// Self time per layer: each span's duration minus its children's.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the `step` root spans.
    pub step_ns: u64,
    /// Part of `step_ns` covered by the steps' child spans.
    pub step_covered_ns: u64,
}

impl Agg {
    /// Folds one batch of spans in.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| child_ns.get_mut(p as usize)) {
                *p += s.dur_ns();
            }
        }
        let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, &kids) in spans.iter().zip(&child_ns) {
            let d = s.dur_ns();
            *self.self_ns.entry(s.layer()).or_default() += d.saturating_sub(kids);
            durs.entry(s.name).or_default().push(d);
            if s.name == "step" {
                self.step_ns += d;
                self.step_covered_ns += kids.min(d);
            }
        }
        for (name, mut d) in durs {
            let agg = self.by_name.entry(name).or_default();
            agg.total_ns += d.iter().sum::<u64>();
            agg.count += d.len() as u64;
            d.sort_unstable();
            agg.p50s_ns.push(crate::measure::quantile_sorted(&d, 0.5));
        }
    }

    /// Summed time in spans named `name` (ns).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |a| a.total_ns)
    }

    /// Median over batches of the per-batch median duration of `name` (ns).
    pub fn p50_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |a| crate::measure::median(&a.p50s_ns))
    }
}

/// Renders spans as TSV: `index name start_ns end_ns parent step`, parent
/// `-` for roots.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tstep\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ =
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { name: "step", start_ns: 0, end_ns: 100, parent: None, step: 0 },
            Span { name: "core.post", start_ns: 10, end_ns: 40, parent: Some(0), step: 0 },
            Span { name: "core.drain", start_ns: 40, end_ns: 90, parent: Some(0), step: 0 },
        ];
        let mut agg = Agg::default();
        agg.absorb(&spans);
        assert_eq!(agg.self_ns["step"], 20);
        assert_eq!(agg.self_ns["core"], 80);
        assert_eq!((agg.step_ns, agg.step_covered_ns), (100, 80));
        assert_eq!(agg.total_ns("core.post"), 30);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.post", || 7), 7);
        assert!(t.take().is_empty());
    }
}
