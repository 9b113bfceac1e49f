//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One monotonic clock, spans kept in memory and written to
//! `trace.json` when the workload ends. Spans of one operation share
//! `req`; a layer's self time is its span minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation (request, iteration, sweep, step) this span is part of.
    pub req: u32,
    /// The crate the call went into.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        parent: Option<u32>,
        req: u32,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Opens a span that [`Trace::close`] ends: for a parent whose
    /// children are recorded while it runs.
    pub fn open(
        &mut self,
        parent: Option<u32>,
        req: u32,
        layer: &'static str,
        name: &'static str,
    ) -> u32 {
        let now = self.now_ns();
        self.push(parent, req, layer, name, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a new span.
    pub fn time<T>(
        &mut self,
        parent: Option<u32>,
        req: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(parent, req, layer, name, start, end);
        out
    }

    /// Lays `durations_s` end to end from `start_ns` as children of
    /// `parent`: for a callee that reports durations, not timestamps.
    /// Returns where the last one ends.
    pub fn push_sequence(
        &mut self,
        parent: u32,
        req: u32,
        layer: &'static str,
        start_ns: u64,
        durations_s: &[(&'static str, f64)],
    ) -> u64 {
        let mut at = start_ns;
        for &(name, s) in durations_s {
            let end = at + (s.max(0.0) * 1e9) as u64;
            self.push(Some(parent), req, layer, name, at, end);
            at = end;
        }
        at
    }

    /// Takes over the spans another thread recorded on the same clock.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Seconds spent in spans `(layer, name)`, summed per operation, one
    /// entry per operation that has such a span.
    pub fn per_req_s(&self, layer: &str, name: &str) -> Vec<f64> {
        let mut by_req: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.layer == layer && s.name == name {
                *by_req.entry(s.req).or_default() += s.end_ns - s.start_ns;
            }
        }
        by_req.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Self seconds of spans `(layer, name)`, summed per operation.
    pub fn per_req_self_s(&self, layer: &str, name: &str) -> Vec<f64> {
        let selfs = self_ns(&self.spans);
        let mut by_req: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.layer == layer && s.name == name {
                *by_req.entry(s.req).or_default() += own;
            }
        }
        by_req.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Total self seconds per layer, over the whole trace.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns(&self.spans)) {
            *out.entry(s.layer).or_default() += own as f64 / 1e9;
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since the traced segment began\", \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"req\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.req,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
pub fn spanned<T>(
    trace: &mut Option<&mut Trace>,
    parent: Option<u32>,
    req: u32,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => t.time(parent, req, layer, name, f),
        None => f(),
    }
}

/// Self time of every span, in `spans` order: its duration minus the
/// part of its interval that its children cover (overlapping children
/// count once; a child reaching outside its parent is clipped).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(Instant::now())
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = trace();
        let root = t.push(None, 0, "bench", "request", 0, 100);
        let a = t.push(Some(root), 0, "serve", "a", 10, 40);
        t.push(Some(root), 0, "serve", "b", 30, 60); // overlaps a by 10
        t.push(Some(a), 0, "engine", "leaf", 15, 25);
        t.push(Some(root), 0, "serve", "outside", 90, 130); // clipped to 90..100
        let own = self_ns(&t.spans);
        assert_eq!(own, vec![100 - 50 - 10, 30 - 10, 30, 10, 40]);
        let by_layer = t.self_s_by_layer();
        assert!((by_layer["bench"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["serve"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn sequences_lay_durations_end_to_end() {
        let mut t = trace();
        let root = t.push(None, 3, "bench", "sample", 1000, 5000);
        let end = t.push_sequence(root, 3, "engine", 1000, &[("qkv", 1e-6), ("fc1", 2e-6)]);
        assert_eq!(end, 4000);
        assert_eq!(self_ns(&t.spans)[0], 1000);
        assert_eq!(t.per_req_s("engine", "fc1"), vec![2e-6]);
        assert_eq!(t.per_req_self_s("bench", "sample"), vec![1e-6]);
    }

    #[test]
    fn absorbed_spans_keep_their_tree() {
        let mut main = trace();
        main.push(None, 0, "bench", "request", 0, 10);
        let mut other = Trace::new(main.epoch());
        let r = other.push(None, 1, "bench", "request", 5, 50);
        other.push(Some(r), 1, "transport", "round_trip", 10, 40);
        main.absorb(other);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].id, 2);
        assert_eq!(self_ns(&main.spans), vec![10, 15, 30]);
    }
}
