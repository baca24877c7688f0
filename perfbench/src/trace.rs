//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the simulator itself is not instrumented). Each span carries a name
//! whose first dotted component is its layer, a start and end relative to
//! the recorder's creation, and its parent's id; the spans of one driven
//! connection also share a flow id. They stay in memory until the run
//! ends and are then written out as JSON.

use metrics::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u32,
    /// Enclosing span's id, or 0 at the root.
    pub parent: u32,
    /// `layer.what`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Driven connection the span belongs to, if any.
    pub flow: Option<u64>,
}

impl Span {
    /// The layer the span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: a stack of open spans over a flat list of closed ones.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>, flow: Option<u64>) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            flow,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its value and duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        self.begin(name, None);
        let v = f(self);
        let s = self.end();
        (v, s)
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = s.duration_ns().saturating_sub(kids);
            *by_layer.entry(s.layer().to_string()).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    /// The spans and the per-layer self times as one JSON document.
    pub fn to_json(&self, header: Json) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut j = Json::obj()
                    .field("id", u64::from(s.id))
                    .field("parent", u64::from(s.parent))
                    .field("name", s.name.as_str())
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns);
                if let Some(f) = s.flow {
                    j = j.field("flow", f);
                }
                j
            })
            .collect();
        let mut self_time = Json::obj();
        for (layer, secs) in self.self_time_by_layer() {
            self_time = self_time.field(&layer, secs);
        }
        header
            .field("self_time_s", self_time)
            .field("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut t = Trace::new();
        t.begin("app.run", None);
        t.begin("sim.child", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].flow, Some(7));
        let by = t.self_time_by_layer();
        assert!(by["sim"] >= 0.002);
        assert!(by["app"] < by["sim"]);
    }
}
