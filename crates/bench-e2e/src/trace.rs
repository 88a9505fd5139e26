//! In-memory span recorder for the traced pass. Spans are recorded from
//! the benchmark's own files, around each call into a layer's public
//! function (spans inside the library are ROADMAP item 3), kept in memory
//! and written out once at exit.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one operation share this id (0 = not part of an op).
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Disabled tracers record nothing: the end-to-end pass runs the same
/// code with `Tracer::off()`.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            op_id,
        });
        Some(self.spans.len() as u32 - 1)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` — one clock pair — and, when tracing is on, record it as
    /// a leaf span with those same timestamps. Returns `f`'s result and
    /// its duration in nanoseconds.
    #[inline]
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
                op_id,
            });
        }
        (out, (end_ns - start_ns) as f64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover (children never overlap: one recording thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// One JSON object per line: `{name, parent, start_ns, end_ns,
    /// workload, op_id}`.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\",\"op_id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op_id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::on();
        let root = t.begin("root", None, 1);
        let ((), ns) = t.leaf("child", root, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert_eq!(ns, t.spans()[1].dur_ns() as f64);
        t.leaf("child", root, 1, || ());
        t.end(root);
        assert_eq!(t.spans().len(), 3);
        let own = t.self_times_ns();
        assert_eq!(own[0], t.spans()[0].dur_ns() - t.total_ns("child"));
        assert!(t.total_ns("child") >= 2_000_000);
        assert_eq!(t.to_json_lines("w").lines().count(), 3);

        let mut off = Tracer::off();
        let id = off.begin("root", None, 1);
        off.end(id);
        assert!(off.spans().is_empty() && id.is_none());
    }
}
