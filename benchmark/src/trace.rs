//! In-memory spans around the calls into each layer.
//!
//! A [`Tracer`] that is off costs one branch per call site and reads
//! no clock, so the runs that take end-to-end metrics carry the same
//! code as the traced run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// "No span": the parent of a root span, and what [`Tracer::enter`]
/// returns while tracing is off.
pub const NONE: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `types.decode`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`] for a root.
    pub parent: u32,
    /// The client batch the span belongs to (shared by every span of
    /// one root).
    pub batch_id: u32,
    /// The replica the call ran on; `u8::MAX` for the client.
    pub node: u8,
}

/// Which node a client-side span reports.
pub const CLIENT: u8 = u8::MAX;

/// Records spans while on; ignores everything while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    batch_id: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch_id: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            ..Tracer::off()
        }
    }

    /// Opens a root span for the next client batch.
    pub fn enter_batch(&mut self, name: &'static str) -> u32 {
        if self.on {
            self.batch_id += 1;
        }
        self.enter(name, CLIENT)
    }

    /// Opens a span inside the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, node: u8) -> u32 {
        if !self.on {
            return NONE;
        }
        let index = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NONE),
            batch_id: self.batch_id,
            node,
        });
        self.stack.push(index);
        index
    }

    /// Closes the span [`Tracer::enter`] returned.
    #[inline]
    pub fn exit(&mut self, index: u32) {
        if index == NONE {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover, ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NONE {
            let child = span.end_ns - span.start_ns;
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(child);
        }
    }
    own
}

/// Totals by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.end_ns - span.start_ns;
        t.self_ns += self_ns;
    }
    totals
}

/// All self time over the time the spans called `root` cover. Self
/// times partition whatever has no parent, so this is 1 exactly when
/// every other span sits under a `root` span, and above 1 by the share
/// of work that was recorded outside them.
pub fn self_over_roots(spans: &[Span], root: &str) -> f64 {
    let totals = totals_by_name(spans);
    let own: u64 = totals.values().map(|t| t.self_ns).sum();
    own as f64 / totals.get(root).map_or(0, |t| t.total_ns).max(1) as f64
}

/// Writes at most `limit` spans as JSON lines.
pub fn write_jsonl(spans: &[Span], limit: usize, out: &mut impl Write) -> io::Result<()> {
    for (index, s) in spans.iter().take(limit).enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let node = if s.node == CLIENT {
            "null".to_string()
        } else {
            s.node.to_string()
        };
        writeln!(
            out,
            r#"{{"id":{index},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"batch_id":{},"node":{node}}}"#,
            s.name, s.start_ns, s.end_ns, s.batch_id
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch_id: 1,
            node: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 15, 25, 1),
            span("a", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            totals["a"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            totals["b"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(self_over_roots(&spans, "root"), 1.0);
        // Work recorded beside the root shows as a ratio above 1.
        let mut stray = spans.clone();
        stray.push(span("a", 100, 120, NONE));
        assert_eq!(self_over_roots(&stray, "root"), 1.2);
    }

    #[test]
    fn tracer_nests_and_tags_batches() {
        let mut tr = Tracer::on(8);
        let root = tr.enter_batch("batch");
        let child = tr.enter("types.encode", 2);
        tr.exit(child);
        tr.exit(root);
        let next = tr.enter_batch("batch");
        tr.exit(next);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[0].batch_id, spans[0].node),
            (NONE, 1, CLIENT)
        );
        assert_eq!(
            (spans[1].parent, spans[1].batch_id, spans[1].node),
            (0, 1, 2)
        );
        assert_eq!((spans[2].parent, spans[2].batch_id), (NONE, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.enter_batch("batch");
        assert_eq!(s, NONE);
        tr.exit(s);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let spans = vec![span("root", 0, 5, NONE), span("a", 1, 2, 0)];
        let mut out = Vec::new();
        write_jsonl(&spans, 10, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(r#"{"id":0,"name":"root","start_ns":0,"end_ns":5,"parent":null,"#));
    }
}
