//! In-memory spans recorded from outside the program, around the public
//! calls into each layer. Spans stay in memory until the run ends and are
//! then written out, one JSON object a line, with each span's self time (its
//! duration minus the part its children cover).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span; [`ROOT`] means "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// The parent of top-level spans.
pub const ROOT: SpanId = SpanId(0);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// The request the span belongs to: spans of one request share it.
    request: u64,
}

/// The span recorder. Disabled, every call is a branch and nothing else, so
/// the untraced run pays nothing for it.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    /// A traced run pauses recording on alternate rounds, so that one run
    /// yields the traced and the untraced cost of the same work.
    paused: AtomicBool,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
            paused: AtomicBool::new(false),
        }
    }

    /// Was the run started with tracing on?
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Stop or resume recording; spans opened meanwhile are not recorded.
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    /// Is a span opened now recorded?
    pub fn recording(&self) -> bool {
        self.spans.is_some() && !self.paused.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the span's id, to parent the spans
    /// it opens itself.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let Some(spans) = self.spans.as_ref().filter(|_| self.recording()) else {
            return f(ROOT);
        };
        let start_ns = self.now_ns();
        let id = {
            let mut spans = spans.lock().expect("no span panics while recording");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            SpanId(spans.len() as u32)
        };
        let out = f(id);
        let end_ns = self.now_ns();
        spans.lock().expect("no span panics while recording")[id.0 as usize - 1].end_ns = end_ns;
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, |s| {
            s.lock().expect("no span panics while recording").len()
        })
    }

    /// Self time of every span, nanoseconds, in recording order.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if s.parent != ROOT {
                let p = s.parent.0 as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every span as one JSON line.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let spans = spans.lock().expect("no span panics while recording");
        let own = Self::self_times(&spans);
        for (i, (s, self_ns)) in spans.iter().zip(own).enumerate() {
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}, \"self_ns\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.0,
                s.request,
                self_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            Span {
                name: "round",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                request: 0,
            },
            Span {
                name: "chunk",
                start_ns: 10,
                end_ns: 40,
                parent: SpanId(1),
                request: 7,
            },
            Span {
                name: "chunk",
                start_ns: 50,
                end_ns: 90,
                parent: SpanId(1),
                request: 8,
            },
            Span {
                name: "send",
                start_ns: 55,
                end_ns: 60,
                parent: SpanId(3),
                request: 8,
            },
        ];
        assert_eq!(Tracer::self_times(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", ROOT, 1, |outer| {
            t.span("inner", outer, 1, |inner| {
                assert_ne!(inner, outer);
                5
            })
        });
        assert_eq!(v, 5);
        assert_eq!(t.len(), 2);
        let mut out = Vec::new();
        t.write_to(&mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let inner = crate::json::Json::parse(lines[1]).expect("span line is JSON");
        assert_eq!(inner.get("parent").and_then(|p| p.num()), Some(1.0));
        assert_eq!(inner.get("name").and_then(|n| n.str()), Some("inner"));

        t.pause(true);
        assert_eq!(t.span("paused", ROOT, 2, |id| id), ROOT);
        t.pause(false);
        assert_eq!(t.len(), 2);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", ROOT, 0, |id| id), ROOT);
        assert_eq!(off.len(), 0);
    }
}
