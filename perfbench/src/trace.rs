//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written at exit as Chrome trace-event JSON (the
//! format `occamy run --events` writes; Perfetto and `chrome://tracing`
//! load it). Per-`step_bounded` timings are too many for spans: they go
//! into [`LogHistogram`]s, summarised under the trace's `otherData`.

use std::time::Instant;

use bench::json::Value;

/// One completed span.
struct Span {
    /// Layer the call went into (`workloads`, `occamy-sim`, `occamyd`…).
    layer: &'static str,
    /// What the call did (`build`, `run`, `request`…).
    name: &'static str,
    /// The point or job the span belongs to.
    id: String,
    /// Trace track (thread id).
    tid: u64,
    /// May overlap other spans of its track: written as an async
    /// begin/end pair instead of a complete event.
    overlaps: bool,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder. A disabled recorder drops every span, so
/// untraced runs keep nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span from `start` to `end`.
    pub fn span(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: &str,
        tid: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(Span {
            layer,
            name,
            id: id.to_owned(),
            tid,
            overlaps: false,
            start,
            end,
        });
    }

    /// Records a span that may overlap others on its track (concurrent
    /// requests on one connection).
    pub fn async_span(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: &str,
        tid: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(Span {
            layer,
            name,
            id: id.to_owned(),
            tid,
            overlaps: true,
            start,
            end,
        });
    }

    fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Renders every span as Chrome trace JSON, with `other` (host
    /// fingerprint, histograms) under the top-level `otherData` key.
    pub fn to_chrome(&self, process: &str, other: Value) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        let mut meta = Value::obj();
        let mut name = Value::obj();
        name.push("name", Value::Str(process.to_owned()));
        meta.push("ph", Value::Str("M".into()))
            .push("pid", Value::UInt(0))
            .push("tid", Value::UInt(0))
            .push("name", Value::Str("process_name".into()))
            .push("args", name);
        events.push(meta);
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.tid, s.start));
        let event = |ph: &str, s: &Span, ts: Instant| {
            let mut e = Value::obj();
            e.push("ph", Value::Str(ph.into()))
                .push("pid", Value::UInt(0))
                .push("tid", Value::UInt(s.tid))
                .push("ts", Value::Num(us(ts)))
                .push("cat", Value::Str(s.layer.into()))
                .push("name", Value::Str(format!("{}.{}", s.layer, s.name)));
            e
        };
        for (seq, s) in spans.into_iter().enumerate() {
            let mut args = Value::obj();
            args.push("id", Value::Str(s.id.clone()));
            if s.overlaps {
                let mut begin = event("b", s, s.start);
                begin.push("id", Value::UInt(seq as u64)).push("args", args);
                let mut end = event("e", s, s.end);
                end.push("id", Value::UInt(seq as u64));
                events.push(begin);
                events.push(end);
            } else {
                let mut e = event("X", s, s.start);
                e.push("dur", Value::Num(us(s.end) - us(s.start)))
                    .push("args", args);
                events.push(e);
            }
        }
        let mut doc = Value::obj();
        doc.push("displayTimeUnit", Value::Str("ms".into()))
            .push("traceEvents", Value::Arr(events))
            .push("otherData", other);
        doc.render()
    }
}

/// Sub-buckets per power of two: bucket width is 1/32 of its octave,
/// so a quantile read from a bucket midpoint is within about 1.6%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations.
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl LogHistogram {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let frac = (ns >> (octave - SUB_BITS)) as usize & (SUB - 1);
        (octave - SUB_BITS + 1) as usize * SUB + frac
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let octave = (i / SUB) as u32 + SUB_BITS - 1;
        let width = (1u64 << (octave - SUB_BITS)) as f64;
        ((1u64 << octave) as f64 + (i % SUB) as f64 * width, width)
    }

    /// Adds one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// The `q` quantile (bucket midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bounds(i);
                return lo + width / 2.0;
            }
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.total)
    }

    /// Summary for the trace file: sample count and a few quantiles.
    pub fn to_value(&self) -> Value {
        let mut v = Value::obj();
        v.push("samples", Value::UInt(self.total));
        for (name, q) in [
            ("p10_ns", 0.1),
            ("p50_ns", 0.5),
            ("p90_ns", 0.9),
            ("p99_ns", 0.99),
        ] {
            v.push(name, Value::Num(self.quantile(q)));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::LogHistogram;

    #[test]
    fn buckets_cover_their_values() {
        for ns in [0u64, 1, 31, 32, 33, 1000, 1_234_567, u64::MAX / 3] {
            let (lo, width) = LogHistogram::bounds(LogHistogram::index(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < lo + width,
                "{ns} outside [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn median_is_close() {
        let mut h = LogHistogram::default();
        for ns in 1..=1001u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_100.0).abs() / 50_100.0 < 0.02, "p50 {p50}");
    }
}
