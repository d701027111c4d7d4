//! Measurement helpers: order statistics, process counters from
//! `/proc`, an in-memory span recorder, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of a sample (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a tail percentile must leave above it.
pub const TAIL_SAMPLES_ABOVE: usize = 10;

/// The highest percentile of a sample that leaves at least
/// [`TAIL_SAMPLES_ABOVE`] samples above it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile: the share of samples at or below `value`, in %.
    pub percentile: f64,
    /// Samples in the whole sample.
    pub samples: usize,
    /// Samples above `value` (fewer than ten only when the sample
    /// holds ten or fewer, in which case `value` is the maximum).
    pub above: usize,
}

/// See [`Tail`].
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let j = if n > TAIL_SAMPLES_ABOVE {
        n - TAIL_SAMPLES_ABOVE - 1
    } else {
        n - 1
    };
    Tail {
        value: v[j],
        percentile: 100.0 * (j + 1) as f64 / n as f64,
        samples: n,
        above: n - 1 - j,
    }
}

/// Process user + system CPU seconds, across all threads, from
/// `/proc/self/stat` (fields 14 and 15, in `USER_HZ` = 100 ticks/s).
///
/// # Panics
///
/// Panics if `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k − 3.
    let ticks = |k: usize| fields[k - 3].parse::<u64>().expect("numeric tick field");
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM` from `/proc/self/status`) in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` cannot be read or lacks `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("numeric VmHWM");
    kb / 1024.0
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One recorded span.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    ms: f64,
}

/// An in-memory span recorder. Spans are opened around calls into the
/// program's layers and nest by open order; they are kept until the
/// run ends and then summarised.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use = "a span must be closed"]
pub struct SpanId(usize);

impl Trace {
    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            ms: 0.0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.ms = ms_since(span.start);
    }

    /// Runs `f` inside a span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Median length in milliseconds of the spans called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such span was recorded.
    pub fn median_ms(&self, name: &str) -> f64 {
        let lengths: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms)
            .collect();
        assert!(!lengths.is_empty(), "no span named {name}");
        median(&lengths)
    }

    /// One line per span name: calls, median, total, and self time (a
    /// span's length minus what its child spans cover).
    pub fn summary(&self) -> String {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms;
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.ms);
            e.1 += s.ms - child_ms[i];
        }
        let mut out = format!(
            "{:<24} {:>6} {:>12} {:>12} {:>12}\n",
            "span", "calls", "median_ms", "total_ms", "self_ms"
        );
        for (name, (ms, self_ms)) in by_name {
            out += &format!(
                "{name:<24} {:>6} {:>12.3} {:>12.3} {:>12.3}\n",
                ms.len(),
                median(&ms),
                ms.iter().sum::<f64>(),
                self_ms
            );
        }
        out
    }
}

/// The metrics of one run, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    /// A metric's value, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// `(name, unit)` of every metric, in insertion order.
    pub fn names(&self) -> Vec<(&str, &str)> {
        self.0.iter().map(|m| (m.0.as_str(), m.2)).collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.above, t.samples), (30.0, 10, 40));
        assert_eq!(t.percentile, 75.0);
        let few = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.above), (3.0, 0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::default();
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        assert!(t.median_ms("outer") >= t.median_ms("inner"));
        assert!(t.summary().contains("inner"));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
