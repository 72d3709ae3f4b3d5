//! Named metric collections and the hot-loop sink.

use crate::counter::{Counter, Gauge};
use crate::histogram::LogHistogram;
use crate::json::Json;

/// A named collection of counters, gauges, and histograms.
///
/// Lookup is a linear scan over small `Vec`s: a collection point touches
/// a handful of distinct names, and the scan beats hashing at that size
/// while keeping the crate dependency-free. Insertion order is the
/// arrival order of first writes; [`to_json_entries`](Self::to_json_entries)
/// sorts by name so emitted documents are deterministic no matter which
/// shard registered a metric first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, LogHistogram)>,
}

fn slot<'a, T: Default>(entries: &'a mut Vec<(String, T)>, name: &str) -> &'a mut T {
    if let Some(i) = entries.iter().position(|(n, _)| n == name) {
        return &mut entries[i].1;
    }
    entries.push((name.to_string(), T::default()));
    &mut entries.last_mut().expect("just pushed").1
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        slot(&mut self.counters, name).add(n);
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        slot(&mut self.gauges, name).set(v);
    }

    /// Records a sample into the named histogram.
    pub fn histogram_record(&mut self, name: &str, sample: u64) {
        slot(&mut self.histograms, name).record(sample);
    }

    /// Folds a fully-formed histogram into the named slot (element-wise
    /// addition) — how hot loops that accumulate into a local
    /// [`LogHistogram`] publish it without paying a name lookup per
    /// sample.
    pub fn histogram_merge(&mut self, name: &str, h: &LogHistogram) {
        slot(&mut self.histograms, name).merge(h);
    }

    /// The named counter's total (`None` if never touched).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, c)| c.get())
    }

    /// The named gauge's value (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, g)| g.get())
    }

    /// The named histogram (`None` if never touched).
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Folds `other` into this set under each metric's own merge rule:
    /// counters add, gauges fill gaps, histograms add element-wise.
    pub fn merge(&mut self, other: &MetricSet) {
        self.merge_prefixed("", other);
    }

    /// [`merge`](Self::merge) with `prefix` prepended to every incoming
    /// name — how per-program and per-platform shards land in the suite
    /// set without colliding.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricSet) {
        for (name, c) in &other.counters {
            slot(&mut self.counters, &format!("{prefix}{name}")).merge(*c);
        }
        for (name, g) in &other.gauges {
            slot(&mut self.gauges, &format!("{prefix}{name}")).merge(*g);
        }
        for (name, h) in &other.histograms {
            slot(&mut self.histograms, &format!("{prefix}{name}")).merge(h);
        }
    }

    /// The set as `("counters" | "gauges" | "histograms", object)` JSON
    /// entries, every object sorted by metric name.
    pub fn to_json_entries(&self) -> Vec<(String, Json)> {
        fn sorted<T>(entries: &[(String, T)], f: impl Fn(&T) -> Json) -> Json {
            let mut pairs: Vec<(&String, &T)> = entries.iter().map(|(n, v)| (n, v)).collect();
            pairs.sort_by(|a, b| a.0.cmp(b.0));
            Json::Object(pairs.into_iter().map(|(n, v)| (n.clone(), f(v))).collect())
        }
        vec![
            ("counters".into(), sorted(&self.counters, |c: &Counter| Json::U64(c.get()))),
            ("gauges".into(), sorted(&self.gauges, |g: &Gauge| Json::F64(g.get()))),
            ("histograms".into(), sorted(&self.histograms, LogHistogram::to_json)),
        ]
    }

    /// The set as one JSON object (`{"counters": …, "gauges": …,
    /// "histograms": …}`).
    pub fn to_json(&self) -> Json {
        Json::Object(self.to_json_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let mut m = MetricSet::new();
        m.counter_add("hits", 2);
        m.counter_add("hits", 3);
        m.gauge_set("rate", 0.5);
        m.histogram_record("lat", 7);
        assert_eq!(m.counter("hits"), Some(5));
        assert_eq!(m.gauge("rate"), Some(0.5));
        assert_eq!(m.histogram("lat").map(|h| h.count()), Some(1));
        assert_eq!(m.counter("absent"), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn merge_prefixed_namespaces_names() {
        let mut shard = MetricSet::new();
        shard.counter_add("l1_hits", 10);
        let mut suite = MetricSet::new();
        suite.merge_prefixed("events/blast/", &shard);
        suite.merge_prefixed("events/blast/", &shard);
        assert_eq!(suite.counter("events/blast/l1_hits"), Some(20));
    }

    #[test]
    fn json_entries_sorted_by_name() {
        let mut m = MetricSet::new();
        m.counter_add("zebra", 1);
        m.counter_add("ant", 1);
        let json = m.to_json();
        assert_eq!(json.get("counters").expect("counters").keys(), vec!["ant", "zebra"]);
        assert_eq!(json.keys(), vec!["counters", "gauges", "histograms"]);
    }
}
