//! Merge-semantics properties: merging metric shards must behave like a
//! commutative monoid and never lose events, no matter how the suite
//! orchestrator groups its parallel jobs.

use bioperf_metrics::{Json, LogHistogram, MetricSet};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// A handful of counter names so generated streams collide on names.
const NAMES: [&str; 4] = ["l1_hits", "l2_hits", "memory", "writebacks"];

/// JSON tokens and fragments of tokens — brackets, separators, escapes,
/// surrogate halves, number pieces, literals and multi-byte text — that
/// generated documents splice together.
const TOKENS: [&str; 24] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "D800", "DC00", "0041", "+41", "1", "-",
    ".", "e", "true", "nul", "\"k\"", "é", "😀", " ", "\n",
];

fn set_of(events: &[(u8, u64)]) -> MetricSet {
    let mut m = MetricSet::new();
    for &(which, n) in events {
        m.counter_add(NAMES[which as usize % NAMES.len()], n % 1_000_000);
        m.histogram_record("samples", n);
    }
    m
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(any::<u64>(), 0..48),
        b in prop::collection::vec(any::<u64>(), 0..48),
        c in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_preserves_counts_and_sums(
        a in prop::collection::vec(0u64..1 << 40, 0..64),
        b in prop::collection::vec(0u64..1 << 40, 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.sum(), ha.sum() + hb.sum());
        // Every sample landed in exactly one bucket.
        let bucket_total: u64 = (0..65).map(|i| merged.bucket(i)).sum();
        prop_assert_eq!(bucket_total, merged.count());
        // Merging equals recording the concatenated stream directly.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&all));
    }

    #[test]
    fn metric_set_merge_matches_sequential_recording(
        a in prop::collection::vec((0u8..4, any::<u64>()), 0..48),
        b in prop::collection::vec((0u8..4, any::<u64>()), 0..48),
    ) {
        // Two shards merged must equal one shard that saw both streams:
        // counters sum, histograms add element-wise, nothing is dropped.
        let mut merged = set_of(&a);
        merged.merge(&set_of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let sequential = set_of(&all);
        for name in NAMES {
            prop_assert_eq!(merged.counter(name), sequential.counter(name));
        }
        prop_assert_eq!(merged.histogram("samples"), sequential.histogram("samples"));
        // And the emitted JSON — what the determinism tests compare — is
        // byte-identical regardless of sharding.
        prop_assert_eq!(merged.to_json().render(), sequential.to_json().render());
    }

    #[test]
    fn metric_set_merge_is_commutative_on_counters(
        a in prop::collection::vec((0u8..4, any::<u64>()), 0..32),
        b in prop::collection::vec((0u8..4, any::<u64>()), 0..32),
    ) {
        let mut ab = set_of(&a);
        ab.merge(&set_of(&b));
        let mut ba = set_of(&b);
        ba.merge(&set_of(&a));
        // Insertion order may differ; the sorted JSON rendering is the
        // canonical form.
        prop_assert_eq!(ab.to_json().render(), ba.to_json().render());
    }

    #[test]
    fn json_string_escaping_round_trips(
        codepoints in prop::collection::vec(0u32..0x300, 0..24),
    ) {
        // Includes the whole control range, quotes, and backslashes.
        let s: String = codepoints.into_iter().filter_map(char::from_u32).collect();
        let doc = Json::object(vec![(s.clone(), Json::Str(s.clone()))]);
        let parsed = bioperf_metrics::json::parse(&doc.render()).expect("emitter output parses");
        prop_assert_eq!(parsed, doc);
    }

    #[test]
    fn parsing_token_soup_never_panics(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        // Any outcome but a panic is fine.
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = bioperf_metrics::json::parse(&text);
    }
}
