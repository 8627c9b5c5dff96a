//! The metric catalogue: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step.

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("apps_per_s", "1/s"),
    ("cold_apps_per_s", "1/s"),
    ("rss_growth_mb", "MB"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("conn_req_p50_ms", "ms"),
    ("conn_req_p90_ms", "ms"),
    ("succeeded_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.residency_us.p50", "us"),
    ("engine.residency_us.p99", "us"),
    ("engine.busy_frac", "frac"),
    ("engine.policy_cache.hit_frac", "frac"),
    ("policy.analyze_s", "s"),
    ("policy.analyze_us.p50", "us"),
    ("policy.analyze_us.p99", "us"),
    ("html.extract_s", "s"),
    ("nlp.split_s", "s"),
    ("nlp.tokenize_s", "s"),
    ("nlp.tag_s", "s"),
    ("nlp.parse_s", "s"),
    ("nlp.sentences", "count"),
    ("nlp.tokens", "count"),
    ("policy.patterns_s", "s"),
    ("esa.vector_cache.hit_frac", "frac"),
    ("esa.pair_memo.hit_frac", "frac"),
    ("esa.pruned", "count"),
    ("esa.vector_builds", "count"),
    ("desc.analyze_s", "s"),
    ("static.analyze_s", "s"),
    ("static.analyze_us.p50", "us"),
    ("static.analyze_us.p99", "us"),
    ("static.apg_build_s", "s"),
    ("static.taint_summary.hit_frac", "frac"),
    ("static.ref_fallback_apps", "count"),
    ("core.matching_s", "s"),
    ("wire.report_encode_us.p50", "us"),
    ("wire.report_bytes", "B"),
    ("wire.json_encode_us.p50", "us"),
    ("wire.json_bytes", "B"),
    ("store.hits.policy", "count"),
    ("store.hits.lib_summary", "count"),
    ("store.hits.report", "count"),
    ("store.misses.policy", "count"),
    ("store.misses.lib_summary", "count"),
    ("store.misses.report", "count"),
    ("store.writes.policy", "count"),
    ("store.writes.lib_summary", "count"),
    ("store.writes.report", "count"),
    ("store.corrupt.policy", "count"),
    ("store.corrupt.lib_summary", "count"),
    ("store.corrupt.report", "count"),
    ("store.replayed", "count"),
    ("store.load_us.p50", "us"),
    ("store.load_us.p99", "us"),
    ("store.save_us.p50", "us"),
    ("store.save_us.p99", "us"),
    ("store.disk_mb", "MB"),
    ("serve.keepalive.first_byte_us.p50", "us"),
    ("serve.keepalive.first_byte_us.p90", "us"),
    ("serve.keepalive.body_us.p50", "us"),
    ("serve.conn.first_byte_us.p50", "us"),
    ("serve.conn.first_byte_us.p90", "us"),
    ("serve.conn.body_us.p50", "us"),
    ("serve.inproc_check_us.p50", "us"),
    ("serve.request_us.mean", "us"),
    ("serve.rejected", "count"),
    ("serve.req_p99_ms", "ms"),
    ("serve.req_p99_beyond", "count"),
    ("serve.req_samples", "count"),
    ("serve.conn_req_p99_ms", "ms"),
    ("serve.conn_req_samples", "count"),
    ("trace.attributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_serve::json::{self, Value};

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
    }
}
