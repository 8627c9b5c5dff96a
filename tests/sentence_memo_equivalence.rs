//! The sentence memo is a pure optimization: a warm analyzer shared
//! across threads must produce, policy for policy, the same encoded
//! analysis as the memo-free reference loop
//! `split_sentences` → `is_disclaimer` → `analyze_sentence`.
//!
//! The first 2,000 scale-corpus apps span the paper prefix and every
//! scenario bucket beyond it, huge-policy and malformed-HTML included.

use ppchecker_corpus::stream_scaled;
use ppchecker_nlp::split_sentences;
use ppchecker_policy::disclaimer::is_disclaimer;
use ppchecker_policy::html::extract_text;
use ppchecker_policy::{encode_analysis, PolicyAnalysis, PolicyAnalyzer};
use std::sync::Arc;

const POLICIES: usize = 2_000;
const THREADS: usize = 4;

/// The memo-free pipeline over one policy.
fn reference(analyzer: &PolicyAnalyzer, html: &str) -> PolicyAnalysis {
    let sentences = split_sentences(&extract_text(html));
    let mut analysis =
        PolicyAnalysis { total_sentences: sentences.len(), ..PolicyAnalysis::default() };
    for sentence in sentences {
        if is_disclaimer(&sentence) {
            analysis.has_disclaimer = true;
        } else if let Some(s) = analyzer.analyze_sentence(&sentence) {
            analysis.sentences.push(Arc::new(s));
        }
    }
    analysis
}

/// `analyzer`'s encoded analyses of `policies`, computed by `THREADS`
/// threads sharing it, in input order.
fn encoded_in_parallel(analyzer: &PolicyAnalyzer, policies: &[String]) -> Vec<Vec<u8>> {
    let chunk = policies.len().div_ceil(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = policies
            .chunks(chunk)
            .map(|part| {
                let analyzer = analyzer.clone();
                scope.spawn(move || {
                    part.iter()
                        .map(|html| encode_analysis(&analyzer.analyze_html(html)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn warm_shared_analyzer_matches_the_memo_free_loop() {
    let policies: Vec<String> =
        stream_scaled(42, POLICIES).map(|app| app.input.policy_html).collect();
    let oracle = PolicyAnalyzer::new();
    let expected: Vec<Vec<u8>> =
        policies.iter().map(|html| encode_analysis(&reference(&oracle, html))).collect();

    let shared = PolicyAnalyzer::new();
    // Cold pass fills the memo; the warm pass is served from it.
    for pass in ["cold", "warm"] {
        let got = encoded_in_parallel(&shared, &policies);
        for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
            assert!(got == want, "{pass} pass: policy {i} diverged from the memo-free loop");
        }
    }
    let stats = shared.sentence_memo_stats();
    assert!(!stats.full);
    assert!(stats.entries > 0);
    assert!(stats.hits > stats.misses, "the warm pass must be served by the memo: {stats:?}");
    // `encode_analysis` covers the sentences and both flags; check the
    // flags once more on decoded values so a codec change cannot hide them.
    for (html, want) in policies.iter().zip(&expected) {
        let got = shared.analyze_html(html);
        let want = ppchecker_policy::decode_analysis(want).unwrap();
        assert_eq!(got.total_sentences, want.total_sentences);
        assert_eq!(got.has_disclaimer, want.has_disclaimer);
    }
}
