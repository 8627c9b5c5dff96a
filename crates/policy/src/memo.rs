//! Bounded memo of per-sentence analyses.
//!
//! Policies repeat sentences: generator-built policies share template
//! sentences, and apps of one family share whole paragraphs. A scale
//! corpus of ~19k distinct policies holds ~128k non-disclaimer sentences
//! but only ~4.3k distinct sentence texts. Steps 2 and 4–6 of the
//! pipeline are a pure function of the sentence text and the analyzer's
//! configuration, so each analyzer's memo maps each sentence text to its
//! result — `None` for a sentence that is not useful — and every policy
//! containing that sentence shares one [`AnalyzedSentence`] allocation.
//!
//! The memo is bounded by two constants: it holds at most
//! [`MEMO_BUDGET_BYTES`] of sentence text, and never holds a sentence
//! longer than [`MEMO_MAX_SENTENCE_BYTES`]. Once the budget is full it
//! stops admitting entries (hits still serve, misses still compute) —
//! the stop-admitting idiom of the engine's policy cache — so no input
//! stream can grow it past the budget.

use crate::pipeline::AnalyzedSentence;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Upper bound on the sentence text the memo holds, in bytes. Past it
/// the memo stops admitting entries.
pub const MEMO_BUDGET_BYTES: usize = 4 << 20;

/// Sentences longer than this many bytes are analyzed but never memoized.
pub const MEMO_MAX_SENTENCE_BYTES: usize = 1024;

/// Counters of one sentence memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SentenceMemoStats {
    /// Sentences served from the memo.
    pub hits: u64,
    /// Sentences analyzed (first sight, over the length limit, or not
    /// admitted because the memo is full).
    pub misses: u64,
    /// Sentence texts resident.
    pub entries: usize,
    /// Bytes of sentence text resident (at most [`MEMO_BUDGET_BYTES`]).
    pub bytes: usize,
    /// `true` once the memo has refused a sentence for its byte budget.
    pub full: bool,
}

impl SentenceMemoStats {
    /// `hits / (hits + misses)`, or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hits and misses since `earlier`; occupancy as of `self`.
    pub fn since(&self, earlier: &SentenceMemoStats) -> SentenceMemoStats {
        SentenceMemoStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            ..*self
        }
    }
}

#[derive(Default)]
struct Resident {
    map: HashMap<Box<str>, Option<Arc<AnalyzedSentence>>>,
    bytes: usize,
}

/// Thread-safe, bounded map from sentence text to its analysis.
#[derive(Default)]
pub(crate) struct SentenceMemo {
    resident: RwLock<Resident>,
    hits: AtomicU64,
    misses: AtomicU64,
    full: AtomicBool,
}

impl fmt::Debug for SentenceMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SentenceMemo").field(&self.stats()).finish()
    }
}

impl SentenceMemo {
    /// The memoized analysis of `sentence`, computing it with `analyze`
    /// on a miss. A concurrent duplicate costs one redundant analysis;
    /// the first insert wins, so every caller shares one allocation.
    pub(crate) fn get_or_analyze(
        &self,
        sentence: &str,
        analyze: impl FnOnce(&str) -> Option<AnalyzedSentence>,
    ) -> Option<Arc<AnalyzedSentence>> {
        if sentence.len() > MEMO_MAX_SENTENCE_BYTES {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return analyze(sentence).map(Arc::new);
        }
        if let Some(hit) = self.resident.read().expect("memo lock").map.get(sentence) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let fresh = analyze(sentence).map(Arc::new);
        self.admit(sentence, fresh)
    }

    fn admit(
        &self,
        sentence: &str,
        fresh: Option<Arc<AnalyzedSentence>>,
    ) -> Option<Arc<AnalyzedSentence>> {
        if !self.full.load(Ordering::Relaxed) {
            let mut resident = self.resident.write().expect("memo lock");
            if let Some(winner) = resident.map.get(sentence) {
                let winner = winner.clone();
                drop(resident);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return winner;
            }
            if resident.bytes + sentence.len() <= MEMO_BUDGET_BYTES {
                resident.bytes += sentence.len();
                resident.map.insert(sentence.into(), fresh.clone());
            } else {
                self.full.store(true, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> SentenceMemoStats {
        let resident = self.resident.read().expect("memo lock");
        SentenceMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: resident.map.len(),
            bytes: resident.bytes,
            full: self.full.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PolicyAnalyzer;
    use std::sync::Barrier;

    /// The memo-free result of `analyzer` on one sentence.
    fn reference(analyzer: &PolicyAnalyzer, sentence: &str) -> String {
        format!("{:?}", analyzer.analyze_sentence(sentence))
    }

    fn memoized(analyzer: &PolicyAnalyzer, sentence: &str) -> String {
        let analysis = analyzer.analyze_text(sentence);
        assert_eq!(analysis.total_sentences, 1, "{sentence:?} must stay one sentence");
        format!("{:?}", analysis.sentences.first().map(|s| &**s))
    }

    #[test]
    fn stops_admitting_at_the_byte_budget_and_still_matches_the_reference() {
        let analyzer = PolicyAnalyzer::new();
        // One-token sentences of exactly the length limit: cheap to
        // analyze, admitted until the budget runs out.
        let filler = |i: usize| format!("{}{i:08}", "x".repeat(MEMO_MAX_SENTENCE_BYTES - 8));
        let capacity = MEMO_BUDGET_BYTES / MEMO_MAX_SENTENCE_BYTES;
        for i in 0..=capacity {
            assert_eq!(memoized(&analyzer, &filler(i)), reference(&analyzer, &filler(i)));
        }
        let full = analyzer.sentence_memo_stats();
        assert!(full.full);
        assert_eq!(full.entries, capacity);
        assert_eq!(full.bytes, capacity * MEMO_MAX_SENTENCE_BYTES);
        assert!(full.bytes <= MEMO_BUDGET_BYTES);
        assert_eq!((full.hits, full.misses), (0, capacity as u64 + 1));

        // Past the budget, new sentences still analyze exactly but are
        // not admitted; resident ones keep hitting.
        for sentence in [
            "we may collect your location and your device id.",
            "we will not share your contacts without your consent.",
            "you may provide your email address.",
        ] {
            assert_eq!(memoized(&analyzer, sentence), reference(&analyzer, sentence));
        }
        assert_eq!(memoized(&analyzer, &filler(0)), reference(&analyzer, &filler(0)));
        let after = analyzer.sentence_memo_stats();
        assert_eq!((after.entries, after.bytes), (full.entries, full.bytes));
        assert_eq!((after.hits, after.misses), (1, full.misses + 3));
    }

    #[test]
    fn never_holds_a_sentence_over_the_length_limit() {
        let analyzer = PolicyAnalyzer::new();
        let long = format!("we may collect your location{}.", " and your device id".repeat(60));
        assert!(long.len() > MEMO_MAX_SENTENCE_BYTES);
        for _ in 0..2 {
            assert_eq!(memoized(&analyzer, &long), reference(&analyzer, &long));
        }
        let stats = analyzer.sentence_memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.bytes), (0, 2, 0, 0));
        assert!(!stats.full);
    }

    #[test]
    fn concurrent_admits_keep_the_first_insert() {
        let memo = SentenceMemo::default();
        let analyzer = PolicyAnalyzer::new();
        let sentence = "we may share your contacts.";
        let threads = 8;
        // Every thread misses before any admits: the barrier sits inside
        // the analysis, after the lookup.
        let barrier = Barrier::new(threads);
        let results: Vec<Arc<AnalyzedSentence>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_analyze(sentence, |s| {
                            barrier.wait();
                            analyzer.analyze_sentence(s)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap().expect("a useful sentence")).collect()
        });
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])), "losers adopt the winner");
        let hit = memo.get_or_analyze(sentence, |_| unreachable!("resident sentences hit"));
        assert!(Arc::ptr_eq(&hit.unwrap(), &results[0]));
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, threads as u64, 1));
        assert_eq!(stats.bytes, sentence.len());
    }
}
