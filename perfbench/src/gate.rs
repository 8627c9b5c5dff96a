//! Correctness gates. A run whose outputs differ from the expected ones
//! fails: the benchmark prints `"correct": false` and exits non-zero.
//!
//! * `stream`: every `stride`-th record and every `check_one` record
//!   must be byte-identical to a fresh `PPChecker::check_app` oracle,
//!   and every child's aggregate counts must be identical.
//! * `reaudit`: each version's record digest must equal a store-less
//!   run of that version, the replayed-app count must equal exactly the
//!   apps whose inputs an earlier version already audited, and each
//!   `check_one` replay must equal the store-less record.
//! * `serve`: every 200 body must equal the body computed in-process
//!   for that app (checked inside the child, which holds the bodies).

use crate::common::ChildReport;

/// Compares two word vectors, naming the first difference.
pub fn words_equal(what: &str, expected: &[u64], observed: &[u64]) -> Result<(), String> {
    if expected.len() != observed.len() {
        return Err(format!(
            "{what}: expected {} values, observed {}",
            expected.len(),
            observed.len()
        ));
    }
    match expected.iter().zip(observed).position(|(e, o)| e != o) {
        Some(i) => Err(format!(
            "{what}: value {i} differs (expected {}, observed {})",
            expected[i], observed[i]
        )),
        None => Ok(()),
    }
}

fn words<'a>(report: &'a ChildReport, key: &str) -> &'a [u64] {
    report.words.get(key).map(Vec::as_slice).unwrap_or(&[])
}

/// The `stream` gate for one child. `first` is the first child's report,
/// whose aggregate every later child must reproduce.
pub fn stream(
    expected: &[u64],
    first: Option<&ChildReport>,
    report: &ChildReport,
) -> Result<(), String> {
    words_equal("stream: sampled records vs the oracle", expected, words(report, "sampled"))?;
    if let Some(first) = first {
        words_equal(
            "stream: aggregate counts",
            words(first, "aggregate"),
            words(report, "aggregate"),
        )?;
    }
    Ok(())
}

/// The `reaudit` gate for one child.
pub fn reaudit(expected: &[u64], report: &ChildReport) -> Result<(), String> {
    words_equal(
        "reaudit: version digests, replayed apps and single replays vs a store-less run",
        expected,
        words(report, "versions"),
    )
}

/// The `serve` gate for one child (and the serve probe of traced runs).
pub fn serve(report: &ChildReport) -> Result<(), String> {
    match report.get("mismatches") as u64 {
        0 => Ok(()),
        n => Err(format!("serve: {n} response bodies differ from the in-process result")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use std::time::Instant;

    #[test]
    fn words_equal_names_the_difference() {
        assert!(words_equal("x", &[1, 2], &[1, 2]).is_ok());
        let err = words_equal("x", &[1, 2], &[1, 3]).unwrap_err();
        assert!(err.contains("value 1 differs"), "{err}");
        assert!(words_equal("x", &[1], &[1, 2]).is_err());
    }

    const TINY_STREAM: crate::stream::Size =
        crate::stream::Size { apps: 1_260, stride: 97, singles: 4 };

    #[test]
    fn stream_gate_passes_then_fails_on_a_corrupted_expectation() {
        let expected = crate::stream::expected(3, TINY_STREAM);
        let mut tracer = Tracer::new(Instant::now(), false);
        let (report, _) = crate::stream::child(3, TINY_STREAM, &mut tracer);
        stream(&expected, None, &report).expect("engine matches the oracle");
        stream(&expected, Some(&report), &report).expect("aggregate matches itself");

        let mut corrupted = expected.clone();
        corrupted[5] ^= 1;
        assert!(stream(&corrupted, None, &report).is_err());

        let mut other = report.clone();
        other.words.insert("aggregate".to_string(), vec![0]);
        assert!(stream(&expected, Some(&report), &other).is_err());
    }

    #[test]
    fn reaudit_gate_passes_then_fails_on_a_corrupted_expectation() {
        let size = crate::reaudit::Size { apps: 120, drift_versions: 2, singles: 3 };
        let expected = crate::reaudit::expected(5, size);
        let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-gate-{}", std::process::id()));
        let mut tracer = Tracer::new(Instant::now(), false);
        let (report, _) = crate::reaudit::child(5, size, &work, &mut tracer);
        let _ = std::fs::remove_dir_all(&work);
        reaudit(&expected, &report).expect("store-backed run matches the store-less run");

        // A corrupted record digest, and a wrong replayed-app count.
        for slot in [0, 3] {
            let mut corrupted = expected.clone();
            corrupted[slot] = corrupted[slot].wrapping_add(1);
            assert!(reaudit(&corrupted, &report).is_err(), "slot {slot}");
        }
    }

    #[test]
    fn serve_gate_fails_on_a_mismatched_body() {
        let mut report = ChildReport::default();
        report.value("mismatches", 0.0);
        assert!(serve(&report).is_ok());
        report.value("mismatches", 2.0);
        assert!(serve(&report).is_err());
    }
}
