//! Order statistics and digests shared by every workload.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule;
/// `None` for an empty slice. Sorts a copy, so callers keep their order.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the support a
/// tail quantile rests on.
pub fn beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// An order-sensitive running digest (FNV-1a over 64-bit words), used to
/// compare record streams across processes without shipping the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one byte string (its content hash and length) into the digest.
    pub fn push(&mut self, bytes: &[u8]) {
        self.push_word(ppchecker_store::content_hash(bytes));
        self.push_word(bytes.len() as u64);
    }

    /// Folds one 64-bit word into the digest.
    pub fn push_word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of one byte string on its own.
pub fn digest_of(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.push(bytes);
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(beyond(&v, 0.9), 1);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push(b"x");
        a.push(b"y");
        let mut b = Digest::default();
        b.push(b"y");
        b.push(b"x");
        assert_ne!(a, b);
        assert_eq!(digest_of(b"x"), digest_of(b"x"));
    }
}
