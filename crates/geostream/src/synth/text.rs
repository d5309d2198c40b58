//! Keyword (textual) models.

use crate::rng::StreamRng;
use crate::time::{Duration, Timestamp};
use crate::vocab::KeywordId;

/// A generator of per-object keyword sets. Implementations may depend on
/// virtual time to model topical drift ("churn" in the tweet vocabulary, as
/// the paper's reference \[40\] quantifies).
pub trait KeywordModel {
    /// Draws `count` (not necessarily distinct) keywords for one object at
    /// virtual time `t`.
    fn sample_keywords(&self, rng: &mut StreamRng, t: Timestamp, count: usize) -> Vec<KeywordId>;

    /// Number of distinct terms the model can produce.
    fn vocab_size(&self) -> usize;
}

/// Zipf-distributed keywords over a dense vocabulary `0..n`.
///
/// Term `rank` (0-based) has probability proportional to
/// `1 / (rank + 1)^s`. Sampling walks a precomputed CDF with binary search,
/// so a draw is `O(log n)`.
#[derive(Debug, Clone)]
pub struct ZipfKeywords {
    cdf: Vec<f64>,
}

impl ZipfKeywords {
    /// Builds the sampler for `n` terms with exponent `s` (`s = 0` is
    /// uniform; tweets are well modeled around `s ≈ 1`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "vocabulary must be non-empty");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        // LINT-ALLOW(no-panic): the CDF has one entry per vocabulary word and the vocabulary is non-empty
        let total = *cdf.last().expect("non-empty");
        for v in &mut cdf {
            *v /= total;
        }
        ZipfKeywords { cdf }
    }

    /// Draws a single rank (0-based, rank 0 most frequent).
    pub fn sample_rank(&self, rng: &mut StreamRng) -> usize {
        let u = rng.gen_f64();
        // partition_point returns the first index with cdf > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

impl KeywordModel for ZipfKeywords {
    fn sample_keywords(&self, rng: &mut StreamRng, _t: Timestamp, count: usize) -> Vec<KeywordId> {
        (0..count)
            .map(|_| KeywordId(self.sample_rank(rng) as u32))
            .collect()
    }

    fn vocab_size(&self) -> usize {
        self.cdf.len()
    }
}

/// Wraps a base Zipf model and rotates which terms are "hot" over time:
/// every `period`, the identity of the rank-`r` term shifts by `step`, so
/// the head of the distribution moves through the vocabulary. This models
/// hashtag churn without changing the frequency *shape* the estimators see.
#[derive(Debug, Clone)]
pub struct TopicDrift {
    base: ZipfKeywords,
    period: Duration,
    step: usize,
}

impl TopicDrift {
    pub fn new(base: ZipfKeywords, period: Duration, step: usize) -> Self {
        assert!(period.millis() > 0, "drift period must be positive");
        TopicDrift { base, period, step }
    }

    fn offset(&self, t: Timestamp) -> usize {
        let epochs = (t.millis() / self.period.millis()) as usize;
        (epochs * self.step) % self.base.vocab_size()
    }
}

impl KeywordModel for TopicDrift {
    fn sample_keywords(&self, rng: &mut StreamRng, t: Timestamp, count: usize) -> Vec<KeywordId> {
        let off = self.offset(t);
        let n = self.base.vocab_size();
        (0..count)
            .map(|_| KeywordId(((self.base.sample_rank(rng) + off) % n) as u32))
            .collect()
    }

    fn vocab_size(&self) -> usize {
        self.base.vocab_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = ZipfKeywords::new(1_000, 1.0);
        let mut rng = StreamRng::seed_from_u64(1);
        let mut head = 0usize;
        let mut tail = 0usize;
        for _ in 0..10_000 {
            let r = z.sample_rank(&mut rng);
            if r < 10 {
                head += 1;
            } else if r >= 500 {
                tail += 1;
            }
        }
        assert!(head > tail * 2, "head={head} tail={tail}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = ZipfKeywords::new(10, 0.0);
        let mut rng = StreamRng::seed_from_u64(2);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_500..2_500).contains(&c), "non-uniform bucket: {c}");
        }
    }

    #[test]
    fn zipf_ranks_in_range() {
        let z = ZipfKeywords::new(5, 1.2);
        let mut rng = StreamRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(z.sample_rank(&mut rng) < 5);
        }
    }

    #[test]
    fn keyword_model_emits_requested_count() {
        let z = ZipfKeywords::new(50, 1.0);
        let mut rng = StreamRng::seed_from_u64(4);
        assert_eq!(z.sample_keywords(&mut rng, Timestamp::ZERO, 3).len(), 3);
        assert!(z.sample_keywords(&mut rng, Timestamp::ZERO, 0).is_empty());
    }

    #[test]
    fn drift_rotates_hot_terms() {
        let z = ZipfKeywords::new(100, 1.5);
        let d = TopicDrift::new(z, Duration(1_000), 37);
        let mut rng = StreamRng::seed_from_u64(5);
        let top_at = |t: u64, rng: &mut StreamRng| {
            let mut counts = vec![0usize; 100];
            for _ in 0..5_000 {
                for kw in d.sample_keywords(rng, Timestamp(t), 1) {
                    counts[kw.index()] += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap()
        };
        let t0 = top_at(0, &mut rng);
        let t1 = top_at(1_500, &mut rng);
        assert_eq!(t0, 0, "epoch 0 hot term should be rank 0");
        assert_eq!(t1, 37, "epoch 1 hot term should be shifted by step");
    }

    #[test]
    fn drift_preserves_vocab_range() {
        let d = TopicDrift::new(ZipfKeywords::new(10, 1.0), Duration(10), 3);
        let mut rng = StreamRng::seed_from_u64(6);
        for t in [0u64, 10, 25, 10_000] {
            for kw in d.sample_keywords(&mut rng, Timestamp(t), 20) {
                assert!(kw.index() < 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_vocab() {
        let _ = ZipfKeywords::new(0, 1.0);
    }
}
