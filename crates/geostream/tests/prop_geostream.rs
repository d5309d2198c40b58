//! Property tests of the stream substrate: generators, distributions and
//! vocabulary.

use geostream::synth::{DatasetSpec, KeywordModel, ZipfKeywords};
use geostream::{StreamRng, Timestamp, Vocabulary};
use testkit::{check, f64_in, u64_in, usize_in, vec_of, word};

const CASES: u32 = 40;

#[test]
fn generator_timestamps_never_decrease() {
    check("generator_timestamps_never_decrease", CASES, |rng| {
        let seed = u64_in(rng, 0..500);
        let n = usize_in(rng, 10..400);
        let mut gen = DatasetSpec::twitter().with_seed(seed).generator();
        let mut last = Timestamp::ZERO;
        for _ in 0..n {
            let o = gen.next_object();
            assert!(o.timestamp >= last);
            last = o.timestamp;
        }
    });
}

#[test]
fn generator_objects_stay_in_domain() {
    check("generator_objects_stay_in_domain", CASES, |rng| {
        let spec = DatasetSpec::checkin().with_seed(u64_in(rng, 0..500));
        let domain = spec.domain;
        let mut gen = spec.generator();
        for _ in 0..200 {
            let o = gen.next_object();
            assert!(domain.contains(&o.loc));
            for kw in o.keywords.iter() {
                assert!(kw.index() < spec.vocab_size);
            }
        }
    });
}

#[test]
fn zipf_ranks_stay_in_range() {
    check("zipf_ranks_stay_in_range", CASES, |rng| {
        let n = usize_in(rng, 2..500);
        let z = ZipfKeywords::new(n, f64_in(rng, 0.0..2.0));
        let mut draws = StreamRng::seed_from_u64(u64_in(rng, 0..100));
        for _ in 0..100 {
            assert!(z.sample_rank(&mut draws) < n);
        }
        assert_eq!(z.vocab_size(), n);
    });
}

#[test]
fn keyword_model_count_contract() {
    check("keyword_model_count_contract", CASES, |rng| {
        let count = usize_in(rng, 0..8);
        let z = ZipfKeywords::new(100, 1.0);
        let mut draws = StreamRng::seed_from_u64(u64_in(rng, 0..100));
        let kws = z.sample_keywords(&mut draws, Timestamp::ZERO, count);
        assert_eq!(kws.len(), count);
    });
}

#[test]
fn vocabulary_intern_resolve_roundtrip() {
    check("vocabulary_intern_resolve_roundtrip", CASES, |rng| {
        let words = vec_of(rng, 1..50, |rng| word(rng, 1..=10));
        let mut v = Vocabulary::new();
        let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(v.resolve(*id), Some(w.as_str()));
            assert_eq!(v.get(w), Some(*id));
        }
        let distinct: std::collections::HashSet<_> = words.iter().collect();
        assert_eq!(v.len(), distinct.len());
    });
}

#[test]
fn same_seed_same_stream() {
    check("same_seed_same_stream", CASES, |rng| {
        let seed = u64_in(rng, 0..200);
        let mut g1 = DatasetSpec::ebird().with_seed(seed).generator();
        let mut g2 = DatasetSpec::ebird().with_seed(seed).generator();
        for _ in 0..50 {
            assert_eq!(g1.next_object(), g2.next_object());
        }
    });
}
