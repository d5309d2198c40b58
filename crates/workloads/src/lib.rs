//! # workloads — the paper's query workloads (§VI-A)
//!
//! Generators for the Twitter (`TwQW1`–`TwQW6`), eBird (`EbRQW1`), and
//! CheckIn (`CiQW1`) query workloads: deterministic streams of
//! [`RcDvq`](geostream::RcDvq) queries with controlled compositions of
//! pure-spatial, pure-keyword, and hybrid queries that can *change over
//! the workload's lifetime* — the dynamism LATEST is built to absorb.
//!
//! Query locations are sampled from the same hotspot mixture that
//! generates the data (standing in for the paper's Bing mobile-search
//! locations, which correlate with population density), and query keywords
//! are Zipf-drawn from the dataset vocabulary (the paper picks them
//! "randomly from evaluation data", which reproduces the data's skew).

mod spec;

pub use spec::{Mix, WorkloadGenerator, WorkloadSpec};

use geostream::synth::DatasetSpec;

/// A workload-family lookup failed: the requested number is outside the
/// set of workloads the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadError {
    /// The workload family name (`"TwQW"`, `"EbRQW"`, `"CiQW"`).
    pub family: &'static str,
    /// The requested workload number.
    pub n: u8,
    /// The largest valid number for the family (all start at 1).
    pub max: u8,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{} is not one of the evaluated workloads ({}1..={})",
            self.family, self.n, self.family, self.max
        )
    }
}

impl std::error::Error for WorkloadError {}

/// The Twitter workloads TwQW1–TwQW6 (the paper describes six of its nine;
/// we reproduce the six it evaluates). Fallible lookup; [`twqw`] is the
/// panicking convenience.
pub fn try_twqw(n: u8) -> Result<WorkloadSpec, WorkloadError> {
    if !(1..=6).contains(&n) {
        return Err(WorkloadError {
            family: "TwQW",
            n,
            max: 6,
        });
    }
    let base = DatasetSpec::twitter();
    Ok(match n {
        // One-third each, with the dominant type rotating in blocks —
        // "types of queries are heavily changing over time" (§VI-B).
        1 => WorkloadSpec::new("TwQW1", base, 100_000)
            .with_blocks(vec![
                Mix::spatial_only(),
                Mix::keyword_only(),
                Mix::hybrid_only(),
                Mix::spatial_only(),
                Mix::keyword_only(),
                Mix::hybrid_only(),
            ])
            .with_keyword_counts(1, 3),
        // 100% pure spatial.
        2 => WorkloadSpec::new("TwQW2", base, 100_000).with_blocks(vec![Mix::spatial_only()]),
        // 50% pure spatial / 50% hybrid.
        3 => WorkloadSpec::new("TwQW3", base, 100_000)
            .with_blocks(vec![Mix::new(0.5, 0.0, 0.5)])
            .with_keyword_counts(1, 2),
        // 100% single-keyword queries.
        4 => WorkloadSpec::new("TwQW4", base, 100_000)
            .with_blocks(vec![Mix::keyword_only()])
            .with_keyword_counts(1, 1),
        // 100% multi-keyword queries.
        5 => WorkloadSpec::new("TwQW5", base, 100_000)
            .with_blocks(vec![Mix::keyword_only()])
            .with_keyword_counts(2, 5),
        // Same thirds as TwQW1 in a different block order (§VI-B, Fig. 4).
        6 => WorkloadSpec::new("TwQW6", base, 100_000)
            .with_blocks(vec![
                Mix::keyword_only(),
                Mix::spatial_only(),
                Mix::keyword_only(),
                Mix::hybrid_only(),
            ])
            .with_keyword_counts(1, 3),
        _ => unreachable!("range-checked above"),
    })
}

/// Panicking convenience around [`try_twqw`].
///
/// # Panics
/// Panics for numbers outside `1..=6`.
pub fn twqw(n: u8) -> WorkloadSpec {
    // LINT-ALLOW(no-panic): documented convenience wrapper; try_twqw is the
    // fallible path for workload numbers taken from user input.
    try_twqw(n).unwrap_or_else(|e| panic!("{e}"))
}

/// The six eBird request workloads (§VI-A: 40K real dataset-search
/// requests combined with sampled keywords into "six workloads of
/// different query type distributions"). The paper's figures use EbRQW1.
/// Fallible lookup; [`ebrqw`] is the panicking convenience.
pub fn try_ebrqw(n: u8) -> Result<WorkloadSpec, WorkloadError> {
    if !(1..=6).contains(&n) {
        return Err(WorkloadError {
            family: "EbRQW",
            n,
            max: 6,
        });
    }
    let base = WorkloadSpec::new(
        match n {
            1 => "EbRQW1",
            2 => "EbRQW2",
            3 => "EbRQW3",
            4 => "EbRQW4",
            5 => "EbRQW5",
            6 => "EbRQW6",
            _ => unreachable!("range-checked above"),
        },
        DatasetSpec::ebird(),
        40_000,
    )
    // Dataset-search requests span wide ranges compared to the tight
    // observation clusters.
    .with_range_scale(2.0);
    Ok(match n {
        // 100% spatial — the workload the paper evaluates in its figures.
        1 => base.with_blocks(vec![Mix::spatial_only()]),
        // 100% keyword (species / protocol searches).
        2 => base
            .with_blocks(vec![Mix::keyword_only()])
            .with_keyword_counts(1, 3),
        // 100% hybrid (species within a region).
        3 => base
            .with_blocks(vec![Mix::new(0.0, 0.0, 1.0)])
            .with_keyword_counts(1, 2),
        // Uniform thirds.
        4 => base.with_keyword_counts(1, 2),
        // Half spatial, half keyword.
        5 => base
            .with_blocks(vec![Mix::new(0.5, 0.5, 0.0)])
            .with_keyword_counts(1, 2),
        // Rotating blocks (the TwQW1-style dynamic variant).
        6 => base
            .with_blocks(vec![
                Mix::spatial_only(),
                Mix::keyword_only(),
                Mix::new(0.0, 0.0, 1.0),
            ])
            .with_keyword_counts(1, 2),
        _ => unreachable!("range-checked above"),
    })
}

/// Panicking convenience around [`try_ebrqw`].
///
/// # Panics
/// Panics for numbers outside `1..=6`.
pub fn ebrqw(n: u8) -> WorkloadSpec {
    // LINT-ALLOW(no-panic): documented convenience wrapper; try_ebrqw is
    // the fallible path for workload numbers taken from user input.
    try_ebrqw(n).unwrap_or_else(|e| panic!("{e}"))
}

/// `EbRQW1` — the eBird workload the paper's figures use.
pub fn ebrqw1() -> WorkloadSpec {
    ebrqw(1)
}

/// The three CheckIn workloads (§VI-A: "three workloads of different
/// distributions of query types"). The paper's figures use CiQW1.
/// Fallible lookup; [`ciqw`] is the panicking convenience.
pub fn try_ciqw(n: u8) -> Result<WorkloadSpec, WorkloadError> {
    if !(1..=3).contains(&n) {
        return Err(WorkloadError {
            family: "CiQW",
            n,
            max: 3,
        });
    }
    let base = WorkloadSpec::new(
        match n {
            1 => "CiQW1",
            2 => "CiQW2",
            3 => "CiQW3",
            _ => unreachable!("range-checked above"),
        },
        DatasetSpec::checkin(),
        100_000,
    );
    Ok(match n {
        // 100K single-keyword queries — the paper's evaluated workload.
        1 => base
            .with_blocks(vec![Mix::keyword_only()])
            .with_keyword_counts(1, 1),
        // 100% spatial (venue-density queries).
        2 => base.with_blocks(vec![Mix::spatial_only()]),
        // Uniform thirds.
        3 => base.with_keyword_counts(1, 2),
        _ => unreachable!("range-checked above"),
    })
}

/// Panicking convenience around [`try_ciqw`].
///
/// # Panics
/// Panics for numbers outside `1..=3`.
pub fn ciqw(n: u8) -> WorkloadSpec {
    // LINT-ALLOW(no-panic): documented convenience wrapper; try_ciqw is
    // the fallible path for workload numbers taken from user input.
    try_ciqw(n).unwrap_or_else(|e| panic!("{e}"))
}

/// `CiQW1` — the CheckIn workload the paper's figures use.
pub fn ciqw1() -> WorkloadSpec {
    ciqw(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::QueryType;

    #[test]
    fn out_of_range_workload_numbers_are_typed_errors() {
        assert_eq!(
            try_twqw(0).unwrap_err(),
            WorkloadError {
                family: "TwQW",
                n: 0,
                max: 6
            }
        );
        assert!(try_twqw(7).is_err());
        assert!(try_ebrqw(7).is_err());
        assert!(try_ciqw(4).is_err());
        let msg = try_ciqw(9).unwrap_err().to_string();
        assert!(msg.contains("CiQW9"), "{msg}");
        assert!(msg.contains("CiQW1..=3"), "{msg}");
        for n in 1..=6 {
            assert!(try_twqw(n).is_ok());
            assert!(try_ebrqw(n).is_ok());
        }
        for n in 1..=3 {
            assert!(try_ciqw(n).is_ok());
        }
    }

    fn type_histogram(spec: &WorkloadSpec, n: usize) -> [usize; 3] {
        let mut counts = [0usize; 3];
        let mut g = spec.generator();
        for i in 0..n {
            let q = g.query_at(i);
            counts[q.query_type().index() as usize] += 1;
        }
        counts
    }

    #[test]
    fn twqw2_is_pure_spatial() {
        let spec = twqw(2).with_total(1_000);
        let [s, k, h] = type_histogram(&spec, 1_000);
        assert_eq!((s, k, h), (1_000, 0, 0));
    }

    #[test]
    fn twqw4_is_pure_single_keyword() {
        let spec = twqw(4).with_total(1_000);
        let mut g = spec.generator();
        for i in 0..1_000 {
            let q = g.query_at(i);
            assert_eq!(q.query_type(), QueryType::Keyword);
            assert_eq!(q.keywords().len(), 1);
        }
    }

    #[test]
    fn twqw5_is_pure_multi_keyword() {
        let spec = twqw(5).with_total(500);
        let mut g = spec.generator();
        for i in 0..500 {
            let q = g.query_at(i);
            assert_eq!(q.query_type(), QueryType::Keyword);
            assert!(q.keywords().len() >= 2 && q.keywords().len() <= 5);
        }
    }

    #[test]
    fn twqw1_has_all_types_in_thirds() {
        let spec = twqw(1).with_total(6_000);
        let [s, k, h] = type_histogram(&spec, 6_000);
        // Rotating dominance evens out to roughly a third each.
        for (name, c) in [("spatial", s), ("keyword", k), ("hybrid", h)] {
            assert!(
                (1_400..=2_600).contains(&c),
                "{name} count {c} far from a third of 6000"
            );
        }
    }

    #[test]
    fn twqw1_composition_shifts_over_time() {
        let spec = twqw(1).with_total(6_000);
        let mut g = spec.generator();
        // First block is spatial-dominated, second keyword-dominated.
        let mut first = [0usize; 3];
        for i in 0..800 {
            first[g.query_at(i).query_type().index() as usize] += 1;
        }
        let mut second = [0usize; 3];
        for i in 1_000..1_800 {
            second[g.query_at(i).query_type().index() as usize] += 1;
        }
        assert!(
            first[0] > first[1] * 2,
            "block 1 not spatial-dominated: {first:?}"
        );
        assert!(
            second[1] > second[0] * 2,
            "block 2 not keyword-dominated: {second:?}"
        );
    }

    #[test]
    fn twqw6_differs_from_twqw1_in_order() {
        let w1 = twqw(1).with_total(4_000);
        let w6 = twqw(6).with_total(4_000);
        let mut g1 = w1.generator();
        let mut g6 = w6.generator();
        // Early TwQW1 is spatial-dominated; early TwQW6 keyword-dominated.
        let t1 = g1.query_at(10).query_type();
        let t6_counts = {
            let mut c = [0usize; 3];
            for i in 0..400 {
                c[g6.query_at(i).query_type().index() as usize] += 1;
            }
            c
        };
        let _ = t1;
        assert!(
            t6_counts[1] > t6_counts[0],
            "TwQW6 must start keyword-heavy"
        );
    }

    #[test]
    fn ebrqw1_is_spatial_with_wide_ranges() {
        let spec = ebrqw1().with_total(500);
        let mut g = spec.generator();
        let domain = spec.dataset().domain;
        for i in 0..500 {
            let q = g.query_at(i);
            assert_eq!(q.query_type(), QueryType::Spatial);
            let r = q.range().unwrap();
            assert!(domain.contains_rect(r));
            assert!(r.area() > 0.0);
        }
    }

    #[test]
    fn ciqw1_single_keyword_in_vocab() {
        let spec = ciqw1().with_total(500);
        let vocab = spec.dataset().vocab_size;
        let mut g = spec.generator();
        for i in 0..500 {
            let q = g.query_at(i);
            assert_eq!(q.keywords().len(), 1);
            assert!((q.keywords()[0].index()) < vocab);
        }
    }

    /// The object stream and the query stream are the ground truth of every
    /// equivalence suite and of the benchmark's `output_checksum`. FNV-1a
    /// over the first 10 000 Twitter objects and over TwQW1 (1 000 queries,
    /// so all six blocks are visited) must equal the values recorded while
    /// the generators still drew from `rand 0.8`'s `StdRng`.
    #[test]
    fn streams_are_bit_identical_to_recorded() {
        use geostream::persist::{checksum, Persist, PersistWriter};
        let mut w = PersistWriter::new();
        for o in DatasetSpec::twitter().generator().take(10_000) {
            o.persist(&mut w);
        }
        assert_eq!(checksum(&w.into_bytes()), 0x2ec6_7d1a_c27d_44f1, "objects");
        let spec = twqw(1).with_total(1_000);
        let mut g = spec.generator();
        let mut w = PersistWriter::new();
        for i in 0..1_000 {
            w.put_u64(g.query_at(i).signature().0);
        }
        assert_eq!(checksum(&w.into_bytes()), 0xdb94_337f_6ef5_48ca, "queries");
    }
    #[test]
    fn generators_are_deterministic() {
        let a: Vec<_> = {
            let spec = twqw(1).with_total(100);
            let mut g = spec.generator();
            (0..100).map(|i| g.query_at(i)).collect()
        };
        let b: Vec<_> = {
            let spec = twqw(1).with_total(100);
            let mut g = spec.generator();
            (0..100).map(|i| g.query_at(i)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not one of the evaluated workloads")]
    fn unknown_workload_panics() {
        let _ = twqw(9);
    }

    #[test]
    fn all_ebird_workloads_generate() {
        for n in 1..=6u8 {
            let spec = ebrqw(n).with_total(300);
            let mut g = spec.generator();
            for i in 0..300 {
                let _ = g.query_at(i);
            }
            assert!(spec.name().starts_with("EbRQW"));
        }
    }

    #[test]
    fn ebrqw2_is_pure_keyword() {
        let spec = ebrqw(2).with_total(300);
        let mut g = spec.generator();
        for i in 0..300 {
            assert_eq!(g.query_at(i).query_type(), QueryType::Keyword);
        }
    }

    #[test]
    fn ebrqw3_is_pure_hybrid() {
        let spec = ebrqw(3).with_total(300);
        let mut g = spec.generator();
        for i in 0..300 {
            assert_eq!(g.query_at(i).query_type(), QueryType::Hybrid);
        }
    }

    #[test]
    fn ciqw2_is_pure_spatial() {
        let spec = ciqw(2).with_total(300);
        let mut g = spec.generator();
        for i in 0..300 {
            assert_eq!(g.query_at(i).query_type(), QueryType::Spatial);
        }
    }

    #[test]
    fn ciqw3_mixes_types() {
        let spec = ciqw(3).with_total(900);
        let [s, k, h] = type_histogram(&spec, 900);
        assert!(s > 100 && k > 100 && h > 100, "not mixed: {s}/{k}/{h}");
    }

    #[test]
    #[should_panic(expected = "CiQW5 is not one of the evaluated workloads")]
    fn unknown_checkin_workload_panics() {
        let _ = ciqw(5);
    }
}
