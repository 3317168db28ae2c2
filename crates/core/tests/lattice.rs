//! The configuration lattice property: every store configuration —
//! layout, partitions, delta, cache tier, tracing, budget — answers as
//! the canonical monolith does (see `support/lattice.rs`), and the
//! canonical point as full expansion, checked alone on many more cases
//! because it is cheap. The root `tests/integration_lattice.rs` runs the
//! same harness on a fixed 10-case slice in tier-1.

use proptest::prelude::*;

#[path = "../../query/tests/support/gen.rs"]
pub mod gen;
#[path = "support/lattice.rs"]
pub mod lattice;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_lattice_point_answers_as_the_canonical_point(case in lattice::case_strategy()) {
        let coverage = lattice::check_case(&case);
        prop_assert_eq!(coverage.points, lattice::POINTS);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_canonical_point_answers_as_full_expansion(case in lattice::case_strategy()) {
        lattice::check_against_expansion(&case);
    }
}
