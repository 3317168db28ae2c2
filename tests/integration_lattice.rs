//! Tier-1 slice of the configuration lattice: a fixed-seed run of the
//! core crate's lattice property (`crates/core/tests/lattice.rs`) over
//! the same harness, so `cargo test -q` at the root exercises every
//! lattice point — layout × partitions × delta × cache tier × tracing ×
//! budget — against the canonical monolith, plus the full-expansion,
//! ε, batch and counter checks the harness makes.

use proptest::prelude::*;

#[path = "../crates/query/tests/support/gen.rs"]
pub mod gen;
#[path = "../crates/core/tests/support/lattice.rs"]
pub mod lattice;

/// Cases the slice runs; cases are seeded from the test's name, so the
/// slice is the same on every run. Ten is the fewest whose slice holds a
/// case with k answers (at 8 or 9 none has), and they run in about 4 s
/// in debug.
const CASES: u32 = 10;

#[test]
fn every_lattice_point_of_a_fixed_slice_answers_as_the_canonical_point() {
    let strategy = lattice::case_strategy();
    let mut rng = proptest::test_runner::TestRng::for_test("lattice_tier1_slice");
    let mut total = lattice::Coverage::default();
    for _ in 0..CASES {
        let coverage = lattice::check_case(&strategy.generate(&mut rng));
        assert_eq!(coverage.points, lattice::POINTS);
        total.points += coverage.points;
        total.expansion |= coverage.expansion;
        total.live_delta |= coverage.live_delta;
        total.answered |= coverage.answered;
        total.cut |= coverage.cut;
    }
    assert_eq!(total.points, CASES as usize * lattice::POINTS);
    assert!(
        total.expansion,
        "no case of the slice was checked against full expansion"
    );
    assert!(total.live_delta, "no case of the slice served a live delta");
    assert!(
        total.answered && total.cut,
        "no case of the slice had answers, or k of them"
    );
}
