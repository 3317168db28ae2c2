//! The restriction property's oracle, shared by this crate's and
//! `trinit-shard`'s property tests: an [`IncrementalMerge`] restricted to
//! a retired stream's keys must emit exactly the filtered sorted stream.

use std::rc::Rc;

use trinit_query::exec::join::KeySet;
use trinit_query::exec::merge::{IncrementalMerge, Merged};
use trinit_query::ExecMetrics;
use trinit_relax::{QPattern, QTerm, VarId};
use trinit_xkg::{TermId, TermKind, Triple, TripleId};

/// One emission as the property compares them: triple, probability
/// bits, alternative.
type Emission = (TripleId, u64, u32);

fn emission(m: &Merged) -> Emission {
    (m.triple, m.prob.to_bits(), m.alt)
}

/// Pulls up to `n` emissions.
pub fn drain(merge: &mut IncrementalMerge<'_>, n: usize) -> Vec<Merged> {
    let mut metrics = ExecMetrics::default();
    std::iter::from_fn(|| merge.next_merged(&mut metrics))
        .take(n)
        .collect()
}

/// `pattern`'s distinct variables, or — by `pick` — just one of them:
/// the join variables a retired partner's keys bind.
pub fn key_vars(pattern: &QPattern, pick: usize) -> Vec<VarId> {
    let mut vars: Vec<VarId> = pattern.vars().collect();
    vars.sort_unstable();
    vars.dedup();
    match pick % (vars.len() + 1) {
        0 => vars,
        i => vec![vars[i - 1]],
    }
}

/// Raw resource-index triples as key values for `n` variables.
pub fn key_values(raw: &[(u32, u32, u32)], n: usize) -> Vec<Vec<TermId>> {
    let tid = |i| TermId::new(TermKind::Resource, i);
    raw.iter()
        .map(|&(a, b, c)| [tid(a), tid(b), tid(c)][..n].to_vec())
        .collect()
}

/// The emissions a merge restricted to `keys` over `vars` keeps: those
/// of an alternative that does not bind every variable of `vars`, and
/// those whose values there (`triple_of` resolves the emitted id) form
/// one of `keys`.
fn keep_keyed(
    merge: &IncrementalMerge<'_>,
    triple_of: impl Fn(TripleId) -> Triple,
    vars: &[VarId],
    keys: &[Vec<TermId>],
    emissions: &[Merged],
) -> Vec<Emission> {
    emissions
        .iter()
        .filter(|m| {
            let terms = merge.alternative(m.alt).pattern.slots();
            let t = triple_of(m.triple);
            let values: Option<Vec<TermId>> = vars
                .iter()
                .map(|&v| {
                    let slot = terms.iter().position(|&q| q == QTerm::Var(v))?;
                    Some([t.s, t.p, t.o][slot])
                })
                .collect();
            values.is_none_or(|values| keys.contains(&values))
        })
        .map(emission)
        .collect()
}

/// The property over twin merges: `reference` drains in full; `twin`
/// emits `at` items, is restricted to `keys` over `vars`, and drains the
/// rest. The twin's sequence must be the reference's prefix followed by
/// its [`keep_keyed`] suffix, emission for emission.
pub fn assert_restriction_filters(
    mut reference: IncrementalMerge<'_>,
    mut twin: IncrementalMerge<'_>,
    triple_of: impl Fn(TripleId) -> Triple,
    vars: &[VarId],
    keys: &[Vec<TermId>],
    at: usize,
) {
    let full = drain(&mut reference, usize::MAX);
    let at = at.min(full.len());
    let mut got: Vec<Emission> = drain(&mut twin, at).iter().map(emission).collect();
    twin.restrict(
        &Rc::new(KeySet::new(vars, keys)),
        &mut ExecMetrics::default(),
    );
    got.extend(drain(&mut twin, usize::MAX).iter().map(emission));
    let mut want: Vec<Emission> = full[..at].iter().map(emission).collect();
    want.extend(keep_keyed(&twin, triple_of, vars, keys, &full[at..]));
    assert_eq!(
        got,
        want,
        "restricted at {at} of {} to {keys:?} over {vars:?}",
        full.len()
    );
}
