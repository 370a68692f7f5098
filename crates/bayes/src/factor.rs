//! Discrete factors and variable elimination — the exact-inference engine
//! under the Bayesian profiler.
//!
//! A [`Factor`] is a non-negative table over a sorted set of discrete
//! variables. Values are stored row-major with the **last** variable varying
//! fastest. Networks in this project are tiny (≤ ~12 variables of
//! cardinality ≤ 7), so exact variable elimination is cheap and fully
//! deterministic. [`eliminate_to_joint`] answers one query;
//! [`eliminate_marginals`] answers every single-variable query of one pool
//! with the elimination prefix they share run once, bit-identically.

use std::borrow::Cow;

/// A table over a sorted list of discrete variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Variable ids, strictly ascending.
    vars: Vec<usize>,
    /// Cardinality of each variable, aligned with `vars`.
    card: Vec<usize>,
    /// Row-major values, last variable fastest.
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor.
    ///
    /// # Panics
    /// Panics if `vars` is not strictly ascending, lengths mismatch, or the
    /// value count differs from the product of cardinalities.
    pub fn new(vars: Vec<usize>, card: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(vars.len(), card.len(), "vars/card length mismatch");
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "vars must be strictly ascending"
        );
        assert!(
            card.iter().all(|&c| c > 0),
            "cardinalities must be positive"
        );
        let size: usize = card.iter().product();
        assert_eq!(values.len(), size, "value count must equal the table size");
        Factor { vars, card, values }
    }

    /// The constant factor 1 over no variables.
    pub fn unit() -> Self {
        Factor {
            vars: vec![],
            card: vec![],
            values: vec![1.0],
        }
    }

    /// The factor's variables (ascending).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Cardinalities aligned with [`Factor::vars`].
    pub fn card(&self) -> &[usize] {
        &self.card
    }

    /// Raw values (row-major, last variable fastest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values — for the online learner's in-place CPT column
    /// renormalization (crate-internal; the table shape never changes).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty-scope unit factor.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Strides per variable for this factor's layout (last var stride 1).
    fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.vars.len()];
        for i in (0..self.vars.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.card[i + 1];
        }
        s
    }

    /// Value at a full assignment (aligned with `vars`).
    ///
    /// # Panics
    /// Panics if the assignment arity or any value is out of range.
    pub fn at(&self, assignment: &[usize]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.vars.len(),
            "assignment arity mismatch"
        );
        let strides = self.strides();
        let mut idx = 0;
        for (i, &a) in assignment.iter().enumerate() {
            assert!(a < self.card[i], "assignment out of range");
            idx += a * strides[i];
        }
        self.values[idx]
    }

    /// Pointwise product of two factors over the union of their scopes.
    pub fn product(&self, other: &Factor) -> Factor {
        // Union of scopes, merging cardinalities.
        let mut vars: Vec<usize> = Vec::new();
        let mut card: Vec<usize> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() || j < other.vars.len() {
            let take_left =
                j >= other.vars.len() || (i < self.vars.len() && self.vars[i] <= other.vars[j]);
            if take_left {
                let v = self.vars[i];
                vars.push(v);
                card.push(self.card[i]);
                if j < other.vars.len() && other.vars[j] == v {
                    assert_eq!(
                        other.card[j], self.card[i],
                        "cardinality conflict for var {v}"
                    );
                    j += 1;
                }
                i += 1;
            } else {
                vars.push(other.vars[j]);
                card.push(other.card[j]);
                j += 1;
            }
        }
        let size: usize = card.iter().product();
        // Map union positions to positions in each operand.
        let pos_of = |f: &Factor| -> Vec<Option<usize>> {
            vars.iter()
                .map(|v| f.vars.iter().position(|x| x == v))
                .collect()
        };
        let lpos = pos_of(self);
        let rpos = pos_of(other);
        let lstr = self.strides();
        let rstr = other.strides();

        // Per-union-variable strides into each operand (0 when absent), so
        // the enumeration below can walk both tables with an odometer
        // increment instead of a div/mod decode per entry. The (li, ri)
        // pair visited for every flat index is exactly the decoded
        // assignment's, so the output table is bit-identical.
        let lstr_u: Vec<usize> = (0..vars.len())
            .map(|k| lpos[k].map_or(0, |p| lstr[p]))
            .collect();
        let rstr_u: Vec<usize> = (0..vars.len())
            .map(|k| rpos[k].map_or(0, |p| rstr[p]))
            .collect();
        let mut values = vec![0.0; size];
        let mut assign = vec![0usize; vars.len()];
        let (mut li, mut ri) = (0usize, 0usize);
        for value in values.iter_mut() {
            *value = self.values[li] * other.values[ri];
            for k in (0..vars.len()).rev() {
                assign[k] += 1;
                li += lstr_u[k];
                ri += rstr_u[k];
                if assign[k] < card[k] {
                    break;
                }
                assign[k] = 0;
                li -= lstr_u[k] * card[k];
                ri -= rstr_u[k] * card[k];
            }
        }
        Factor { vars, card, values }
    }

    /// Sums out variable `var`, removing it from the scope.
    ///
    /// # Panics
    /// Panics if `var` is not in the factor's scope.
    pub fn sum_out(&self, var: usize) -> Factor {
        let p = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("var not in scope");
        let mut vars = self.vars.clone();
        let mut card = self.card.clone();
        vars.remove(p);
        let vcard = card.remove(p);
        let size: usize = card.iter().product();
        let strides = self.strides();
        // Source strides of the remaining variables, aligned with the
        // output scope; the output is enumerated with an odometer walk
        // (same `base` per entry as the decoded form — bit-identical, and
        // the inner summation order over `var` is unchanged).
        let rem_strides: Vec<usize> = (0..self.vars.len())
            .filter(|&k| k != p)
            .map(|k| strides[k])
            .collect();
        let mut values = vec![0.0; size];
        let mut assign = vec![0usize; vars.len()];
        let mut base = 0usize;
        for value in values.iter_mut() {
            let mut sum = 0.0;
            for v in 0..vcard {
                sum += self.values[base + v * strides[p]];
            }
            *value = sum;
            for k in (0..vars.len()).rev() {
                assign[k] += 1;
                base += rem_strides[k];
                if assign[k] < card[k] {
                    break;
                }
                assign[k] = 0;
                base -= rem_strides[k] * card[k];
            }
        }
        Factor { vars, card, values }
    }

    /// Conditions on `var = value`, removing it from the scope.
    ///
    /// # Panics
    /// Panics if `var` is not in scope or `value` is out of range.
    pub fn reduce(&self, var: usize, value: usize) -> Factor {
        let p = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("var not in scope");
        assert!(value < self.card[p], "evidence value out of range");
        let mut vars = self.vars.clone();
        let mut card = self.card.clone();
        vars.remove(p);
        card.remove(p);
        let size: usize = card.iter().product();
        let strides = self.strides();
        // Odometer walk over the remaining variables (see `sum_out`).
        let rem_strides: Vec<usize> = (0..self.vars.len())
            .filter(|&k| k != p)
            .map(|k| strides[k])
            .collect();
        let mut values = vec![0.0; size];
        let mut assign = vec![0usize; vars.len()];
        let mut idx = value * strides[p];
        for out in values.iter_mut() {
            *out = self.values[idx];
            for k in (0..vars.len()).rev() {
                assign[k] += 1;
                idx += rem_strides[k];
                if assign[k] < card[k] {
                    break;
                }
                assign[k] = 0;
                idx -= rem_strides[k] * card[k];
            }
        }
        Factor { vars, card, values }
    }

    /// Marginal over a subset of the scope (sums out everything else).
    ///
    /// # Panics
    /// Panics if `keep` contains a variable outside the scope.
    pub fn marginalize_to(&self, keep: &[usize]) -> Factor {
        for v in keep {
            assert!(self.vars.contains(v), "variable {v} not in scope");
        }
        let mut f = self.clone();
        let drop: Vec<usize> = self
            .vars
            .iter()
            .copied()
            .filter(|v| !keep.contains(v))
            .collect();
        for v in drop {
            f = f.sum_out(v);
        }
        f
    }

    /// Normalizes in place to sum 1; an all-zero factor becomes uniform.
    pub fn normalize(&mut self) {
        let sum: f64 = self.values.iter().sum();
        if sum > 0.0 {
            for v in &mut self.values {
                *v /= sum;
            }
        } else {
            let u = 1.0 / self.values.len() as f64;
            self.values.fill(u);
        }
    }

    /// Total mass.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// A working elimination pool: borrowed input factors plus the owned
/// intermediate results of the eliminations run so far.
type Pool<'a> = Vec<Cow<'a, Factor>>;

/// The ascending, deduplicated variables of `factors`.
fn scope_of(factors: &[Factor]) -> Vec<usize> {
    let mut vars: Vec<usize> = factors
        .iter()
        .flat_map(|f| f.vars().iter().copied())
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// One elimination step, shared by every entry point: multiplies all
/// factors mentioning `var` (in pool order), sums `var` out and appends
/// the result; factors without `var` keep their relative order.
///
/// The product starts from the first such factor itself rather than from
/// [`Factor::unit`]: multiplying by 1.0 is exact, so the values are the
/// same bits without the copy.
fn eliminate_var(pool: &mut Pool<'_>, var: usize) {
    let mut merged: Option<Cow<'_, Factor>> = None;
    let mut i = 0;
    while i < pool.len() {
        if pool[i].vars().contains(&var) {
            let f = pool.remove(i);
            merged = Some(match merged {
                None => f,
                Some(m) => Cow::Owned(m.product(&f)),
            });
        } else {
            i += 1;
        }
    }
    if let Some(m) = merged {
        pool.push(Cow::Owned(m.sum_out(var)));
    }
}

/// Multiplies what is left of `pool` into the normalized joint over
/// `targets` (starting from the first factor, as in [`eliminate_var`]).
fn joint_of(pool: &[Cow<'_, Factor>], targets: &[usize]) -> Factor {
    let mut rest = pool.iter();
    let mut joint = rest
        .next()
        .map_or_else(Factor::unit, |f| f.clone().into_owned());
    for f in rest {
        joint = joint.product(f);
    }
    // Present in canonical target order (ascending is automatic).
    let mut joint = if joint.vars() == targets {
        joint
    } else {
        joint.marginalize_to(targets)
    };
    joint.normalize();
    joint
}

/// Exact variable elimination.
///
/// Multiplies `factors` (each already reduced by evidence), eliminates every
/// variable not in `targets` (ascending order — networks here are tiny), and
/// returns the normalized joint over `targets`.
///
/// # Panics
/// Panics if a target variable does not appear in any factor.
pub fn eliminate_to_joint(factors: &[Factor], targets: &[usize]) -> Factor {
    // The working pool borrows the inputs (products only read them) and
    // owns nothing but the intermediate elimination results.
    let mut pool: Pool<'_> = factors.iter().map(Cow::Borrowed).collect();
    let scope = scope_of(factors);
    for t in targets {
        assert!(scope.contains(t), "target variable {t} not in any factor");
    }
    for v in scope {
        if !targets.contains(&v) {
            eliminate_var(&mut pool, v);
        }
    }
    joint_of(&pool, targets)
}

/// Every single-variable posterior [`eliminate_to_joint`] would return for
/// `targets`, one `eliminate_to_joint(factors, &[t])` per target, with
/// the shared eliminations run once.
///
/// Elimination runs in ascending variable order and skips only the
/// target, so the pool after eliminating every variable below `t` is the
/// same for all targets `≥ t`. This walks the targets in ascending order,
/// advancing one shared prefix pool, and resumes each target from a
/// borrowed snapshot of it. Each target sees exactly the operations, in
/// exactly the order, that its own `eliminate_to_joint` call runs, so the
/// results are bit-identical.
///
/// Returns the joints in `targets` order and the number of variable
/// eliminations run (per-target elimination would run `|scope| - 1` per
/// target).
///
/// # Panics
/// Panics if a target variable does not appear in any factor.
pub fn eliminate_marginals(factors: &[Factor], targets: &[usize]) -> (Vec<Factor>, u64) {
    let scope = scope_of(factors);
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| targets[i]);
    let mut prefix: Pool<'_> = factors.iter().map(Cow::Borrowed).collect();
    // `scope[..done]` is eliminated in `prefix`.
    let mut done = 0;
    let mut eliminations = 0;
    let mut joints: Vec<Option<Factor>> = vec![None; targets.len()];
    for i in order {
        let t = targets[i];
        let at = scope
            .binary_search(&t)
            .unwrap_or_else(|_| panic!("target variable {t} not in any factor"));
        for &v in &scope[done..at] {
            eliminate_var(&mut prefix, v);
            eliminations += 1;
        }
        done = at;
        let mut pool: Pool<'_> = prefix.iter().map(|f| Cow::Borrowed(&**f)).collect();
        for &v in &scope[at + 1..] {
            eliminate_var(&mut pool, v);
            eliminations += 1;
        }
        joints[i] = Some(joint_of(&pool, &[t]));
    }
    let joints = joints
        .into_iter()
        .map(|j| j.expect("every target visited"))
        .collect();
    (joints, eliminations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P(A) with P(A=1)=0.6.
    fn pa() -> Factor {
        Factor::new(vec![0], vec![2], vec![0.4, 0.6])
    }

    /// P(B|A): B=A with probability 0.9.
    fn pb_given_a() -> Factor {
        // Layout: vars [0,1], last var (B) fastest: (a0b0, a0b1, a1b0, a1b1).
        Factor::new(vec![0, 1], vec![2, 2], vec![0.9, 0.1, 0.1, 0.9])
    }

    #[test]
    fn product_of_independent_tables() {
        let f = pa().product(&Factor::new(vec![1], vec![2], vec![0.5, 0.5]));
        assert_eq!(f.vars(), &[0, 1]);
        assert!((f.at(&[1, 0]) - 0.3).abs() < 1e-12);
        assert!((f.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_is_commutative() {
        let ab = pa().product(&pb_given_a());
        let ba = pb_given_a().product(&pa());
        assert_eq!(ab.vars(), ba.vars());
        for (x, y) in ab.values().iter().zip(ba.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_gives_marginal() {
        let joint = pa().product(&pb_given_a());
        let pb = joint.sum_out(0);
        assert_eq!(pb.vars(), &[1]);
        // P(B=1) = 0.4*0.1 + 0.6*0.9 = 0.58.
        assert!((pb.at(&[1]) - 0.58).abs() < 1e-12);
    }

    #[test]
    fn reduce_conditions_on_evidence() {
        let joint = pa().product(&pb_given_a());
        let mut pa_given_b1 = joint.reduce(1, 1);
        pa_given_b1.normalize();
        // P(A=1|B=1) = 0.54 / 0.58.
        assert!((pa_given_b1.at(&[1]) - 0.54 / 0.58).abs() < 1e-12);
    }

    #[test]
    fn marginalize_to_subset() {
        let joint = pa().product(&pb_given_a());
        let m = joint.marginalize_to(&[0]);
        assert_eq!(m.vars(), &[0]);
        assert!((m.at(&[1]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_zero_mass() {
        let mut f = Factor::new(vec![0], vec![3], vec![0.0, 0.0, 0.0]);
        f.normalize();
        for &v in f.values() {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_factor_is_identity() {
        let f = pa();
        let g = Factor::unit().product(&f);
        assert_eq!(f, g);
    }

    #[test]
    fn elimination_matches_direct_marginalization() {
        let factors = vec![pa(), pb_given_a()];
        let pb = eliminate_to_joint(&factors, &[1]);
        assert!((pb.at(&[1]) - 0.58).abs() < 1e-12);
        assert!((pb.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elimination_with_evidence() {
        // Condition on B=1 by reducing the CPT before elimination.
        let factors = vec![pa(), pb_given_a().reduce(1, 1)];
        let pa_post = eliminate_to_joint(&factors, &[0]);
        assert!((pa_post.at(&[1]) - 0.54 / 0.58).abs() < 1e-12);
    }

    #[test]
    fn joint_over_multiple_targets() {
        let factors = vec![pa(), pb_given_a()];
        let j = eliminate_to_joint(&factors, &[0, 1]);
        assert_eq!(j.vars(), &[0, 1]);
        assert!((j.at(&[1, 1]) - 0.54).abs() < 1e-12);
    }

    /// A seeded random network over `card.len()` variables: one factor per
    /// variable over itself and its `parents`, with positive random
    /// entries, reduced by `evidence` the way `BayesNet::reduced_cpts`
    /// reduces CPTs.
    fn random_pool(
        seed: u64,
        card: &[usize],
        parents: &[Vec<usize>],
        evidence: &[(usize, usize)],
    ) -> Vec<Factor> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..card.len())
            .map(|v| {
                let mut vars = parents[v].clone();
                vars.push(v);
                vars.sort_unstable();
                let cards: Vec<usize> = vars.iter().map(|&u| card[u]).collect();
                let size = cards.iter().product();
                let values = (0..size).map(|_| 0.05 + rng.gen::<f64>()).collect();
                let mut f = Factor::new(vars, cards, values);
                for &(var, val) in evidence {
                    if f.vars().contains(&var) {
                        f = f.reduce(var, val);
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn shared_prefix_marginals_are_bit_identical_to_per_target_elimination() {
        let n = 6;
        let chain: Vec<Vec<usize>> = (0..n)
            .map(|v| if v == 0 { vec![] } else { vec![v - 1] })
            .collect();
        let fan_in: Vec<Vec<usize>> = (0..n)
            .map(|v| if v == n - 1 { (0..v).collect() } else { vec![] })
            .collect();
        let fan_out: Vec<Vec<usize>> = (0..n)
            .map(|v| if v == 0 { vec![] } else { vec![0] })
            .collect();
        let card = [3, 2, 4, 3, 2, 3];
        let some = [(1, 1), (3, 2)];
        let all_but_one = [(0, 2), (1, 0), (2, 3), (4, 1), (5, 0)];
        let mut cases = 0;
        for (shape, parents) in [
            ("chain", &chain),
            ("fan-in", &fan_in),
            ("fan-out", &fan_out),
        ] {
            for evidence in [&[][..], &some[..], &all_but_one[..]] {
                for seed in 0..4 {
                    let pool = random_pool(seed, &card, parents, evidence);
                    let targets: Vec<usize> = (0..n)
                        .filter(|v| evidence.iter().all(|&(e, _)| e != *v))
                        .collect();
                    let (joints, eliminations) = eliminate_marginals(&pool, &targets);
                    assert_eq!(joints.len(), targets.len());
                    for (&t, joint) in targets.iter().zip(&joints) {
                        let want = eliminate_to_joint(&pool, &[t]);
                        assert_eq!(joint.vars(), want.vars(), "{shape} seed {seed} var {t}");
                        let bits = |f: &Factor| -> Vec<u64> {
                            f.values().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(joint), bits(&want), "{shape} seed {seed} var {t}");
                    }
                    // The prefix is shared: at most the per-target count,
                    // strictly fewer once two targets share a prefix.
                    let u = targets.len() as u64;
                    let per_target = u * u.saturating_sub(1);
                    assert!(eliminations <= per_target, "{shape}: {eliminations}");
                    if u > 2 {
                        assert!(eliminations < per_target, "{shape}: {eliminations}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 36);

        // A single variable, and targets in any order (duplicates too):
        // results come back in `targets` order.
        let single = random_pool(9, &[4], &[vec![]], &[]);
        let (j, e) = eliminate_marginals(&single, &[0]);
        assert_eq!(j, vec![eliminate_to_joint(&single, &[0])]);
        assert_eq!(e, 0);
        let pool = random_pool(5, &card, &chain, &[]);
        let (j, _) = eliminate_marginals(&pool, &[4, 1, 4, 0]);
        for (joint, t) in j.iter().zip([4, 1, 4, 0]) {
            assert_eq!(joint, &eliminate_to_joint(&pool, &[t]));
        }
        assert!(eliminate_marginals(&pool, &[]).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "not in any factor")]
    fn shared_prefix_rejects_unknown_targets() {
        let _ = eliminate_marginals(&[pa()], &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_vars_panic() {
        let _ = Factor::new(vec![1, 0], vec![2, 2], vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "table size")]
    fn wrong_size_panics() {
        let _ = Factor::new(vec![0], vec![3], vec![0.5, 0.5]);
    }

    #[test]
    fn three_var_chain_inference() {
        // A -> B -> C, all binary, noisy copies (0.8 fidelity).
        let pa = Factor::new(vec![0], vec![2], vec![0.5, 0.5]);
        let pba = Factor::new(vec![0, 1], vec![2, 2], vec![0.8, 0.2, 0.2, 0.8]);
        let pcb = Factor::new(vec![1, 2], vec![2, 2], vec![0.8, 0.2, 0.2, 0.8]);
        // P(C=1 | A=1): 0.8*0.8 + 0.2*0.2 = 0.68.
        let factors = vec![pa.reduce(0, 1), pba.reduce(0, 1), pcb];
        let pc = eliminate_to_joint(&factors, &[2]);
        assert!((pc.at(&[1]) - 0.68).abs() < 1e-12);
    }
}
