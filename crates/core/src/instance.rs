//! Problem instances `P = (T, m, beta, F)`.

use crate::cost::{Cost, Unit};
use crate::error::Error;
use serde::{Deserialize, Serialize};

/// An instance of the (general-model) data-center optimization problem:
/// horizon `T = costs.len()`, `m` homogeneous servers, power-up cost `beta`,
/// and one convex operating-cost function per time slot.
///
/// The convention throughout is the paper's eq. (1): switching cost is
/// charged for powering **up** only, and `x_0 = x_{T+1} = 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    m: u32,
    beta: f64,
    costs: Vec<Cost>,
}

impl Instance {
    /// Build an instance. `beta` must be positive and finite; `m >= 1`;
    /// every cost function must be convex and non-negative over `0..=m`
    /// ([`Cost::check_convex`]: O(1) for shapes convex by construction,
    /// O(m) for tables and load costs), since the offline solvers and the
    /// online bound trackers are only correct on convex costs.
    pub fn new(m: u32, beta: f64, costs: Vec<Cost>) -> Result<Self, Error> {
        if !(beta.is_finite() && beta > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "beta must be positive and finite, got {beta}"
            )));
        }
        if m == 0 {
            return Err(Error::InvalidParameter("m must be >= 1".into()));
        }
        for (t, f) in costs.iter().enumerate() {
            f.check_convex(m)
                .map_err(|msg| Error::NotConvex { t: t + 1, msg })?;
        }
        Ok(Self { m, beta, costs })
    }

    /// Empty instance to be grown online via [`Instance::push`].
    pub fn empty(m: u32, beta: f64) -> Result<Self, Error> {
        Self::new(m, beta, Vec::new())
    }

    /// Number of time slots `T`.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.costs.len()
    }

    /// Maximum number of servers `m`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Power-up cost `beta`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Cost function of slot `t`, **1-based** like the paper (`t in [T]`).
    #[inline]
    pub fn cost_fn(&self, t: usize) -> &Cost {
        &self.costs[t - 1]
    }

    /// All cost functions in slot order.
    #[inline]
    pub fn cost_fns(&self) -> &[Cost] {
        &self.costs
    }

    /// Append the next slot's cost function (online arrival).
    pub fn push(&mut self, f: Cost) {
        self.costs.push(f);
    }

    /// The prefix instance containing slots `1..=tau` (for the truncated
    /// workloads `C^L_tau`, `C^U_tau` of Section 3.1).
    pub fn prefix(&self, tau: usize) -> Instance {
        Instance {
            m: self.m,
            beta: self.beta,
            costs: self.costs[..tau].to_vec(),
        }
    }

    /// Pad `m` up to the next power of two per Section 2.2, extending each
    /// cost with `f'(x) = x * (f(m) + eps)` for `x > m`. Returns the padded
    /// instance (a no-op clone if `m` is already a power of two).
    pub fn pad_to_pow2(&self, eps: f64) -> Instance {
        let m2 = self.m.next_power_of_two();
        if m2 == self.m {
            return self.clone();
        }
        let costs = self
            .costs
            .iter()
            .map(|f| Cost::Padded {
                m_orig: self.m,
                eps,
                inner: Box::new(f.clone()),
            })
            .collect();
        Instance {
            m: m2,
            beta: self.beta,
            costs,
        }
    }

    /// The reduction `Psi_l(Phi_l(P))` of Section 2.3: keep only states that
    /// are multiples of `stride = 2^l` and renumber them `0..=m/stride`.
    /// State `x` of the reduced instance corresponds to `x * stride` here;
    /// `beta` scales by `stride` so costs are preserved exactly.
    ///
    /// Requires `stride >= 1` and `stride | m`.
    pub fn reduce(&self, stride: u32) -> Result<Instance, Error> {
        if stride == 0 || !self.m.is_multiple_of(stride) {
            return Err(Error::InvalidParameter(format!(
                "stride {stride} must divide m = {}",
                self.m
            )));
        }
        if stride == 1 {
            return Ok(self.clone());
        }
        let costs = self
            .costs
            .iter()
            .map(|f| {
                // f'(x) = f(x * stride), tabulated over the reduced range.
                let vals = (0..=self.m / stride).map(|x| f.eval(x * stride)).collect();
                Cost::table(vals)
            })
            .collect();
        Ok(Instance {
            m: self.m / stride,
            beta: self.beta * stride as f64,
            costs,
        })
    }
}

/// An instance of the **restricted model** (eq. 2): a single convex unit
/// cost `f(z)` for all slots and a per-slot arrival load `lambda_t`, subject
/// to `x_t >= lambda_t`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestrictedInstance {
    /// Maximum number of servers.
    pub m: u32,
    /// Power-up cost.
    pub beta: f64,
    /// Unit operating cost of one server at utilisation `z in [0, 1]`.
    pub unit: Unit,
    /// Arrival load per slot; `0 <= lambda_t <= m`.
    pub lambdas: Vec<f64>,
}

impl RestrictedInstance {
    /// Build and validate a restricted instance.
    pub fn new(m: u32, beta: f64, unit: Unit, lambdas: Vec<f64>) -> Result<Self, Error> {
        if !(beta.is_finite() && beta > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "beta must be positive and finite, got {beta}"
            )));
        }
        for (t, l) in lambdas.iter().enumerate() {
            if !(l.is_finite() && *l >= 0.0 && *l <= m as f64) {
                return Err(Error::InvalidParameter(format!(
                    "lambda_{} = {l} out of [0, m]",
                    t + 1
                )));
            }
        }
        Ok(Self {
            m,
            beta,
            unit,
            lambdas,
        })
    }

    /// Convert into a general-model [`Instance`], with slot cost
    /// `x * f(lambda_t / x)` and infinite cost for `x < lambda_t`.
    pub fn to_general(&self) -> Instance {
        let costs = self
            .lambdas
            .iter()
            .map(|&lambda| Cost::Load {
                lambda,
                unit: self.unit.clone(),
            })
            .collect();
        Instance {
            m: self.m,
            beta: self.beta,
            costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;

    fn toy() -> Instance {
        Instance::new(
            4,
            2.0,
            vec![
                Cost::phi1(1.0),
                Cost::phi0(1.0),
                Cost::quadratic(1.0, 2.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Instance::new(0, 1.0, vec![]).is_err());
        assert!(Instance::new(4, 0.0, vec![]).is_err());
        assert!(Instance::new(4, f64::NAN, vec![]).is_err());
        assert!(Instance::new(4, 1.0, vec![]).is_ok());
    }

    #[test]
    fn new_rejects_concave() {
        let bad = Cost::table(vec![0.0, 5.0, 6.0, 6.5, 6.6]);
        let err = Instance::new(4, 1.0, vec![Cost::Zero, bad]).unwrap_err();
        match err {
            Error::NotConvex { t, .. } => assert_eq!(t, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn one_based_access_matches_paper() {
        let inst = toy();
        assert_eq!(inst.horizon(), 3);
        assert_eq!(inst.cost_fn(1).eval(1), 0.0); // phi_1(1) = 0
        assert_eq!(inst.cost_fn(2).eval(0), 0.0); // phi_0(0) = 0
    }

    #[test]
    fn prefix_truncates() {
        let inst = toy();
        let p = inst.prefix(2);
        assert_eq!(p.horizon(), 2);
        assert_eq!(p.m(), inst.m());
        assert_eq!(p.beta(), inst.beta());
    }

    #[test]
    fn pad_to_pow2_roundtrip() {
        let inst = Instance::new(5, 1.5, vec![Cost::quadratic(1.0, 3.0, 0.0)]).unwrap();
        let padded = inst.pad_to_pow2(0.5);
        assert_eq!(padded.m(), 8);
        // Values below the original m are untouched.
        for x in 0..=5 {
            assert_eq!(padded.cost_fn(1).eval(x), inst.cost_fn(1).eval(x));
        }
        // Above, the (convexified) Section 2.2 extension applies:
        // f(5) + (x - 5) * (f(5) + 0.5).
        let f5 = inst.cost_fn(1).eval(5);
        assert_eq!(padded.cost_fn(1).eval(7), f5 + 2.0 * (f5 + 0.5));
        padded.cost_fn(1).check_convex(8).unwrap();
    }

    #[test]
    fn pad_noop_when_power_of_two() {
        let inst = Instance::new(8, 1.0, vec![Cost::Zero]).unwrap();
        let padded = inst.pad_to_pow2(0.1);
        assert_eq!(padded, inst);
    }

    #[test]
    fn reduce_preserves_costs() {
        let inst = Instance::new(8, 1.0, vec![Cost::quadratic(1.0, 3.0, 0.0)]).unwrap();
        let red = inst.reduce(4).unwrap();
        assert_eq!(red.m(), 2);
        assert_eq!(red.beta(), 4.0);
        // Reduced state 1 corresponds to original state 4.
        assert_eq!(red.cost_fn(1).eval(1), inst.cost_fn(1).eval(4));
    }

    #[test]
    fn reduce_composition_lemma1() {
        // Lemma 1 flavour: reduce(2^l) then reduce(2^{k-l}) == reduce(2^k).
        let costs: Vec<Cost> = (0..4)
            .map(|t| Cost::quadratic(0.5 + t as f64, (t * 2) as f64, 0.1))
            .collect();
        let inst = Instance::new(16, 1.25, costs).unwrap();
        let a = inst.reduce(4).unwrap().reduce(2).unwrap();
        let b = inst.reduce(8).unwrap();
        assert_eq!(a.m(), b.m());
        assert_eq!(a.beta(), b.beta());
        for t in 1..=inst.horizon() {
            for x in 0..=a.m() {
                assert_eq!(a.cost_fn(t).eval(x), b.cost_fn(t).eval(x));
            }
        }
    }

    #[test]
    fn reduce_rejects_bad_stride() {
        let inst = Instance::new(8, 1.0, vec![]).unwrap();
        assert!(inst.reduce(3).is_err());
        assert!(inst.reduce(0).is_err());
    }

    #[test]
    fn restricted_to_general() {
        let r = RestrictedInstance::new(
            2,
            2.0,
            Unit::AbsAffine {
                scale: 1.0,
                c0: 1.0,
                c1: 2.0,
            },
            vec![0.5, 1.0],
        )
        .unwrap();
        let g = r.to_general();
        assert_eq!(g.horizon(), 2);
        assert!(g.cost_fn(2).eval(0).is_infinite());
        assert!(g.cost_fn(1).eval(1).is_finite());
    }

    #[test]
    fn restricted_validates_lambda() {
        let unit = Unit::Affine {
            base: 0.0,
            slope: 1.0,
        };
        assert!(RestrictedInstance::new(2, 1.0, unit.clone(), vec![3.0]).is_err());
        assert!(RestrictedInstance::new(2, 1.0, unit, vec![-0.1]).is_err());
    }
}
