//! One-way ANOVA and Bonferroni post-hoc pairwise comparisons.
//!
//! Section 4.2: *"we used the ANOVA test […] A further post-hoc
//! analysis has then allowed us to make an ordinal comparison among
//! the different variables […] performed through the Bonferroni
//! test"*. Table 4 reports, per measure and per pair of account
//! kinds, whether the mean difference is `> 0`, `< 0` or `= 0`
//! together with the significance. [`one_way_anova`] and
//! [`bonferroni_pairwise`] regenerate those cells.

use crate::dist::{FisherF, StudentT};
use crate::StatsError;

/// Result of a one-way ANOVA.
#[derive(Debug, Clone, PartialEq)]
pub struct AnovaResult {
    /// F statistic.
    pub f_statistic: f64,
    /// p-value of the F test.
    pub p_value: f64,
    /// Between-groups degrees of freedom (k − 1).
    pub df_between: usize,
    /// Within-groups degrees of freedom (N − k).
    pub df_within: usize,
    /// Between-groups sum of squares.
    pub ss_between: f64,
    /// Within-groups sum of squares.
    pub ss_within: f64,
    /// Mean square within (the pooled variance reused by the
    /// post-hoc tests).
    pub ms_within: f64,
    /// Group means, in input order.
    pub group_means: Vec<f64>,
    /// Group sizes, in input order.
    pub group_sizes: Vec<usize>,
}

/// Direction of a paired mean difference, as printed in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifferenceDirection {
    /// First group's mean is significantly larger (`> 0`).
    Greater,
    /// First group's mean is significantly smaller (`< 0`).
    Less,
    /// No significant difference (`= 0`).
    Equal,
}

impl DifferenceDirection {
    /// Table 4 rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            DifferenceDirection::Greater => "> 0",
            DifferenceDirection::Less => "< 0",
            DifferenceDirection::Equal => "= 0",
        }
    }
}

impl std::fmt::Display for DifferenceDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One Bonferroni-adjusted pairwise comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseComparison {
    /// Index of the first group.
    pub group_a: usize,
    /// Index of the second group.
    pub group_b: usize,
    /// Mean difference `mean_a − mean_b`.
    pub mean_difference: f64,
    /// t statistic (pooled MSW variance).
    pub t_statistic: f64,
    /// Bonferroni-adjusted two-sided p-value (clamped to 1).
    pub p_adjusted: f64,
    /// Direction at the given significance threshold.
    pub direction: DifferenceDirection,
}

/// Runs a one-way ANOVA over `groups` (each slice is one group's
/// observations).
pub fn one_way_anova(groups: &[&[f64]]) -> Result<AnovaResult, StatsError> {
    let k = groups.len();
    if k < 2 {
        return Err(StatsError::NotEnoughData {
            context: "one_way_anova: groups",
            needed: 2,
            got: k,
        });
    }
    let n_total: usize = groups.iter().map(|g| g.len()).sum();
    for g in groups {
        if g.is_empty() {
            return Err(StatsError::NotEnoughData {
                context: "one_way_anova: empty group",
                needed: 1,
                got: 0,
            });
        }
    }
    if n_total <= k {
        return Err(StatsError::NotEnoughData {
            context: "one_way_anova: observations",
            needed: k + 1,
            got: n_total,
        });
    }

    let grand_mean: f64 = groups.iter().flat_map(|g| g.iter()).sum::<f64>() / n_total as f64;

    let mut group_means = Vec::with_capacity(k);
    let mut group_sizes = Vec::with_capacity(k);
    let mut ss_between = 0.0;
    let mut ss_within = 0.0;
    for g in groups {
        let m = g.iter().sum::<f64>() / g.len() as f64;
        ss_between += g.len() as f64 * (m - grand_mean) * (m - grand_mean);
        ss_within += g.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
        group_means.push(m);
        group_sizes.push(g.len());
    }

    let df_between = k - 1;
    let df_within = n_total - k;
    let ms_between = ss_between / df_between as f64;
    let ms_within = ss_within / df_within as f64;

    let (f_statistic, p_value) = if ms_within <= 0.0 {
        // All groups internally constant: either no effect at all or
        // an infinitely strong one.
        if ss_between <= 0.0 {
            (0.0, 1.0)
        } else {
            (f64::INFINITY, 0.0)
        }
    } else {
        let f = ms_between / ms_within;
        (f, FisherF::new(df_between as f64, df_within as f64)?.sf(f))
    };

    Ok(AnovaResult {
        f_statistic,
        p_value,
        df_between,
        df_within,
        ss_between,
        ss_within,
        ms_within,
        group_means,
        group_sizes,
    })
}

/// All pairwise comparisons with Bonferroni adjustment, using the
/// ANOVA's pooled within-group variance (the SPSS procedure the paper
/// followed). `alpha` is the family-wise significance threshold used
/// to call a direction (the paper uses 0.05).
pub fn bonferroni_pairwise(
    groups: &[&[f64]],
    alpha: f64,
) -> Result<Vec<PairwiseComparison>, StatsError> {
    let anova = one_way_anova(groups)?;
    let k = groups.len();
    let n_pairs = (k * (k - 1) / 2) as f64;
    let t_dist = StudentT::new(anova.df_within as f64)?;

    let mut out = Vec::with_capacity(k * (k - 1) / 2);
    for a in 0..k {
        for b in (a + 1)..k {
            let diff = anova.group_means[a] - anova.group_means[b];
            let (t, p_adj) = if anova.ms_within <= 0.0 {
                if diff == 0.0 {
                    (0.0, 1.0)
                } else {
                    (f64::INFINITY * diff.signum(), 0.0)
                }
            } else {
                let se = (anova.ms_within
                    * (1.0 / anova.group_sizes[a] as f64 + 1.0 / anova.group_sizes[b] as f64))
                    .sqrt();
                let t = diff / se;
                let p = t_dist.two_sided_p(t);
                (t, (p * n_pairs).min(1.0))
            };
            let direction = if p_adj < alpha {
                if diff > 0.0 {
                    DifferenceDirection::Greater
                } else {
                    DifferenceDirection::Less
                }
            } else {
                DifferenceDirection::Equal
            };
            out.push(PairwiseComparison {
                group_a: a,
                group_b: b,
                mean_difference: diff,
                t_statistic: t,
                p_adjusted: p_adj,
                direction,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn anova_matches_hand_computation() {
        // Classic textbook example.
        // g1 = [6,8,4,5,3,4], g2 = [8,12,9,11,6,8], g3 = [13,9,11,8,7,12]
        // F = 9.3, p ≈ 0.0023 (df 2, 15)
        let g1 = [6.0, 8.0, 4.0, 5.0, 3.0, 4.0];
        let g2 = [8.0, 12.0, 9.0, 11.0, 6.0, 8.0];
        let g3 = [13.0, 9.0, 11.0, 8.0, 7.0, 12.0];
        let res = one_way_anova(&[&g1, &g2, &g3]).unwrap();
        assert_eq!(res.df_between, 2);
        assert_eq!(res.df_within, 15);
        close(res.f_statistic, 9.3, 0.05);
        assert!(res.p_value < 0.01);
        close(res.group_means[0], 5.0, 1e-12);
        close(res.group_means[1], 9.0, 1e-12);
        close(res.group_means[2], 10.0, 1e-12);
    }

    #[test]
    fn identical_groups_give_f_zero() {
        let g = [1.0, 2.0, 3.0];
        let res = one_way_anova(&[&g, &g]).unwrap();
        close(res.f_statistic, 0.0, 1e-12);
        close(res.p_value, 1.0, 1e-9);
    }

    #[test]
    fn two_group_anova_equals_t_test_squared() {
        let a = [5.1, 4.9, 6.0, 5.5, 5.2];
        let b = [6.8, 7.2, 6.5, 7.0, 6.9];
        let res = one_way_anova(&[&a, &b]).unwrap();
        // Pooled two-sample t for these groups.
        let pairs = bonferroni_pairwise(&[&a, &b], 0.05).unwrap();
        assert_eq!(pairs.len(), 1);
        close(pairs[0].t_statistic.powi(2), res.f_statistic, 1e-9);
        // One pair => Bonferroni multiplier 1, so p values agree.
        close(pairs[0].p_adjusted, res.p_value, 1e-9);
    }

    #[test]
    fn directions_reflect_mean_ordering() {
        let low = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.05, 0.95];
        let mid = [5.0, 5.2, 4.8, 5.1, 4.9, 5.0, 5.05, 4.95];
        let high = [9.0, 9.2, 8.8, 9.1, 8.9, 9.0, 9.05, 8.95];
        let pairs = bonferroni_pairwise(&[&low, &mid, &high], 0.05).unwrap();
        assert_eq!(pairs.len(), 3);
        // (low, mid): low < mid
        assert_eq!(pairs[0].direction, DifferenceDirection::Less);
        // (low, high)
        assert_eq!(pairs[1].direction, DifferenceDirection::Less);
        // (mid, high)
        assert_eq!(pairs[2].direction, DifferenceDirection::Less);
        assert!(pairs.iter().all(|p| p.p_adjusted < 0.001));
    }

    #[test]
    fn overlapping_groups_are_equal() {
        let a = [4.9, 5.1, 5.0, 5.2, 4.8, 5.0];
        let b = [5.0, 5.05, 4.95, 5.15, 4.85, 5.05];
        let pairs = bonferroni_pairwise(&[&a, &b], 0.05).unwrap();
        assert_eq!(pairs[0].direction, DifferenceDirection::Equal);
        assert_eq!(pairs[0].direction.symbol(), "= 0");
    }

    #[test]
    fn bonferroni_inflates_p_values() {
        // Three groups → 3 comparisons → p multiplied by 3.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.5, 2.5, 3.5, 4.5, 5.5];
        let c = [10.0, 11.0, 12.0, 13.0, 14.0];
        let pairs = bonferroni_pairwise(&[&a, &b, &c], 0.05).unwrap();
        let anova = one_way_anova(&[&a, &b, &c]).unwrap();
        let t_dist = StudentT::new(anova.df_within as f64).unwrap();
        let raw_p = t_dist.two_sided_p(pairs[0].t_statistic);
        close(pairs[0].p_adjusted, (raw_p * 3.0).min(1.0), 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let g = [1.0, 2.0];
        assert!(one_way_anova(&[&g]).is_err());
        let empty: [f64; 0] = [];
        assert!(one_way_anova(&[&g, &empty]).is_err());
        let single_a = [1.0];
        let single_b = [2.0];
        assert!(one_way_anova(&[&single_a, &single_b]).is_err());
    }

    #[test]
    fn constant_groups_with_different_means() {
        let a = [2.0, 2.0, 2.0];
        let b = [3.0, 3.0, 3.0];
        let res = one_way_anova(&[&a, &b]).unwrap();
        assert!(res.f_statistic.is_infinite());
        close(res.p_value, 0.0, 1e-12);
        let pairs = bonferroni_pairwise(&[&a, &b], 0.05).unwrap();
        assert_eq!(pairs[0].direction, DifferenceDirection::Less);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn f_is_nonnegative_and_p_in_unit_interval(
                g1 in proptest::collection::vec(-100.0f64..100.0, 3..20),
                g2 in proptest::collection::vec(-100.0f64..100.0, 3..20),
                g3 in proptest::collection::vec(-100.0f64..100.0, 3..20),
            ) {
                let res = one_way_anova(&[&g1, &g2, &g3]).unwrap();
                prop_assert!(res.f_statistic >= 0.0);
                prop_assert!((0.0..=1.0).contains(&res.p_value));
                prop_assert!(res.ss_between >= -1e-9);
                prop_assert!(res.ss_within >= -1e-9);
            }

            #[test]
            fn pairwise_directions_are_antisymmetric_in_mean_sign(
                g1 in proptest::collection::vec(-50.0f64..50.0, 4..15),
                g2 in proptest::collection::vec(-50.0f64..50.0, 4..15),
            ) {
                let ab = bonferroni_pairwise(&[&g1, &g2], 0.05).unwrap();
                let ba = bonferroni_pairwise(&[&g2, &g1], 0.05).unwrap();
                prop_assert!((ab[0].mean_difference + ba[0].mean_difference).abs() < 1e-9);
                prop_assert!((ab[0].p_adjusted - ba[0].p_adjusted).abs() < 1e-9);
                let flipped = match ab[0].direction {
                    DifferenceDirection::Greater => DifferenceDirection::Less,
                    DifferenceDirection::Less => DifferenceDirection::Greater,
                    DifferenceDirection::Equal => DifferenceDirection::Equal,
                };
                prop_assert_eq!(ba[0].direction, flipped);
            }
        }
    }
}
