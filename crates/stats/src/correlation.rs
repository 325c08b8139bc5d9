//! Correlation coefficients: Pearson, Spearman, Kendall tau-b.
//!
//! Section 4.1 of the paper uses *"the Kendall tau, a statistic
//! measure to evaluate the similarity of the orderings of the data
//! when ranked by each of the quantities"*. Search rankings contain
//! ties (equal scores), so we implement the tie-corrected tau-b, with
//! Knight's O(n log n) merge-sort formulation and an O(n²) reference
//! used by the property tests.

use crate::rank::{average_ranks, Direction};
use crate::StatsError;

fn check_pair(context: &'static str, x: &[f64], y: &[f64]) -> Result<(), StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::DimensionMismatch {
            context,
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::NotEnoughData {
            context,
            needed: 2,
            got: x.len(),
        });
    }
    Ok(())
}

/// Pearson product-moment correlation.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    check_pair("pearson", x, y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::Singular("pearson: zero variance"));
    }
    Ok((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// Spearman rank correlation (Pearson over average ranks, so ties are
/// handled correctly).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    check_pair("spearman", x, y)?;
    let rx = average_ranks(x, Direction::Ascending);
    let ry = average_ranks(y, Direction::Ascending);
    pearson(&rx, &ry)
}

/// Kendall tau-b with tie correction, Knight's O(n log n) algorithm.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    check_pair("kendall_tau_b", x, y)?;
    let n = x.len();

    // Sort indices by (x asc, y asc): within x-tie groups y is already
    // ordered, so y-inversions across the sorted sequence are exactly
    // the discordant pairs.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]).then(y[a].total_cmp(&y[b])));

    let pairs = |t: u64| t * (t - 1) / 2;
    let n0 = pairs(n as u64);

    // Ties in x, and joint ties in (x, y).
    let mut n1 = 0u64;
    let mut n3 = 0u64;
    {
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && x[order[j]] == x[order[i]] {
                j += 1;
            }
            n1 += pairs((j - i) as u64);
            // Joint-tie subgroups inside [i, j): y is sorted here.
            let mut k = i;
            while k < j {
                let mut l = k + 1;
                while l < j && y[order[l]] == y[order[k]] {
                    l += 1;
                }
                n3 += pairs((l - k) as u64);
                k = l;
            }
            i = j;
        }
    }

    // Count y-inversions (strict) with a merge sort.
    let mut ys: Vec<f64> = order.iter().map(|&i| y[i]).collect();
    let mut buf = vec![0.0; n];
    let swaps = merge_count(&mut ys, &mut buf);

    // Ties in y (ys is now sorted).
    let mut n2 = 0u64;
    {
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && ys[j] == ys[i] {
                j += 1;
            }
            n2 += pairs((j - i) as u64);
            i = j;
        }
    }

    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    if denom <= 0.0 {
        return Err(StatsError::Singular("kendall_tau_b: constant input"));
    }
    let concordant_minus_discordant =
        n0 as i64 - n1 as i64 - n2 as i64 + n3 as i64 - 2 * swaps as i64;
    Ok((concordant_minus_discordant as f64 / denom.sqrt()).clamp(-1.0, 1.0))
}

/// Counts strict inversions while merge-sorting `xs` in place.
fn merge_count(xs: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = xs.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = xs.split_at_mut(mid);
    let mut swaps = merge_count(left, buf) + merge_count(right, buf);
    // Merge into buf, then copy back.
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            buf[k] = right[j];
            j += 1;
            // Every remaining left element forms a strict inversion.
            swaps += (left.len() - i) as u64;
        }
        k += 1;
    }
    while i < left.len() {
        buf[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        buf[k] = right[j];
        j += 1;
        k += 1;
    }
    xs.copy_from_slice(&buf[..n]);
    swaps
}

/// O(n²) reference tau-b, used by property tests to validate the fast
/// path.
pub fn kendall_tau_b_reference(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    check_pair("kendall_tau_b_reference", x, y)?;
    let n = x.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                ties_x += 1;
                ties_y += 1;
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = ((n0 - ties_x) as f64) * ((n0 - ties_y) as f64);
    if denom <= 0.0 {
        return Err(StatsError::Singular("kendall_tau_b: constant input"));
    }
    Ok(((concordant - discordant) as f64 / denom.sqrt()).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        close(pearson(&x, &y).unwrap(), 1.0, 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        close(pearson(&x, &z).unwrap(), -1.0, 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // R: cor(c(1,2,3,4,5), c(2,1,4,3,5)) = 0.8
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        close(pearson(&x, &y).unwrap(), 0.8, 1e-12);
    }

    #[test]
    fn pearson_rejects_constant_series() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::Singular(_))
        ));
    }

    #[test]
    fn spearman_is_rank_invariant() {
        // Monotone transform leaves Spearman at 1.
        let x = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| f64::exp(*v)).collect();
        close(spearman(&x, &y).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn spearman_known_value_with_ties() {
        // R: cor(rank(c(1,2,2,4)), rank(c(10,20,20,40))) = 1
        let x = [1.0, 2.0, 2.0, 4.0];
        let y = [10.0, 20.0, 20.0, 40.0];
        close(spearman(&x, &y).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn kendall_perfect_orders() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        close(kendall_tau_b(&x, &y).unwrap(), 1.0, 1e-12);
        let rev: Vec<f64> = y.iter().rev().copied().collect();
        close(kendall_tau_b(&x, &rev).unwrap(), -1.0, 1e-12);
    }

    #[test]
    fn kendall_known_value() {
        // Hand count: C = 7, D = 3, n0 = 10 → tau = 0.4.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [3.0, 1.0, 4.0, 2.0, 5.0];
        close(kendall_tau_b(&x, &y).unwrap(), 0.4, 1e-12);
    }

    #[test]
    fn kendall_with_ties_known_value() {
        // Hand count: C = 4, D = 0, one x-tie, one y-tie, n0 = 6
        // → tau_b = 4 / √(5·5) = 0.8.
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        close(kendall_tau_b(&x, &y).unwrap(), 0.8, 1e-12);
    }

    #[test]
    fn fast_matches_reference_on_fixed_cases() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]),
            (vec![1.0, 1.0, 1.0, 2.0], vec![4.0, 3.0, 2.0, 1.0]),
            (
                vec![5.0, 3.0, 3.0, 8.0, 1.0, 9.0, 3.0],
                vec![2.0, 2.0, 7.0, 1.0, 1.0, 4.0, 4.0],
            ),
        ];
        for (x, y) in cases {
            close(
                kendall_tau_b(&x, &y).unwrap(),
                kendall_tau_b_reference(&x, &y).unwrap(),
                1e-12,
            );
        }
    }

    #[test]
    fn constant_input_is_singular() {
        assert!(kendall_tau_b(&[1.0, 1.0], &[2.0, 3.0]).is_err());
        assert!(kendall_tau_b(&[1.0, 2.0], &[3.0, 3.0]).is_err());
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(matches!(
            kendall_tau_b(&[1.0, 2.0], &[1.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn tau_fast_equals_reference(
                pairs in proptest::collection::vec((-50i32..50, -50i32..50), 2..60)
            ) {
                let x: Vec<f64> = pairs.iter().map(|p| p.0 as f64).collect();
                let y: Vec<f64> = pairs.iter().map(|p| p.1 as f64).collect();
                let fast = kendall_tau_b(&x, &y);
                let slow = kendall_tau_b_reference(&x, &y);
                match (fast, slow) {
                    (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-10, "{a} vs {b}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(false, "divergent results {a:?} vs {b:?}"),
                }
            }

            #[test]
            fn correlations_stay_in_unit_interval(
                pairs in proptest::collection::vec(
                    (-1000.0f64..1000.0, -1000.0f64..1000.0), 3..40
                )
            ) {
                let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
                if let Ok(r) = pearson(&x, &y) {
                    prop_assert!((-1.0..=1.0).contains(&r));
                }
                if let Ok(t) = kendall_tau_b(&x, &y) {
                    prop_assert!((-1.0..=1.0).contains(&t));
                }
                if let Ok(s) = spearman(&x, &y) {
                    prop_assert!((-1.0..=1.0).contains(&s));
                }
            }

            #[test]
            fn tau_is_antisymmetric_under_negation(
                pairs in proptest::collection::vec((-30i32..30, -30i32..30), 2..40)
            ) {
                let x: Vec<f64> = pairs.iter().map(|p| p.0 as f64).collect();
                let y: Vec<f64> = pairs.iter().map(|p| p.1 as f64).collect();
                let neg_y: Vec<f64> = y.iter().map(|v| -v).collect();
                if let (Ok(t), Ok(nt)) = (kendall_tau_b(&x, &y), kendall_tau_b(&x, &neg_y)) {
                    prop_assert!((t + nt).abs() < 1e-10);
                }
            }
        }
    }
}
