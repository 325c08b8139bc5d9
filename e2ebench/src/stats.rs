//! Order statistics over measured samples.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `samples`;
/// `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// How many samples lie strictly above the `q` quantile — the
/// "samples beyond the percentile" a reported tail rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |cut| samples.iter().filter(|&&s| s > cut).count())
}

/// The median over consecutive groups of `group` samples of
/// `statistic` of each group: an estimate that one slow stretch of a
/// run cannot move much. A run shorter than one group is one group.
pub fn grouped(
    samples: &[f64],
    group: usize,
    statistic: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    if samples.len() < group {
        return statistic(samples);
    }
    let values: Vec<f64> = samples.chunks_exact(group).filter_map(statistic).collect();
    median(&values)
}

/// Completions per second of a closed loop whose calls took `us`
/// microseconds each.
pub fn rate(us: &[f64]) -> Option<f64> {
    let secs = us.iter().sum::<f64>() / 1e6;
    (secs > 0.0).then(|| us.len() as f64 / secs)
}
