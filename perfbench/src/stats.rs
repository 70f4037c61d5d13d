//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail is chosen from, in tenths of a percent, highest
/// first. The ladder stops at p90: every workload collects at least 100
/// samples of each tail metric, so the tail is p90 unless a run falls
/// short. A higher rung would change with the sample count, and with it
/// the metric, from run to run.
const LADDER: [usize; 3] = [900, 750, 500];

/// The tail of `xs`: the highest percentile of [`LADDER`] that still has
/// at least ten samples beyond it. Returns the value (nearest rank) and
/// the percentile; with ten or fewer samples, the maximum at `p100`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let v = sorted(xs);
    let n = v.len();
    for p in LADDER {
        let rank = (p * n).div_ceil(1000).max(1);
        if n - rank >= 10 {
            return (v[rank - 1], p as f64 / 10.0);
        }
    }
    (v[n - 1], 100.0)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th value.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (900.0, 90.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), (75.0, 75.0));
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }
}
