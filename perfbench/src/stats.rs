//! Order statistics over timing samples.

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of integer samples (sorts in place).
pub fn median_u64(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2] as f64,
        n => (samples[n / 2 - 1] as f64 + samples[n / 2] as f64) / 2.0,
    }
}

/// Lower quartile of integer samples, nearest rank from below (sorts in
/// place): the second smallest of 5, the fourth of 15.
pub fn lower_quartile_u64(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    match samples.len() {
        0 => 0.0,
        n => samples[(n - 1) / 4] as f64,
    }
}

/// Median of float samples (sorts in place, total order).
pub fn median_f64(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn lower_quartile_is_nearest_rank_from_below() {
        assert_eq!(lower_quartile_u64(&mut []), 0.0);
        assert_eq!(lower_quartile_u64(&mut [7]), 7.0);
        assert_eq!(lower_quartile_u64(&mut [5, 4, 3, 2, 1]), 2.0);
        let mut v: Vec<u64> = (1..=15).rev().collect();
        assert_eq!(lower_quartile_u64(&mut v), 4.0);
    }

    #[test]
    fn medians_average_the_middle_pair() {
        assert_eq!(median_u64(&mut [4, 1, 3, 2]), 2.5);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
