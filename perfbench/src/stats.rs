//! Order statistics over measured samples.

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank) of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Percentiles tried, highest first, when reporting a tail.
const TAILS: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAILS`] that has at least ten samples
/// strictly beyond its nearest rank, with its value. A "p99" over fewer
/// than a thousand samples is just one of the largest few values, so it
/// is never reported as one.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAILS.iter().find_map(|&p| {
        let rank = (n as f64 * p / 100.0).ceil() as usize;
        (n >= rank + 10 && rank >= 1).then(|| (p, percentile(samples, p).unwrap_or(0.0)))
    })
}

/// Arithmetic mean, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&s[..5]), None);
    }
}
