//! Order statistics for reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, its value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // The small epsilon keeps `0.99 * 1000` at rank 990 despite rounding.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample count that supports `q` (e.g. 1000 for p99).
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], q).is_some())
        .unwrap_or(usize::MAX)
}

/// Most equal-time slices [`sliced_percentiles`] cuts a run into.
pub const MAX_SLICES: usize = 9;

/// Percentiles `qs` of timed samples `(offset, value)`, each the median
/// over equal-time slices of the run of that slice's own percentile, with
/// the slice count. The run is cut into as many slices as every one of
/// them can support each of `qs` in (at most [`MAX_SLICES`]); `None` when
/// even the whole run cannot.
pub fn sliced_percentiles(samples: &[(f64, f64)], qs: &[f64]) -> Option<(usize, Vec<f64>)> {
    let span = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let need = qs.iter().map(|&q| samples_needed(q)).max().unwrap_or(1);
    let most = (samples.len() / need).clamp(1, MAX_SLICES);
    (1..=most).rev().find_map(|k| {
        let mut slices = vec![Vec::new(); k];
        for &(offset, value) in samples {
            let j = if span > 0.0 {
                ((offset / span * k as f64) as usize).min(k - 1)
            } else {
                0
            };
            slices[j].push(value);
        }
        let slices: Vec<Vec<f64>> = slices.into_iter().map(sorted).collect();
        let per_q: Option<Vec<f64>> = qs
            .iter()
            .map(|&q| {
                let each: Option<Vec<f64>> = slices.iter().map(|s| percentile(s, q)).collect();
                each.map(|v| median(&v))
            })
            .collect();
        per_q.map(|v| (k, v))
    })
}

/// Sort ascending (samples are finite durations).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Plain median of a small set of repeated measurements (set-up times),
/// where the percentile rule above does not apply.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| sorted((1..=n).map(|i| i as f64).collect());
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(9999), 0.999), None);
        assert_eq!(percentile(&ramp(10_000), 0.999), Some(9990.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond() {
        for n in 1..1200 {
            let s = sorted((0..n).map(|i| i as f64).collect());
            for q in [0.5, 0.9, 0.99] {
                if let Some(v) = percentile(&s, q) {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q}: {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn sliced_percentiles_take_the_median_slice() {
        // Three one-second slices of 1000 samples, [1..=1000] scaled by 1,
        // 5 and 2: the slow middle slice's p99 is not the result, the
        // median of the three slice percentiles is.
        let mut samples = Vec::new();
        for (j, scale) in [1.0, 5.0, 2.0].iter().enumerate() {
            for i in 1..=1000 {
                samples.push((j as f64 + i as f64 / 1001.0, scale * i as f64));
            }
        }
        let (k, p) = sliced_percentiles(&samples, &[0.5, 0.99]).unwrap();
        assert_eq!(k, 3);
        assert_eq!(p, vec![1000.0, 1980.0]);
        // Too few samples for three slices' p99: fewer, larger slices.
        let (k, _) = sliced_percentiles(&samples[..2999], &[0.99]).unwrap();
        assert_eq!(k, 2);
        assert_eq!(sliced_percentiles(&samples[..999], &[0.99]), None);
        // Never more than MAX_SLICES, whatever the sample count.
        let many: Vec<(f64, f64)> = (0..20_000).map(|i| (i as f64, 1.0)).collect();
        assert_eq!(sliced_percentiles(&many, &[0.99]).unwrap().0, MAX_SLICES);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
