//! Order statistics over wall-time samples.

/// Consecutive blocks a run's samples are cut into for [`block_median`].
pub const BLOCKS: usize = 9;

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median over [`BLOCKS`] consecutive blocks of equal sample count
/// (fewer when there are fewer samples) of `stat` applied to each block.
///
/// The benchmark shares its cores with other machines' work, which
/// comes in bursts lasting seconds and only ever adds time; whole-run
/// read throughput of one seed differed by up to 1.6x between runs. A
/// burst spoils the blocks it falls in, and the median ignores them
/// while they are fewer than half. Blocks are chosen by position, not
/// by their values, so a cost that grows over the run is reported as
/// its value in the middle block: the run's mean for a cost that grows
/// linearly, as a whole-run figure would report it.
pub fn block_median(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let blocks = BLOCKS.min(samples.len());
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| stat(&samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks]))
        .collect();
    quantile(&per_block, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn block_median_takes_the_middle_block() {
        // 18 samples, two per block, with a cost that grows with
        // position; one late block is disturbed.
        let mut samples: Vec<f64> = (0..18).map(|i| (i / 2) as f64).collect();
        samples[14] = 100.0;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        assert_eq!(block_median(&samples, mean), 4.0);
        assert_eq!(block_median(&[4.0], mean), 4.0);
        assert!(block_median(&[], mean).is_nan());
    }
}
