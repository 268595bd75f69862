//! Order statistics, gate calibration and energy accounting shared by
//! every workload.

use pivot_core::stays_low;
use pivot_sim::{AcceleratorConfig, LadderEnergy, Simulator, VitGeometry};

/// A nearest-rank percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples ranked strictly after it. A tail percentile is only
    /// meaningful when this is at least ten.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 1st percentile of `values` (the minimum for up to 100
/// samples). The host's vCPU runs in a fast and a slow mode, and the slow
/// mode is a stream of brief stalls; over repeated identical units of
/// work, the fastest units are the ones no stall hit, so this is the time
/// one unit takes on the undisturbed host. A slow stretch moves it only if
/// it covers the whole run.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn fast_time(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 1.0).value
}

/// Nearest-rank 99th percentile of `values`: the counterpart of
/// [`fast_time`] for rates.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn fast_rate(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 99.0).value
}

/// Largest share by which a figure's fast-mode estimate over the second
/// half of a run may differ from its estimate over the first half: the
/// bound `BENCHMARK.json` gives the timed metrics.
pub const HALVES_LIMIT: f64 = 0.25;

/// Checks that a figure estimated separately over the first and second
/// halves of a run agrees with itself, logging the ratio. [`fast_time`]
/// keeps the best units of work, so a cost that builds up over a run (a
/// leak, a growing allocator or page-fault bill) would only slow the
/// later units and be dropped; such a cost shows here instead.
pub fn check_halves(name: &str, first: f64, second: f64) -> Result<(), String> {
    let ratio = second / first;
    eprintln!("halves: {name} second/first {ratio:.4}");
    if (ratio - 1.0).abs() > HALVES_LIMIT || !ratio.is_finite() {
        return Err(format!(
            "{name} was {first:.4} over the first half of the run and {second:.4} over \
             the second; a fast-mode estimate over the whole run would hide that"
        ));
    }
    Ok(())
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The gate threshold Phase 2 would pick on a workload's own inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Entropy threshold `Th` for the level-0 gate.
    pub threshold: f32,
    /// Inputs that stay at level 0 under `threshold`.
    pub stays_low: usize,
}

/// The low-exit count an LEC asks for on `n` inputs: `ceil(lec * n)`.
pub fn lec_count(lec: f64, n: usize) -> usize {
    // The small slack keeps products such as 0.3 * 10 = 3.0000000000000004
    // from rounding up a whole extra input.
    ((lec * n as f64) - 1e-9).ceil().max(0.0) as usize
}

/// Picks the level-0 threshold so that `F_L` reaches `lec` on exactly
/// these entropies: the smallest achievable low-exit count that is at
/// least `ceil(lec * n)`, which is exactly `lec * n` whenever that is a
/// whole number and no entropies tie at the boundary.
///
/// The backbone is untrained, so its entropies all sit in a band far
/// narrower than a fixed threshold grid can resolve; the threshold is
/// therefore taken from the sorted entropies themselves.
pub fn calibrate_threshold(entropies: &[f32], lec: f64) -> Calibration {
    let n = entropies.len();
    let mut finite: Vec<f32> = entropies
        .iter()
        .copied()
        .filter(|e| e.is_finite())
        .collect();
    finite.sort_by(f32::total_cmp);
    let want = lec_count(lec, n);
    let count = |th: f32| entropies.iter().filter(|&&e| stays_low(e, th)).count();
    if want == 0 {
        return Calibration {
            threshold: 0.0,
            stays_low: count(0.0),
        };
    }
    for j in want..finite.len() {
        if finite[j - 1] < finite[j] && finite[j] < 1.0 {
            return Calibration {
                threshold: finite[j],
                stays_low: j,
            };
        }
    }
    Calibration {
        threshold: 1.0,
        stays_low: count(1.0),
    }
}

/// An input order that interleaves the two classes of `flags`
/// proportionally: every contiguous chunk of the result holds each
/// class's share of the chunk, to within one input. Relative order within
/// a class is kept.
pub fn stratified_order(flags: &[bool]) -> Vec<usize> {
    let count = |class: bool| flags.iter().filter(|&&f| f == class).count();
    let sizes = [count(false), count(true)];
    let mut seen = [0usize; 2];
    // Input j of a class with k members sits at (j + 1/2) / k along the
    // order; sorting by that position interleaves the classes evenly.
    let mut keyed: Vec<(f64, usize)> = flags
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let class = usize::from(f);
            let position = (seen[class] as f64 + 0.5) / sizes[class] as f64;
            seen[class] += 1;
            (position, i)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Level masks of the benchmark's two-level ladder: attentions {0, 4, 8}
/// at level 0, all twelve at level 1.
pub const LEVEL0_ATTENTIONS: [usize; 3] = [0, 4, 8];

/// PIVOT-Sim's DeiT-S cost table for the ladder's two masks on the ZCU102.
pub fn energy_ladder() -> LadderEnergy {
    let geom = VitGeometry::deit_s();
    let low: Vec<bool> = (0..geom.depth)
        .map(|i| LEVEL0_ATTENTIONS.contains(&i))
        .collect();
    let high = vec![true; geom.depth];
    LadderEnergy::from_masks(
        &Simulator::new(AcceleratorConfig::zcu102()),
        &geom,
        &[low, high],
    )
}

/// Mean simulated energy per image in mJ for the given exit levels.
///
/// # Panics
///
/// Panics if `exits` is empty or names a level beyond the ladder.
pub fn mean_energy_mj(ladder: &LadderEnergy, exits: &[usize]) -> f64 {
    assert!(!exits.is_empty(), "energy of no requests");
    let total: f64 = exits.iter().map(|&l| ladder.request_energy_j(l)).sum();
    total / exits.len() as f64 * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_sim::combine_efforts;
    use pivot_tensor::Rng;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&sorted, 50.0),
            Percentile {
                value: 50.0,
                beyond: 50
            }
        );
        assert_eq!(
            percentile(&sorted, 90.0),
            Percentile {
                value: 90.0,
                beyond: 10
            }
        );
        assert_eq!(percentile(&sorted, 99.0).beyond, 1);
        assert_eq!(percentile(&sorted, 100.0).value, 100.0);
        // Ranks round up: the 90th percentile of 15 samples is the 14th.
        let small: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(
            percentile(&small, 90.0),
            Percentile {
                value: 14.0,
                beyond: 1
            }
        );
        assert_eq!(
            percentile(&[7.0], 50.0),
            Percentile {
                value: 7.0,
                beyond: 0
            }
        );
    }

    #[test]
    fn median_and_fast_mode_estimates_handle_small_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(fast_time(&five), 1.0);
        assert_eq!(fast_rate(&five), 5.0);
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(fast_time(&two_hundred), 2.0);
        assert_eq!(fast_rate(&two_hundred), 198.0);
    }

    #[test]
    fn halves_fail_only_beyond_the_limit() {
        assert!(check_halves("t", 10.0, 12.4).is_ok());
        assert!(check_halves("t", 10.0, 7.6).is_ok());
        assert!(check_halves("t", 10.0, 12.6).is_err());
        assert!(check_halves("t", 10.0, 7.4).is_err());
        assert!(check_halves("t", 0.0, 1.0).is_err());
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "tensor.gemm_f32.us",
            "vit.level0.ms_per_img",
            "9-lives",
        ] {
            assert!(is_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "semi;colon",
            "slash/es",
            "ü",
        ] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        assert!(is_metric_name(&"a".repeat(64)));
        assert!(!is_metric_name(&"a".repeat(65)));
    }

    fn entropies(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.uniform(0.9979, 0.9986)).collect()
    }

    #[test]
    fn calibration_hits_the_lec_exactly() {
        for (n, lec) in [(10, 0.3), (320, 0.8), (320, 0.5), (16, 0.25), (7, 1.0)] {
            let e = entropies(n, n as u64);
            let cal = calibrate_threshold(&e, lec);
            let low = e.iter().filter(|&&x| stays_low(x, cal.threshold)).count();
            assert_eq!(low, cal.stays_low);
            assert_eq!(low as f64, (lec * n as f64).round(), "n {n} lec {lec}");
        }
    }

    #[test]
    fn calibration_rounds_up_and_steps_over_ties() {
        // 0.3 of 16 is 4.8: five inputs must stay low, not four.
        let e = entropies(16, 3);
        assert_eq!(calibrate_threshold(&e, 0.3).stays_low, 5);
        // A tie straddling the boundary keeps both tied inputs low.
        let tied = [0.1, 0.2, 0.2, 0.3];
        let cal = calibrate_threshold(&tied, 0.5);
        assert_eq!(cal.stays_low, 3);
        assert_eq!(
            tied.iter()
                .filter(|&&x| stays_low(x, cal.threshold))
                .count(),
            3
        );
        // Faulted (NaN) entropies never stay low.
        let cal = calibrate_threshold(&[0.5, f32::NAN], 1.0);
        assert_eq!(cal.stays_low, 1);
        assert_eq!(calibrate_threshold(&[0.5, 0.6], 0.0).stays_low, 0);
    }

    #[test]
    fn stratified_order_spreads_each_class_evenly_over_chunks() {
        for (n, ones, chunk) in [
            (320, 64, 32),
            (16, 11, 8),
            (10, 7, 8),
            (320, 160, 32),
            (5, 0, 2),
        ] {
            let mut flags = vec![false; n];
            let mut rng = Rng::new(n as u64);
            for i in rng.sample_indices(n, ones) {
                flags[i] = true;
            }
            let order = stratified_order(&flags);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation");
            for c in order.chunks(chunk) {
                let got = c.iter().filter(|&&i| flags[i]).count() as f64;
                let share = ones as f64 * c.len() as f64 / n as f64;
                assert!(
                    (got - share).abs() <= 1.0,
                    "n {n} ones {ones}: {got} vs {share}"
                );
            }
        }
    }

    #[test]
    fn mean_energy_equals_combine_efforts_at_the_realized_f_low() {
        let ladder = energy_ladder();
        for (n, low) in [(10, 3), (320, 256), (320, 160), (5, 5), (5, 0)] {
            let exits: Vec<usize> = (0..n).map(|i| usize::from(i >= low)).collect();
            let f_low = low as f64 / n as f64;
            let combined = combine_efforts(ladder.level(0), ladder.level(1), f_low);
            let mean = mean_energy_mj(&ladder, &exits);
            let expected = combined.energy_j() * 1e3;
            assert!(
                (mean - expected).abs() <= 1e-12 * expected,
                "n {n} low {low}: {mean} vs {expected}"
            );
        }
    }
}
