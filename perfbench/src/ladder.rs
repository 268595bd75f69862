//! The ladder every workload runs and the set-up every run times as
//! `setup_s`: build and prepare the two-level tiny ladder, generate the
//! inputs, calibrate the gate on them and warm up each level.

use crate::stats::{
    calibrate_threshold, fast_time, lec_count, stratified_order, LEVEL0_ATTENTIONS,
};
use pivot_core::{evaluate_guarded_slice, stays_low, Parallelism};
use pivot_data::{Dataset, DatasetConfig};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{PreparedModel, PreparedStore, VisionTransformer, VitConfig};
use std::time::Instant;

/// Salts separating the streams derived from one `--seed`.
pub const BACKBONE_SALT: u64 = 1;
/// Salt of the image stream.
const IMAGES_SALT: u64 = 2;
/// Salt of the serving arrival stream.
pub const ARRIVALS_SALT: u64 = 3;
/// Salt of the random activations the layer probes run on.
pub const PROBE_SALT: u64 = 4;

/// Difficulties the inputs cycle through, easy to hard.
const DIFFICULTIES: [f32; 4] = [0.2, 0.4, 0.6, 0.8];

/// Images per `evaluate_guarded_slice` call, and the largest coalesced
/// serving batch.
pub const BATCH: usize = 32;
/// Images in the input set (a multiple of the four difficulties).
pub const IMAGES: usize = 320;
/// Nominal seconds one offline pass over the inputs takes; `--seconds`
/// divided by it fixes the number of whole passes, so both sides of a
/// comparison measure identical work.
pub const PASS_SECONDS: f64 = 0.3;
/// Set-ups timed in one run; `setup_s` is built from their fast-mode
/// step times.
pub const SETUP_REPS: usize = 16;
/// How far above `ceil(LEC * n)` the calibrated low-exit count may land.
/// Only entropies that tie at the boundary push it up, and with distinct
/// inputs a tie of more than four is all but impossible; a larger excess
/// means the entropies have collapsed.
const MAX_BOUNDARY_TIE: usize = 3;

/// The backbone geometry: `VitConfig::tiny()` (dim 64, 17 tokens).
pub fn config() -> VitConfig {
    VitConfig::tiny()
}

/// A seed for one stream, derived from the workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The workload's seeded, untrained backbone.
pub fn backbone(seed: u64) -> VisionTransformer {
    VisionTransformer::new(&config(), &mut Rng::new(derive_seed(seed, BACKBONE_SALT)))
}

/// Offline passes measured for a run of `seconds`.
pub fn passes(seconds: u64) -> usize {
    ((seconds as f64 / PASS_SECONDS).ceil() as usize).max(4)
}

/// A prepared ladder with its inputs and calibrated gate.
#[derive(Debug)]
pub struct Ladder {
    /// Level 0 (attentions {0, 4, 8}) then level 1 (all attentions).
    pub levels: Vec<PreparedModel>,
    /// Low-effort constraint the gate was calibrated for.
    pub lec: f64,
    /// Level-0 gate threshold picked on `images` for `lec`.
    pub threshold: f32,
    /// Inputs that stay at level 0 under `threshold`.
    pub stays_low: usize,
    /// The generated inputs, escalating ones dealt evenly over batches.
    pub images: Vec<Matrix>,
    /// Seconds spent preparing the backbone.
    pub prepare_s: f64,
    /// Seconds spent generating the inputs.
    pub gen_s: f64,
    /// Wall seconds of each step of the set-up, in order (see
    /// [`SetupTimes`]).
    pub steps: Vec<f64>,
}

impl Ladder {
    /// Builds everything a timed pass needs from the workload seed, with
    /// the gate calibrated so that a share `lec` of the inputs stays low.
    pub fn build(lec: f64, seed: u64) -> Self {
        let mut steps = Vec::new();
        let mut step = Instant::now();
        let mut lap = |steps: &mut Vec<f64>| {
            steps.push(step.elapsed().as_secs_f64());
            step = Instant::now();
        };
        let mut backbone = backbone(seed);
        backbone.set_active_attentions(&LEVEL0_ATTENTIONS);
        let store = PreparedStore::new();
        let t = Instant::now();
        let low = backbone.prepare_in(&store);
        let prepare_s = t.elapsed().as_secs_f64();
        // Level 1 is a re-view of the same prepared weights: 0 new bytes.
        let all: Vec<usize> = (0..config().depth).collect();
        let high = low.with_active_attentions(&all);
        let levels = vec![low, high];
        lap(&mut steps);

        let images = generate_images(seed);
        lap(&mut steps);
        let gen_s = *steps.last().expect("just timed");

        // Calibration runs level 0 over every input, which also warms it.
        let mut entropies = Vec::with_capacity(images.len());
        for chunk in images.chunks(BATCH) {
            let refs: Vec<&Matrix> = chunk.iter().collect();
            let (outcomes, _) = evaluate_guarded_slice(&levels, &[1.0], 0, &refs, Parallelism::Off);
            entropies.extend(outcomes.iter().map(|o| o.low_entropy));
            lap(&mut steps);
        }
        let cal = calibrate_threshold(&entropies, lec);
        // Deal the escalating inputs evenly over the batches, so every
        // seed gives each batch the same amount of work.
        let low: Vec<bool> = entropies
            .iter()
            .map(|&e| stays_low(e, cal.threshold))
            .collect();
        let mut slots: Vec<Option<Matrix>> = images.into_iter().map(Some).collect();
        let images: Vec<Matrix> = stratified_order(&low)
            .into_iter()
            .map(|i| slots[i].take().expect("a permutation"))
            .collect();
        lap(&mut steps);
        std::hint::black_box(levels[1].forward_batch(&images[..BATCH]));
        lap(&mut steps);
        Self {
            levels,
            lec,
            threshold: cal.threshold,
            stays_low: cal.stays_low,
            images,
            prepare_s,
            gen_s,
            steps,
        }
    }

    /// The inputs as the borrowed batches one pass evaluates.
    pub fn batches(&self) -> Vec<Vec<&Matrix>> {
        self.images
            .chunks(BATCH)
            .map(|c| c.iter().collect())
            .collect()
    }

    /// Whether the calibration met the LEC: at least `ceil(lec * n)`
    /// inputs stay low, and at most [`MAX_BOUNDARY_TIE`] more. Logs why
    /// not.
    pub fn gate_meets_lec(&self) -> bool {
        let want = lec_count(self.lec, self.images.len());
        let ok = self.stays_low >= want && self.stays_low - want <= MAX_BOUNDARY_TIE;
        if !ok {
            eprintln!(
                "check: calibration keeps {} of {} inputs low, LEC {} asks for {want}",
                self.stays_low,
                self.images.len(),
                self.lec
            );
        }
        ok
    }
}

/// The workload's seeded input images, easy to hard in equal shares.
fn generate_images(seed: u64) -> Vec<Matrix> {
    let c = config();
    let config = DatasetConfig {
        classes: c.num_classes,
        image_size: c.image_size,
        train_per_class: 0,
        test_per_class: 0,
        difficulty: (0.0, 1.0),
    };
    Dataset::generate_difficulty_stripes(
        &config,
        &DIFFICULTIES,
        IMAGES / DIFFICULTIES.len(),
        derive_seed(seed, IMAGES_SALT),
    )
    .into_iter()
    .map(|s| s.image)
    .collect()
}

/// Set-up times of one run, step by step. The set-up is a chain of
/// short steps (preparing the ladder, generating the inputs, each
/// calibration batch, ordering, the warm-up), each short enough to fall
/// between the host's stalls, as a batch of a pass does. The first set-up
/// is timed from the start of `main`; the rest are repeated between timed
/// units of work, so that they sample the whole run rather than its first
/// seconds. `setup_s` is the sum over the steps of each step's
/// [`fast_time`] over the repetitions, as a pass's time is the sum over
/// its batches.
#[derive(Debug)]
pub struct SetupTimes {
    reps: Vec<Vec<f64>>,
    units: usize,
    done: usize,
}

impl SetupTimes {
    /// Starts the record with the first set-up, whose `steps` ran from
    /// `started` until now, ahead of `units` timed units of work. Time
    /// between `started` and the first step is charged to the first step.
    pub fn first(started: Instant, mut steps: Vec<f64>, units: usize) -> Self {
        let untimed = started.elapsed().as_secs_f64() - steps.iter().sum::<f64>();
        steps[0] += untimed.max(0.0);
        let mut reps = Vec::with_capacity(SETUP_REPS);
        reps.push(steps);
        Self {
            reps,
            units,
            done: 0,
        }
    }

    /// Call after each timed unit of work: runs `build`, which sets up
    /// anew and returns the step times, whenever the units done so far
    /// call for another set-up, so the repetitions are spread evenly over
    /// the run.
    pub fn after_unit(&mut self, build: impl FnOnce() -> Vec<f64>) {
        self.done += 1;
        let due = self.done * (SETUP_REPS - 1) / self.units.max(1);
        if self.reps.len() <= due && self.reps.len() < SETUP_REPS {
            self.reps.push(build());
        }
    }

    /// Total seconds of each repetition.
    pub fn totals(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.iter().sum()).collect()
    }

    /// The set-up's time in the host's fast mode, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the repetitions did not time the same steps.
    pub fn fast_seconds(&self) -> f64 {
        let steps = self.reps[0].len();
        assert!(
            self.reps.iter().all(|r| r.len() == steps),
            "set-up steps differ"
        );
        (0..steps)
            .map(|k| fast_time(&self.reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ups_spread_over_the_run_and_sum_step_fast_times() {
        let units = 84;
        let mut times = SetupTimes::first(Instant::now(), vec![0.5, 2.0], units);
        let mut built_after = Vec::new();
        for unit in 1..=units {
            times.after_unit(|| {
                built_after.push(unit);
                vec![0.4 + unit as f64 * 1e-3, 1.0]
            });
        }
        assert_eq!(times.reps.len(), SETUP_REPS);
        assert_eq!(built_after.len(), SETUP_REPS - 1);
        assert_eq!(*built_after.last().unwrap(), units);
        for gap in built_after.windows(2) {
            assert!(
                gap[1] - gap[0] <= units / (SETUP_REPS - 1) + 1,
                "{built_after:?}"
            );
        }
        // Each step's fastest repetition: the earliest rebuild's first
        // step, and 1.0.
        let fastest = 0.4 + built_after[0] as f64 * 1e-3;
        assert!((times.fast_seconds() - (fastest + 1.0)).abs() < 1e-9);
        assert_eq!(times.totals()[0], 2.5);
    }
}
