//! A fixed reference batch that tracks the host's speed.
//!
//! The benchmark host's vCPU runs in a fast and a slow mode, each lasting
//! seconds; one identical batch can take anywhere from 34 to 71 ms. The
//! same tiny batch, independent of the workload seed, is timed at the
//! start and end of every run so that runs taken in the slow mode can be
//! recognised.

use pivot_data::{Dataset, DatasetConfig};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{PreparedModel, VisionTransformer, VitConfig};
use std::sync::OnceLock;
use std::time::Instant;

fn reference() -> &'static (PreparedModel, Vec<Matrix>) {
    static REFERENCE: OnceLock<(PreparedModel, Vec<Matrix>)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let model = VisionTransformer::new(&VitConfig::tiny(), &mut Rng::new(0)).prepare();
        let images =
            Dataset::generate_difficulty_stripes(&DatasetConfig::standard(), &[0.5], 32, 0)
                .into_iter()
                .map(|s| s.image)
                .collect();
        (model, images)
    })
}

/// Median wall milliseconds of three forwards of the reference batch.
pub fn ref_batch_ms() -> f64 {
    let (model, images) = reference();
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(model.forward_batch(images));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&ms)
}

/// Logs the reference timings of a run to stderr, flagging a run whose
/// host changed speed between its start and end.
pub fn log(workload: &str, start_ms: f64, end_ms: f64) {
    let drift = (end_ms / start_ms - 1.0).abs();
    let flag = if drift > 0.2 {
        " (host speed changed during the run)"
    } else {
        ""
    };
    eprintln!("{workload}: host.ref_batch_ms {start_ms:.2} at start, {end_ms:.2} at end{flag}");
}
