//! The offline workload: whole passes of `evaluate_guarded_slice` over a
//! fixed input set.

use crate::ladder::{passes, Ladder, SetupTimes};
use crate::report::{peak_rss_mb, Report, SERVE_ONLY};
use crate::stats::{check_halves, energy_ladder, fast_time, mean_energy_mj, median};
use crate::trace::Tracer;
use crate::{host, layers, reference};
use pivot_core::{evaluate_guarded_slice, GuardedOutcome, Parallelism};
use pivot_tensor::Matrix;
use std::time::Instant;

/// Low-effort constraint: 80% of the inputs exit at level 0.
pub const LEC: f64 = 0.8;

/// One timed pass over the input set.
#[derive(Debug)]
struct Pass {
    /// Wall milliseconds of each `evaluate_guarded_slice` call.
    batch_ms: Vec<f64>,
    /// The guarded outcome of every input, in input order.
    outcomes: Vec<GuardedOutcome>,
}

fn evaluate(ladder: &Ladder, batch: &[&Matrix]) -> Vec<GuardedOutcome> {
    evaluate_guarded_slice(
        &ladder.levels,
        &[ladder.threshold],
        1,
        batch,
        Parallelism::Off,
    )
    .0
}

/// Runs one pass; with a tracer, the pass and every batch get a span.
fn run_pass(ladder: &Ladder, batches: &[Vec<&Matrix>], tracer: Option<&mut Tracer>) -> Pass {
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut outcomes = Vec::with_capacity(ladder.images.len());
    match tracer {
        None => {
            for batch in batches {
                let t = Instant::now();
                outcomes.extend(evaluate(ladder, batch));
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Some(tracer) => tracer.span("cascade.pass", |tracer| {
            for batch in batches {
                let t = Instant::now();
                let out = tracer.span("core.evaluate_guarded_slice", |_| evaluate(ladder, batch));
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                outcomes.extend(out);
            }
        }),
    }
    Pass { batch_ms, outcomes }
}

/// One pass's wall time in ms in the host's fast mode: the sum, over the
/// batches, of each batch's [`fast_time`] over `passes`. Every pass
/// evaluates the same batches, so this is one pass without the stretches
/// the host spent in its slow mode.
fn fast_pass_ms(passes: &[Pass]) -> f64 {
    (0..passes[0].batch_ms.len())
        .map(|b| {
            let ms: Vec<f64> = passes.iter().map(|p| p.batch_ms[b]).collect();
            fast_time(&ms)
        })
        .sum()
}

/// Output checks over a run's passes:
///
/// * every pass must repeat the first pass's outcomes exactly
///   (prediction, exit level and both entropies, bit for bit);
/// * the first pass must exit exactly the calibrated number of inputs at
///   level 0, and the calibration must meet the LEC;
/// * the first pass must agree with the independent `f64` reference on
///   every checked input.
///
/// Returns `(attempted, failed, correct)`; a mismatched input is a
/// failed operation.
fn check(ladder: &Ladder, seed: u64, passes: &[Pass]) -> (u64, u64, bool) {
    let first = &passes[0].outcomes;
    let mut failed = 0u64;
    for pass in passes {
        failed += pass
            .outcomes
            .iter()
            .zip(first)
            .filter(|(a, b)| a != b)
            .count() as u64;
        failed += pass.outcomes.len().abs_diff(first.len()) as u64;
    }
    let low = first.iter().filter(|o| o.level == 0).count();
    let gate_ok = low == ladder.stays_low && first.len() == ladder.images.len();
    if !gate_ok {
        eprintln!(
            "check: {low} of {} inputs exited at level 0, calibration expected {}",
            first.len(),
            ladder.stays_low
        );
    }
    failed += reference::mismatches(ladder, seed, first);
    let attempted = passes.iter().map(|p| p.outcomes.len() as u64).sum();
    let correct = failed == 0 && gate_ok && ladder.gate_meets_lec();
    (attempted, failed, correct)
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, seconds: u64, started: Instant) -> Result<Report, String> {
    let ladder = Ladder::build(LEC, seed);
    let n_passes = passes(seconds);
    let mut setup = SetupTimes::first(started, ladder.steps.clone(), n_passes);
    let batches = ladder.batches();
    let host_start = host::ref_batch_ms();
    let mut passes = Vec::with_capacity(n_passes);
    for _ in 0..n_passes {
        passes.push(run_pass(&ladder, &batches, None));
        setup.after_unit(|| Ladder::build(LEC, seed).steps);
    }
    host::log("offline-tiny", host_start, host::ref_batch_ms());

    let (attempted, failed, correct) = check(&ladder, seed, &passes);
    let n = ladder.images.len() as f64;
    let pass_ms = fast_pass_ms(&passes);
    let half = passes.len() / 2;
    check_halves(
        "pass_ms",
        fast_pass_ms(&passes[..half]),
        fast_pass_ms(&passes[half..]),
    )?;
    eprintln!(
        "offline-tiny: {} passes x {n} images in {} batches, Th {}, {} stay low; set-ups {:?} s",
        passes.len(),
        batches.len(),
        ladder.threshold,
        ladder.stays_low,
        setup.totals(),
    );
    let exits: Vec<usize> = passes[0].outcomes.iter().map(|o| o.level).collect();
    // Every batch carries the same work, so one batch's latency is the
    // pass time over the batch count, at the median and at the tail.
    let batch_ms = pass_ms / batches.len() as f64;

    let mut r = Report {
        correct,
        attempted,
        failed,
        ..Report::default()
    };
    r.set("setup_s", setup.fast_seconds());
    r.set("throughput_ips", n / (pass_ms / 1e3));
    r.set("latency_p50_ms", batch_ms);
    r.set("latency_p90_ms", batch_ms);
    r.set(
        "served_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    r.set(
        "energy_mj_per_img",
        mean_energy_mj(&energy_ladder(), &exits),
    );
    r.set("peak_rss_mb", peak_rss_mb()?);
    Ok(r)
}

/// The traced run: per-layer metrics. Timed passes alternate between
/// untraced and traced, so the tracing overhead is measured on
/// interleaved work.
pub fn trace(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Report, String> {
    let ladder = Ladder::build(LEC, seed);
    let batches = ladder.batches();
    let host_start = host::ref_batch_ms();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..passes(seconds) {
        if i % 2 == 0 {
            plain.push(run_pass(&ladder, &batches, None));
        } else {
            traced.push(run_pass(&ladder, &batches, Some(tracer)));
        }
    }
    let host_end = host::ref_batch_ms();
    host::log("offline-tiny", host_start, host_end);

    let plain_ms = fast_pass_ms(&plain);
    let traced_ms = fast_pass_ms(&traced);
    let mut passes = plain;
    passes.append(&mut traced);
    let (attempted, failed, correct) = check(&ladder, seed, &passes);

    let mut r = Report {
        correct,
        attempted,
        failed,
        ..Report::default()
    };
    r.set("trace.overhead_pct", (traced_ms / plain_ms - 1.0) * 100.0);
    r.set("host.ref_batch_ms", median(&[host_start, host_end]));
    let n = ladder.images.len();
    r.set("core.f_low", ladder.stays_low as f64 / n as f64);
    layers::probe_all(seed, &ladder, tracer, &mut r);
    let escalated = (n - ladder.stays_low) as f64;
    r.set(
        "core.wasted_share",
        r.values["vit.level0.ms_per_img"] * escalated / plain_ms,
    );
    for name in SERVE_ONLY {
        r.set(name, 0.0);
    }
    Ok(r)
}
