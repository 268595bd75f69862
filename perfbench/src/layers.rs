//! Per-layer probes for the traced run: spans around calls into each
//! crate's public functions, on the workload's own shapes and levels.
//!
//! Kernel and layer probes run on seeded random activations of exactly the
//! shape the workload's forward pass feeds them (one batch of `batch *
//! tokens` rows). Iteration counts are fixed by the shape, never by the
//! clock, and each metric is the fast-mode span (see `stats::fast_time`).

use crate::ladder::{config, derive_seed, Ladder, BATCH, PASS_SECONDS, PROBE_SALT};
use crate::report::Report;
use crate::stats::{energy_ladder, fast_time, median};
use crate::trace::Tracer;
use pivot_core::{evaluate_guarded_slice, stays_low, Parallelism};
use pivot_nn::{normalized_entropy, LayerNorm, Linear, Mlp, MultiHeadAttention};
use pivot_sim::{AcceleratorConfig, ModuleClass, Simulator, VitGeometry};
use pivot_tensor::{
    gelu, matmul_quantized, stable_softmax_in_place, Matrix, PackedF32, PackedInt8, QuantParams,
    Rng,
};
use std::hint::black_box;

/// Iterations for a probe doing `work` units when a run may spend about
/// `budget` units on it.
fn iters(work: f64, budget: f64) -> usize {
    ((budget / work).round() as usize).clamp(5, 400)
}

/// Runs `f` `n` times, each inside a span named `name`, and returns the
/// fast-mode span in microseconds.
fn timed<R>(tracer: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut() -> R) -> f64 {
    let us: Vec<f64> = (0..n)
        .map(|_| {
            tracer.span(name, |_| black_box(f()));
            tracer.spans().last().expect("just recorded").us()
        })
        .collect();
    fast_time(&us)
}

/// Runs every probe and records its metrics in `r`.
pub fn probe_all(seed: u64, ladder: &Ladder, tracer: &mut Tracer, r: &mut Report) {
    kernels(seed, tracer, r);
    vit(seed, ladder, tracer, r);
    core(ladder, tracer, r);
    sim(r);
    r.set(
        "data.gen_ms_per_img",
        ladder.gen_s * 1e3 / ladder.images.len() as f64,
    );
}

/// pivot-tensor and pivot-nn: the kernels and layers one encoder runs.
fn kernels(seed: u64, tracer: &mut Tracer, r: &mut Report) {
    let c = config();
    let (t, dim, hidden, heads) = (c.tokens(), c.dim, c.mlp_hidden(), c.heads);
    let rows = BATCH * t;
    let mut rng = Rng::new(derive_seed(seed, PROBE_SALT));
    let x = Matrix::randn(rows, dim, 1.0, &mut rng);
    let w = Matrix::randn(dim, hidden, 0.05, &mut rng);

    // GEMMs at the fc1 shape, the largest of the encoder. The int8 GEMM
    // is the kernel `prepare_int8` ladders run, probed at the same shape.
    let flops = 2.0 * (rows * dim * hidden) as f64;
    let n = iters(flops, 2e9);
    let packed_f32 = PackedF32::pack(&w);
    let packed_i8 = PackedInt8::pack_with(&w, QuantParams::fit_symmetric(&w));
    let f32_us = timed(tracer, "tensor.gemm_f32", n, || {
        x.matmul_prepacked(&packed_f32)
    });
    let i8_us = timed(tracer, "tensor.gemm_int8", n, || {
        matmul_quantized(&x, &packed_i8)
    });
    r.set("tensor.gemm_f32.us", f32_us);
    r.set("tensor.gemm_f32.gflops", flops / (f32_us * 1e3));
    r.set("tensor.gemm_int8.us", i8_us);
    r.set("tensor.gemm_int8.gflops", flops / (i8_us * 1e3));

    // Softmax over one head's score matrix; the copy is outside the span.
    let scores = Matrix::randn(t, t, 1.0, &mut rng);
    let softmax_us: Vec<f64> = (0..iters((t * t) as f64, 2e7))
        .map(|_| {
            let mut s = scores.clone();
            tracer.span("tensor.softmax", |_| stable_softmax_in_place(&mut s));
            black_box(&s);
            tracer.spans().last().expect("just recorded").us()
        })
        .collect();
    r.set("tensor.softmax.us", fast_time(&softmax_us));

    let h = Matrix::randn(rows, hidden, 1.0, &mut rng);
    let n = iters((rows * hidden) as f64, 2e7);
    r.set(
        "tensor.gelu.us",
        timed(tracer, "tensor.gelu", n, || h.map(gelu)),
    );

    let ln = LayerNorm::new(dim);
    let n = iters((rows * dim) as f64, 2e7);
    r.set(
        "nn.layernorm.us",
        timed(tracer, "nn.layernorm", n, || ln.infer(&x)),
    );

    // Linear vs its bare GEMM, interleaved so each pair sees one host speed.
    let linear = Linear::new(dim, hidden, c.quant, &mut rng).prepare();
    let (mut linear_us, mut overhead_us) = (Vec::new(), Vec::new());
    for _ in 0..iters(flops, 2e9) {
        tracer.span("nn.linear", |_| black_box(linear.infer(&x)));
        let l = tracer.spans().last().expect("just recorded").us();
        tracer.span("tensor.gemm_f32", |_| {
            black_box(x.matmul_prepacked(&packed_f32))
        });
        linear_us.push(l);
        overhead_us.push(l - tracer.spans().last().expect("just recorded").us());
    }
    r.set("nn.linear.us", fast_time(&linear_us));
    r.set("nn.linear_overhead.us", median(&overhead_us));

    let attention = MultiHeadAttention::new(dim, heads, c.quant, &mut rng).prepare();
    let attention_flops = 8.0 * (rows * dim * dim) as f64 + 4.0 * (BATCH * t * t * dim) as f64;
    let n = iters(attention_flops, 2e9);
    r.set(
        "nn.attention.us",
        timed(tracer, "nn.attention", n, || attention.infer_batch(&x, t)),
    );

    let mlp = Mlp::new(dim, hidden, c.quant, &mut rng).prepare();
    let n = iters(2.0 * flops, 2e9);
    r.set("nn.mlp.us", timed(tracer, "nn.mlp", n, || mlp.infer(&x)));
}

/// pivot-vit: whole-level forwards and single encoder blocks.
fn vit(seed: u64, ladder: &Ladder, tracer: &mut Tracer, r: &mut Report) {
    let c = config();
    let batch: Vec<&Matrix> = ladder.images.iter().take(BATCH).collect();
    let per_batch_s = PASS_SECONDS * BATCH as f64 / ladder.images.len() as f64;
    let n = ((1.0 / per_batch_s).round() as usize).clamp(2, 20);
    let level0_us = timed(tracer, "vit.forward_batch.level0", n, || {
        ladder.levels[0].forward_batch(&batch)
    });
    let level1_us = timed(tracer, "vit.forward_batch.level1", n, || {
        ladder.levels[1].forward_batch(&batch)
    });
    r.set(
        "vit.level0.ms_per_img",
        level0_us / 1e3 / batch.len() as f64,
    );
    r.set(
        "vit.level1.ms_per_img",
        level1_us / 1e3 / batch.len() as f64,
    );

    let t = c.tokens();
    let x = Matrix::randn(
        BATCH * t,
        c.dim,
        1.0,
        &mut Rng::new(derive_seed(seed, PROBE_SALT) ^ 1),
    );
    let active = &ladder.levels[1].encoder_blocks()[0];
    let skipped = &ladder.levels[0].encoder_blocks()[1];
    assert!(active.attention_active() && !skipped.attention_active());
    let n = (n * c.depth / 2).clamp(5, 100);
    r.set(
        "vit.block_active.us",
        timed(tracer, "vit.block_active", n, || active.infer_batch(&x, t)),
    );
    r.set(
        "vit.block_skipped.us",
        timed(tracer, "vit.block_skipped", n, || {
            skipped.infer_batch(&x, t)
        }),
    );
    r.set("vit.prepare_s", ladder.prepare_s);
    let mut seen = std::collections::HashSet::new();
    let bytes: usize = ladder
        .levels
        .iter()
        .map(|l| l.unique_weight_bytes_into(&mut seen))
        .sum();
    r.set("vit.unique_weight_mb", bytes as f64 / (1024.0 * 1024.0));

    // Softmax's share of a full-effort forward on the CPU: one score
    // matrix per head, per sample, per active attention.
    let calls = (BATCH * c.heads * c.depth) as f64;
    r.set(
        "tensor.softmax_share",
        r.values["tensor.softmax.us"] * calls / level1_us,
    );
}

/// pivot-core: the cascade's own cost beside the forwards it runs, and
/// the entropy gate.
/// Repetitions of each batch in the cascade-overhead probe.
const CORE_REPS: usize = 8;

fn core(ladder: &Ladder, tracer: &mut Tracer, r: &mut Report) {
    let batches = ladder.batches();
    // Per batch: the cascade's time and the time of its forwards alone.
    let mut eval_us = vec![Vec::new(); batches.len()];
    let mut forwards_us = vec![Vec::new(); batches.len()];
    for _ in 0..CORE_REPS {
        for (b, batch) in batches.iter().enumerate() {
            let (outcomes, _) = tracer.span("core.evaluate_guarded_slice", |_| {
                evaluate_guarded_slice(
                    &ladder.levels,
                    &[ladder.threshold],
                    1,
                    batch,
                    Parallelism::Off,
                )
            });
            eval_us[b].push(tracer.spans().last().expect("just recorded").us());
            // The same level forwards the cascade ran, issued directly.
            let escalated: Vec<&Matrix> = batch
                .iter()
                .zip(&outcomes)
                .filter(|(_, o)| o.level == 1)
                .map(|(&m, _)| m)
                .collect();
            let replay = tracer.spans().len();
            tracer.span("core.replay", |tracer| {
                tracer.span("vit.forward_batch", |_| {
                    black_box(ladder.levels[0].forward_batch(batch))
                });
                if !escalated.is_empty() {
                    tracer.span("vit.forward_batch", |_| {
                        black_box(ladder.levels[1].forward_batch(&escalated))
                    });
                }
            });
            forwards_us[b].push(tracer.spans()[replay].us() - tracer.self_us(replay));
        }
    }
    let self_us: f64 = eval_us
        .iter()
        .zip(&forwards_us)
        .map(|(e, f)| fast_time(e) - fast_time(f))
        .sum();
    r.set("core.self.us_per_batch", self_us / batches.len() as f64);

    let logits = ladder.levels[0].forward_batch(&batches[0]);
    let rows: Vec<Matrix> = (0..logits.rows())
        .map(|i| logits.slice_rows(i, i + 1))
        .collect();
    let gate_us = timed(tracer, "core.gate", 50, || {
        rows.iter()
            .filter(|row| stays_low(normalized_entropy(row), ladder.threshold))
            .count()
    });
    r.set("core.gate.us_per_img", gate_us / rows.len() as f64);
}

/// pivot-sim: the simulated cost of each level on DeiT-S, and the
/// simulator's softmax share of a full-effort forward.
fn sim(r: &mut Report) {
    let ladder = energy_ladder();
    r.set("sim.level0_mj", ladder.level(0).energy.total_j() * 1e3);
    r.set("sim.level1_mj", ladder.level(1).energy.total_j() * 1e3);
    r.set("sim.level0_ms", ladder.level(0).delay_ms);
    r.set("sim.level1_ms", ladder.level(1).delay_ms);
    let geom = VitGeometry::deit_s();
    let (_, layers) = Simulator::new(AcceleratorConfig::zcu102())
        .simulate_detailed(&geom, &vec![true; geom.depth]);
    let total: f64 = layers.iter().map(|l| l.delay_ms).sum();
    let softmax: f64 = layers
        .iter()
        .filter(|l| l.module == ModuleClass::Softmax)
        .map(|l| l.delay_ms)
        .sum();
    r.set("sim.softmax_share", softmax / total);
}
