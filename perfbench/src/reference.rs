//! An independent reference for the cascade's answers.
//!
//! The workload's backbone is rebuilt from its seed and its weights are
//! copied into a plain `f64` forward pass written from the model's
//! definition (patch embedding, pre-norm encoder blocks with skippable
//! attention, erf GELU, class-token head). Nothing in it goes through the
//! library's inference path, so a kernel change that is deterministic but
//! numerically wrong shows as a mismatch even though every pass agrees
//! with every other.

use crate::ladder::{backbone, config, Ladder};
use crate::stats::LEVEL0_ATTENTIONS;
use pivot_core::GuardedOutcome;
use pivot_tensor::Matrix;

/// Every how-many-th input is checked against the reference.
pub const STRIDE: usize = 8;
/// Largest accepted difference between a program logit and the
/// reference's. The program computes in `f32`; on the tiny ladder its
/// logits (about 0.2 in size) differ from the `f64` ones by about 1e-7.
const LOGIT_TOL: f64 = 1e-5;
/// Largest accepted difference between a program entropy and the
/// reference's. The untrained backbone's entropies span about 7e-4, so
/// this is a hundredth of that band; they differ by about 1e-7.
const ENTROPY_TOL: f64 = 5e-6;

/// `y = x W + b` with `W` stored row-major as `inputs x outputs`.
#[derive(Debug)]
struct Affine {
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Affine {
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let outputs = self.b.len();
        let mut y = self.b.clone();
        for (i, &xi) in x.iter().enumerate() {
            for (yo, &w) in y.iter_mut().zip(&self.w[i * outputs..(i + 1) * outputs]) {
                *yo += xi * w;
            }
        }
        y
    }
}

/// Layer norm with the model's `eps` of 1e-5.
#[derive(Debug)]
struct Norm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
}

impl Norm {
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        x.iter()
            .zip(self.gamma.iter().zip(&self.beta))
            .map(|(v, (g, b))| g * (v - mean) * inv_std + b)
            .collect()
    }
}

#[derive(Debug)]
struct Block {
    ln1: Norm,
    q: Affine,
    k: Affine,
    v: Affine,
    proj: Affine,
    ln2: Norm,
    fc1: Affine,
    fc2: Affine,
}

/// The seeded backbone in `f64`.
#[derive(Debug)]
pub struct Reference {
    patch: Affine,
    cls: Vec<f64>,
    pos: Vec<Vec<f64>>,
    blocks: Vec<Block>,
    norm: Norm,
    head: Affine,
}

/// Error function to about 1e-15: its Maclaurin series below 3, and the
/// continued fraction of `erfc` above.
fn erf(x: f64) -> f64 {
    let a = x.abs();
    let value = if a < 3.0 {
        let (mut term, mut sum, mut n) = (a, a, 0.0);
        while term.abs() > 1e-17 * sum.abs() {
            n += 1.0;
            term *= -a * a / n;
            sum += term / (2.0 * n + 1.0);
        }
        sum * 2.0 / std::f64::consts::PI.sqrt()
    } else {
        // erfc(a) = exp(-a^2)/sqrt(pi) * 1/(a + (1/2)/(a + 1/(a + (3/2)/(a + ...)))).
        let mut tail = a;
        for k in (1..=60).rev() {
            tail = a + f64::from(k) / 2.0 / tail;
        }
        1.0 - (-a * a).exp() / std::f64::consts::PI.sqrt() / tail
    };
    value.copysign(x)
}

fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn softmax(row: &[f64]) -> Vec<f64> {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = row.iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Entropy of the softmax of `logits`, divided by `ln(classes)`.
fn normalized_entropy(logits: &[f64]) -> f64 {
    let h: f64 = softmax(logits)
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|p| -p * p.ln())
        .sum();
    (h / (logits.len() as f64).ln()).clamp(0.0, 1.0)
}

/// Index of the largest logit, and its lead over the runner-up.
fn argmax_with_margin(logits: &[f64]) -> (usize, f64) {
    let mut order: Vec<usize> = (0..logits.len()).collect();
    order.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
    (order[0], logits[order[0]] - logits[order[1]])
}

impl Reference {
    /// Copies the workload's seeded backbone into `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the backbone's parameter list does not have the layout
    /// of a ViT (patch embedding, class token, positional embedding, 16
    /// tensors per block, final norm, head).
    pub fn new(seed: u64) -> Self {
        let mut model = backbone(seed);
        let c = config();
        let params: Vec<Matrix> = model
            .params_mut()
            .into_iter()
            .map(|p| p.value.clone())
            .collect();
        assert_eq!(params.len(), 2 + 2 + 16 * c.depth + 4, "ViT parameter list");
        let flat = |m: &Matrix| m.as_slice().iter().map(|&v| f64::from(v)).collect();
        assert_eq!(params[0].shape(), (c.patch_dim(), c.dim), "patch weight");
        let patch = Affine {
            w: flat(&params[0]),
            b: flat(&params[1]),
        };
        let (cls, pos) = (&params[2], &params[3]);
        assert_eq!(
            (cls.shape(), pos.shape()),
            ((1, c.dim), (c.tokens(), c.dim))
        );
        let norm = |g: &Matrix, b: &Matrix| Norm {
            gamma: flat(g),
            beta: flat(b),
        };
        let blocks = params[4..4 + 16 * c.depth]
            .chunks(16)
            .map(|p| {
                let affine = |i: usize| Affine {
                    w: flat(&p[i]),
                    b: flat(&p[i + 1]),
                };
                assert_eq!(p[12].shape(), (c.dim, c.mlp_hidden()), "fc1 weight");
                Block {
                    ln1: norm(&p[0], &p[1]),
                    q: affine(2),
                    k: affine(4),
                    v: affine(6),
                    proj: affine(8),
                    ln2: norm(&p[10], &p[11]),
                    fc1: affine(12),
                    fc2: affine(14),
                }
            })
            .collect();
        let tail = &params[4 + 16 * c.depth..];
        assert_eq!(tail[2].shape(), (c.dim, c.num_classes), "head weight");
        Self {
            patch,
            cls: flat(cls),
            pos: (0..c.tokens())
                .map(|r| pos.row(r).iter().map(|&v| f64::from(v)).collect())
                .collect(),
            blocks,
            norm: norm(&tail[0], &tail[1]),
            head: Affine {
                w: flat(&tail[2]),
                b: flat(&tail[3]),
            },
        }
    }

    /// Logits of `image` with attention active in the blocks `active`.
    pub fn logits(&self, image: &Matrix, active: &[usize]) -> Vec<f64> {
        let c = config();
        let (p, side) = (c.patch_size, c.image_size / c.patch_size);
        let mut x: Vec<Vec<f64>> = vec![self.cls.clone()];
        for patch in 0..side * side {
            let (pr, pc) = (patch / side, patch % side);
            let pixels: Vec<f64> = (0..p * p)
                .map(|i| f64::from(image[(pr * p + i / p, pc * p + i % p)]))
                .collect();
            x.push(self.patch.apply(&pixels));
        }
        for (row, pos) in x.iter_mut().zip(&self.pos) {
            row.iter_mut().zip(pos).for_each(|(v, p)| *v += p);
        }
        for (i, block) in self.blocks.iter().enumerate() {
            if active.contains(&i) {
                let attended = attention(block, &x, c.heads);
                add(&mut x, &attended);
            }
            let mlp: Vec<Vec<f64>> = x
                .iter()
                .map(|row| {
                    let hidden: Vec<f64> = block.fc1.apply(&block.ln2.apply(row));
                    block
                        .fc2
                        .apply(&hidden.into_iter().map(gelu).collect::<Vec<_>>())
                })
                .collect();
            add(&mut x, &mlp);
        }
        self.head.apply(&self.norm.apply(&x[0]))
    }
}

fn add(x: &mut [Vec<f64>], y: &[Vec<f64>]) {
    for (xr, yr) in x.iter_mut().zip(y) {
        xr.iter_mut().zip(yr).for_each(|(a, b)| *a += b);
    }
}

/// Multi-head self-attention of the block over the token rows `x`.
fn attention(block: &Block, x: &[Vec<f64>], heads: usize) -> Vec<Vec<f64>> {
    let normed: Vec<Vec<f64>> = x.iter().map(|r| block.ln1.apply(r)).collect();
    let project = |a: &Affine| -> Vec<Vec<f64>> { normed.iter().map(|r| a.apply(r)).collect() };
    let (q, k, v) = (project(&block.q), project(&block.k), project(&block.v));
    let dim = x[0].len();
    let dh = dim / heads;
    let scale = 1.0 / (dh as f64).sqrt();
    let mut out = vec![vec![0.0; dim]; x.len()];
    for h in 0..heads {
        let cols = h * dh..(h + 1) * dh;
        for (i, out_row) in out.iter_mut().enumerate() {
            let scores: Vec<f64> = k
                .iter()
                .map(|kr| {
                    let dot: f64 = cols.clone().map(|c| q[i][c] * kr[c]).sum();
                    dot * scale
                })
                .collect();
            for (weight, vr) in softmax(&scores).iter().zip(&v) {
                for c in cols.clone() {
                    out_row[c] += weight * vr[c];
                }
            }
        }
    }
    out.iter().map(|r| block.proj.apply(r)).collect()
}

/// Checks the cascade's answers on every [`STRIDE`]-th input against the
/// reference: both levels' logits from `forward_batch`, and each
/// outcome's level-0 entropy, exit entropy, exit level and prediction.
/// An exit level or prediction that the reference leaves within its
/// tolerance of a tie is not held against the program. `outcomes` are in
/// input order. Returns the number of checked inputs that mismatch.
pub fn mismatches(ladder: &Ladder, seed: u64, outcomes: &[GuardedOutcome]) -> u64 {
    let reference = Reference::new(seed);
    let all: Vec<usize> = (0..config().depth).collect();
    let masks: [&[usize]; 2] = [&LEVEL0_ATTENTIONS, &all];
    let checked: Vec<usize> = (0..ladder.images.len()).step_by(STRIDE).collect();
    let images: Vec<&Matrix> = checked.iter().map(|&i| &ladder.images[i]).collect();
    let program: Vec<Matrix> = ladder
        .levels
        .iter()
        .map(|l| l.forward_batch(&images))
        .collect();
    let th = f64::from(ladder.threshold);
    let (mut bad, mut logit_dev, mut entropy_dev) = (0u64, 0.0f64, 0.0f64);
    for (row, &i) in checked.iter().enumerate() {
        let logits: Vec<Vec<f64>> = masks
            .iter()
            .map(|m| reference.logits(images[row], m))
            .collect();
        for (level, expected) in logits.iter().enumerate() {
            for (&got, want) in program[level].row(row).iter().zip(expected) {
                logit_dev = logit_dev.max((f64::from(got) - want).abs());
            }
        }
        let o = &outcomes[i];
        let low_entropy = normalized_entropy(&logits[0]);
        let exit_entropy = normalized_entropy(&logits[o.level.min(1)]);
        let (prediction, margin) = argmax_with_margin(&logits[o.level.min(1)]);
        let dev = (f64::from(o.low_entropy) - low_entropy)
            .abs()
            .max((f64::from(o.entropy) - exit_entropy).abs());
        entropy_dev = entropy_dev.max(if dev.is_nan() { f64::INFINITY } else { dev });
        let level_ok =
            o.level == usize::from(low_entropy >= th) || (low_entropy - th).abs() <= ENTROPY_TOL;
        let prediction_ok = o.prediction == prediction || margin <= LOGIT_TOL;
        let row_ok = (0..2).all(|l| {
            program[l]
                .row(row)
                .iter()
                .zip(&logits[l])
                .all(|(&g, w)| (f64::from(g) - w).abs() <= LOGIT_TOL)
        });
        if !(level_ok && prediction_ok && row_ok && dev <= ENTROPY_TOL) {
            bad += 1;
        }
    }
    eprintln!(
        "check: {} inputs against the f64 reference, {bad} mismatched; \
         largest logit difference {logit_dev:.2e}, entropy difference {entropy_dev:.2e}",
        checked.len()
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
            (4.0, 0.999_999_984_582_742_1),
        ] {
            assert!((erf(x) - want).abs() < 1e-14, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-14);
        }
    }

    #[test]
    fn reference_matches_the_library_to_f32_precision() {
        let model = backbone(7);
        let image = Matrix::from_fn(32, 32, |r, c| ((r * 31 + c * 17) % 11) as f32 / 11.0);
        let reference = Reference::new(7);
        let all: Vec<usize> = (0..config().depth).collect();
        let want = reference.logits(&image, &all);
        let got = model.infer(&image);
        for (g, w) in got.row(0).iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < LOGIT_TOL / 10.0, "{g} vs {w}");
        }
    }
}
