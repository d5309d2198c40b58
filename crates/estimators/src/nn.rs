//! Minimal dense neural-network substrate for the FFN baseline.
//!
//! Implemented from scratch (the sanctioned crate list has no ML library):
//! dense layers with unipolar sigmoid activations, mean-squared-error loss,
//! and SGD with momentum — the exact hyperparameter family the paper's
//! WEKA FFN uses (learning rate 0.3, momentum 0.2, unipolar sigmoid).

use geostream::{PersistError, PersistReader, PersistWriter, StreamRng};

/// Unipolar (logistic) sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One fully connected layer with sigmoid activation.
#[derive(Debug, Clone)]
struct DenseLayer {
    /// `out × in` weight matrix, row-major.
    weights: Vec<f64>,
    biases: Vec<f64>,
    /// Momentum buffers mirroring `weights` / `biases`.
    w_vel: Vec<f64>,
    b_vel: Vec<f64>,
    inputs: usize,
    outputs: usize,
    /// Output layer is linear (no sigmoid) for regression targets.
    linear: bool,
}

impl DenseLayer {
    fn new(inputs: usize, outputs: usize, linear: bool, rng: &mut StreamRng) -> Self {
        // Xavier-ish init keeps sigmoids out of saturation at start.
        let scale = (1.0 / inputs as f64).sqrt();
        DenseLayer {
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range_f64(-scale..scale))
                .collect(),
            biases: vec![0.0; outputs],
            w_vel: vec![0.0; inputs * outputs],
            b_vel: vec![0.0; outputs],
            inputs,
            outputs,
            linear,
        }
    }

    fn forward(&self, input: &[f64], output: &mut Vec<f64>) {
        debug_assert_eq!(input.len(), self.inputs);
        output.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let z: f64 = row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + self.biases[o];
            output.push(if self.linear { z } else { sigmoid(z) });
        }
    }

    /// Backpropagates `delta_out` (∂L/∂activation of this layer), applying
    /// an SGD-with-momentum update, and writes ∂L/∂activation of the
    /// previous layer into `din` (a reused scratch buffer — no per-step
    /// allocation).
    fn backward(
        &mut self,
        input: &[f64],
        output: &[f64],
        delta_out: &[f64],
        din: &mut Vec<f64>,
        lr: f64,
        momentum: f64,
    ) {
        din.clear();
        din.resize(self.inputs, 0.0);
        for o in 0..self.outputs {
            // ∂L/∂z: for sigmoid layers scale by σ'(z) = y(1−y).
            let (d, y) = (delta_out[o], output[o]);
            let dz_o = if self.linear { d } else { d * y * (1.0 - y) };
            for i in 0..self.inputs {
                let idx = o * self.inputs + i;
                din[i] += self.weights[idx] * dz_o;
                let grad = dz_o * input[i];
                self.w_vel[idx] = momentum * self.w_vel[idx] - lr * grad;
                self.weights[idx] += self.w_vel[idx];
            }
            self.b_vel[o] = momentum * self.b_vel[o] - lr * dz_o;
            self.biases[o] += self.b_vel[o];
        }
    }
}

/// Reused activation buffers for read-only (`&self`) inference.
#[derive(Debug, Clone, Default)]
struct InferScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// A small multilayer perceptron: sigmoid hidden layers, linear output,
/// trained online with SGD + momentum on squared error.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    lr: f64,
    momentum: f64,
    /// Reused activation buffers, one per layer boundary.
    activations: Vec<Vec<f64>>,
    /// Reused backprop delta buffers (current layer / previous layer).
    delta: Vec<f64>,
    delta_prev: Vec<f64>,
    /// Inference buffers behind a `RefCell` so `&self` estimate paths run
    /// without heap allocation.
    scratch: std::cell::RefCell<InferScratch>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[8, 16, 1]`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], lr: f64, momentum: f64, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = StreamRng::seed_from_u64(seed);
        let layers: Vec<DenseLayer> = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| DenseLayer::new(w[0], w[1], i == widths.len() - 2, &mut rng))
            .collect();
        let activations = widths.iter().map(|&w| Vec::with_capacity(w)).collect();
        // LINT-ALLOW(no-panic): the width list always includes the input and output layers, so it is non-empty
        let max_width = widths.iter().copied().max().expect("non-empty widths");
        Mlp {
            layers,
            lr,
            momentum,
            activations,
            delta: Vec::with_capacity(max_width),
            delta_prev: Vec::with_capacity(max_width),
            scratch: std::cell::RefCell::new(InferScratch {
                cur: Vec::with_capacity(max_width),
                next: Vec::with_capacity(max_width),
            }),
        }
    }

    /// Runs a forward pass, returning the output vector.
    pub fn forward(&mut self, input: &[f64]) -> &[f64] {
        self.activations[0].clear();
        self.activations[0].extend_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            // Split borrow: activations[i] is input, activations[i+1] output.
            let (before, after) = self.activations.split_at_mut(i + 1);
            layer.forward(&before[i], &mut after[0]);
        }
        // LINT-ALLOW(no-panic): the network is constructed with at least one layer, so activations is non-empty
        self.activations.last().expect("has layers")
    }

    /// Fills `scratch.cur` with the network output for `input` — shared
    /// engine of the `&self` inference paths; allocation-free after the
    /// buffers warm up.
    fn run_inference(&self, input: &[f64], scratch: &mut InferScratch) {
        scratch.cur.clear();
        scratch.cur.extend_from_slice(input);
        for layer in &self.layers {
            layer.forward(&scratch.cur, &mut scratch.next);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
    }

    /// Immutable forward pass — for read-only callers (e.g. `estimate`
    /// paths that only hold `&self`). Allocates the returned vector; use
    /// [`Mlp::infer_one`] on hot paths.
    pub fn infer(&self, input: &[f64]) -> Vec<f64> {
        let mut scratch = self.scratch.borrow_mut();
        self.run_inference(input, &mut scratch);
        scratch.cur.clone()
    }

    /// Immutable forward pass returning the first output — zero heap
    /// allocation (reuses the internal scratch buffers), bit-identical to
    /// [`Mlp::forward`] / [`Mlp::infer`].
    pub fn infer_one(&self, input: &[f64]) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        self.run_inference(input, &mut scratch);
        scratch.cur[0]
    }

    /// One online SGD step on `(input, target)`. Returns the squared error
    /// before the update.
    pub fn train(&mut self, input: &[f64], target: &[f64]) -> f64 {
        self.forward(input);
        // LINT-ALLOW(no-panic): the network is constructed with at least one layer, so activations is non-empty
        let output = self.activations.last().expect("has layers");
        debug_assert_eq!(output.len(), target.len());
        // Reused delta buffers: no clones of the activation vectors (the
        // layer borrow is disjoint from the activation borrow) and no
        // per-step allocation.
        let mut delta = std::mem::take(&mut self.delta);
        let mut delta_prev = std::mem::take(&mut self.delta_prev);
        delta.clear();
        delta.extend(output.iter().zip(target).map(|(y, t)| y - t));
        let loss: f64 = delta.iter().map(|d| d * d).sum();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward(
                &self.activations[i],
                &self.activations[i + 1],
                &delta,
                &mut delta_prev,
                self.lr,
                self.momentum,
            );
            std::mem::swap(&mut delta, &mut delta_prev);
        }
        self.delta = delta;
        self.delta_prev = delta_prev;
        loss
    }

    /// Approximate heap bytes of parameters and buffers.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.weights.len() * 2 + l.biases.len() * 2) * std::mem::size_of::<f64>())
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

impl Mlp {
    /// Writes every layer's weights, biases and momentum buffers, in layer
    /// order. The widths, learning rate and momentum are the constructor's
    /// and are not written.
    pub fn persist_state(&self, w: &mut PersistWriter) {
        for layer in &self.layers {
            for v in [&layer.weights, &layer.biases, &layer.w_vel, &layer.b_vel] {
                for &x in v.iter() {
                    w.put_f64(x);
                }
            }
        }
    }

    /// Reads what [`Mlp::persist_state`] wrote into this network, which
    /// must have the writer's widths.
    pub fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        for layer in &mut self.layers {
            for v in [
                &mut layer.weights,
                &mut layer.biases,
                &mut layer.w_vel,
                &mut layer.b_vel,
            ] {
                for x in v.iter_mut() {
                    *x = r.take_f64("Mlp.parameter")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trip_preserves_training_trajectory() {
        let mut orig = Mlp::new(&[3, 6, 1], 0.3, 0.2, 99);
        for step in 0..120 {
            let t = step as f64 / 120.0;
            orig.train(&[t, 1.0 - t, t * t], &[t]);
        }
        let mut w = PersistWriter::new();
        orig.persist_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = Mlp::new(&[3, 6, 1], 0.3, 0.2, 5);
        back.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let probe = [0.3, 0.7, 0.09];
        assert_eq!(
            orig.infer_one(&probe).to_bits(),
            back.infer_one(&probe).to_bits()
        );
        // Momentum buffers round-tripped too: further training must stay
        // bit-identical, not just the frozen forward pass.
        for step in 0..60 {
            let t = step as f64 / 60.0;
            orig.train(&[t, t, 0.5], &[1.0 - t]);
            back.train(&[t, t, 0.5], &[1.0 - t]);
        }
        assert_eq!(
            orig.infer_one(&probe).to_bits(),
            back.infer_one(&probe).to_bits()
        );
    }

    #[test]
    fn restore_rejects_width_mismatch() {
        let mlp = Mlp::new(&[2, 3, 1], 0.3, 0.2, 1);
        let mut w = PersistWriter::new();
        mlp.persist_state(&mut w);
        let bytes = w.into_bytes();
        // Truncations must come back as typed errors, never panics.
        for cut in [1, bytes.len() / 2, bytes.len() - 3] {
            let mut r = PersistReader::new(&bytes[..cut]);
            let mut back = Mlp::new(&[2, 3, 1], 0.3, 0.2, 1);
            assert!(
                back.restore_state(&mut r).is_err(),
                "truncation at {cut} passed"
            );
        }
        // A wider network needs more parameters than were written; a
        // narrower one leaves some unread.
        let mut wider = Mlp::new(&[2, 4, 1], 0.3, 0.2, 1);
        assert!(matches!(
            wider.restore_state(&mut PersistReader::new(&bytes)),
            Err(PersistError::Truncated { .. })
        ));
        let mut narrower = Mlp::new(&[2, 2, 1], 0.3, 0.2, 1);
        let mut r = PersistReader::new(&bytes);
        narrower.restore_state(&mut r).expect("a prefix reads");
        assert!(!r.is_exhausted(), "a narrower network read every parameter");
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
    }

    #[test]
    fn forward_has_output_width() {
        let mut mlp = Mlp::new(&[3, 5, 2], 0.3, 0.2, 1);
        let out = mlp.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn learns_linear_function() {
        // y = 2a − b, learnable by the linear output layer alone.
        let mut mlp = Mlp::new(&[2, 4, 1], 0.1, 0.2, 7);
        let mut s = 13u64;
        for _ in 0..8_000 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let b = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            mlp.train(&[a, b], &[2.0 * a - b]);
        }
        for &(a, b) in &[(0.5, 0.25), (-0.3, 0.6), (0.0, 0.0)] {
            let y = mlp.forward(&[a, b])[0];
            assert!(
                (y - (2.0 * a - b)).abs() < 0.15,
                "bad fit at ({a},{b}): {y}"
            );
        }
    }

    #[test]
    fn learns_xor() {
        // Requires the hidden layer; classic sanity check for backprop.
        let mut mlp = Mlp::new(&[2, 8, 1], 0.3, 0.2, 42);
        let cases = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..6_000 {
            for (x, t) in &cases {
                mlp.train(x, &[*t]);
            }
        }
        for (x, t) in &cases {
            let y = mlp.forward(x)[0];
            assert!((y - t).abs() < 0.3, "xor({x:?}) = {y}, want {t}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut mlp = Mlp::new(&[1, 6, 1], 0.3, 0.2, 3);
        let first = mlp.train(&[0.7], &[0.9]);
        let mut last = first;
        for _ in 0..200 {
            last = mlp.train(&[0.7], &[0.9]);
        }
        assert!(last < first * 0.1, "loss did not shrink: {first} → {last}");
    }

    #[test]
    fn infer_paths_bit_identical_to_forward() {
        // Train a bit so weights are non-trivial, then every inference
        // path must agree to the last bit on a fixed seed.
        let mut mlp = Mlp::new(&[3, 7, 2], 0.3, 0.2, 11);
        for step in 0..50 {
            let t = step as f64 / 50.0;
            mlp.train(&[t, 1.0 - t, 0.5], &[t, t * t]);
        }
        let input = [0.21, -0.4, 0.87];
        let by_forward = mlp.forward(&input).to_vec();
        let by_infer = mlp.infer(&input);
        let one = mlp.infer_one(&input);
        assert_eq!(by_forward, by_infer);
        assert_eq!(by_forward[0].to_bits(), one.to_bits());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Mlp::new(&[2, 3, 1], 0.3, 0.2, 5);
        let mut b = Mlp::new(&[2, 3, 1], 0.3, 0.2, 5);
        assert_eq!(a.forward(&[0.1, 0.9]), b.forward(&[0.1, 0.9]));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_width() {
        let _ = Mlp::new(&[3], 0.3, 0.2, 1);
    }
}
