//! Optimizers: SGD (with optional momentum) and Adam.
//!
//! ShadowTutor distills with Adam at a learning rate of 0.01 (§5.2). The
//! optimizer only updates parameters whose stage is *trainable* under the
//! student's current freeze point, which is how partial distillation skips
//! the frozen front of the network; per-parameter state (momentum buffers,
//! Adam moments) is keyed by parameter name so it survives freeze-point
//! changes and snapshot round-trips.

use crate::param::Param;
use crate::student::StudentNet;
use st_tensor::Tensor;
use std::collections::HashMap;

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Create an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Apply one update step to every trainable parameter of the student and
    /// clear all gradients (including frozen ones, which should be zero
    /// anyway under partial backward).
    pub fn step(&mut self, net: &mut StudentNet) {
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        let mut visit = |p: &mut Param, trainable: bool| {
            if trainable {
                if momentum > 0.0 {
                    let v = velocity
                        .entry(p.name.clone())
                        .or_insert_with(|| Tensor::zeros(p.value.shape().clone()));
                    v.scale_in_place(momentum);
                    v.add_assign(&p.grad).expect("velocity shape matches grad");
                    p.value.axpy(-lr, v).expect("param shape matches velocity");
                } else {
                    p.value
                        .axpy(-lr, &p.grad)
                        .expect("param shape matches grad");
                }
            }
            p.zero_grad();
        };
        net.visit_params(&mut visit);
    }
}

/// Adam optimizer (Kingma & Ba, 2015) — the paper's distillation optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper: 0.01 for distillation).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    step_count: u64,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
}

impl Adam {
    /// Create an Adam optimizer with the standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// Apply one Adam step to every trainable parameter and clear gradients.
    pub fn step(&mut self, net: &mut StudentNet) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let m_map = &mut self.m;
        let v_map = &mut self.v;
        let mut visit = |p: &mut Param, trainable: bool| {
            if trainable {
                let m = m_map
                    .entry(p.name.clone())
                    .or_insert_with(|| Tensor::zeros(p.value.shape().clone()));
                let v = v_map
                    .entry(p.name.clone())
                    .or_insert_with(|| Tensor::zeros(p.value.shape().clone()));
                let md = m.data_mut();
                let vd = v.data_mut();
                let gd = p.grad.data();
                let pd = p.value.data_mut();
                for i in 0..pd.len() {
                    let g = gd[i];
                    md[i] = beta1 * md[i] + (1.0 - beta1) * g;
                    vd[i] = beta2 * vd[i] + (1.0 - beta2) * g * g;
                    let m_hat = md[i] / bias1;
                    let v_hat = vd[i] / bias2;
                    pd[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            p.zero_grad();
        };
        net.visit_params(&mut visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{weighted_cross_entropy, WeightMap};
    use crate::student::{FreezePoint, StudentConfig, StudentNet};
    use st_tensor::{random, Shape};

    fn toy_problem() -> (StudentNet, st_tensor::Tensor, Vec<usize>) {
        let net = StudentNet::new(StudentConfig::tiny()).unwrap();
        let x = random::uniform(Shape::nchw(1, 3, 16, 16), 0.0, 1.0, 77);
        // A fixed target label map: left half class 0, right half class 3.
        let labels: Vec<usize> = (0..16 * 16)
            .map(|i| if i % 16 < 8 { 0 } else { 3 })
            .collect();
        (net, x, labels)
    }

    fn train_loss(
        net: &mut StudentNet,
        x: &st_tensor::Tensor,
        labels: &[usize],
        steps: usize,
        mut do_step: impl FnMut(&mut StudentNet),
    ) -> (f32, f32) {
        let weights = WeightMap::uniform(16 * 16);
        let logits0 = net.forward_train(x).unwrap();
        let (loss0, _) = weighted_cross_entropy(&logits0, labels, &weights).unwrap();
        for _ in 0..steps {
            let logits = net.forward_train(x).unwrap();
            let (_, grad) = weighted_cross_entropy(&logits, labels, &weights).unwrap();
            net.backward(&grad).unwrap();
            do_step(net);
        }
        let logits1 = net.forward_train(x).unwrap();
        let (loss1, _) = weighted_cross_entropy(&logits1, labels, &weights).unwrap();
        (loss0, loss1)
    }

    #[test]
    fn adam_reduces_loss_on_overfit_target() {
        let (mut net, x, labels) = toy_problem();
        net.freeze = FreezePoint::None;
        let mut opt = Adam::new(0.01);
        let (loss0, loss1) = train_loss(&mut net, &x, &labels, 10, |n| opt.step(n));
        assert!(
            loss1 < loss0 * 0.9,
            "Adam failed to reduce loss: {loss0} -> {loss1}"
        );
        assert_eq!(opt.steps_taken(), 10);
    }

    #[test]
    fn sgd_reduces_loss_on_overfit_target() {
        let (mut net, x, labels) = toy_problem();
        net.freeze = FreezePoint::None;
        let mut opt = Sgd::new(0.005, 0.9);
        let (loss0, loss1) = train_loss(&mut net, &x, &labels, 15, |n| opt.step(n));
        assert!(
            loss1 < loss0,
            "SGD failed to reduce loss: {loss0} -> {loss1}"
        );
    }

    #[test]
    fn partial_freeze_leaves_frozen_params_untouched() {
        let (mut net, x, labels) = toy_problem();
        net.freeze = FreezePoint::paper_partial();
        // Record a frozen parameter before training.
        let mut frozen_before = None;
        let mut v = |p: &mut Param, t: bool| {
            if !t && frozen_before.is_none() {
                frozen_before = Some((p.name.clone(), p.value.clone()));
            }
        };
        net.visit_params(&mut v);
        let (name, before) = frozen_before.unwrap();

        let mut opt = Adam::new(0.01);
        let _ = train_loss(&mut net, &x, &labels, 3, |n| opt.step(n));

        let mut after = None;
        let mut v2 = |p: &mut Param, _t: bool| {
            if p.name == name {
                after = Some(p.value.clone());
            }
        };
        net.visit_params(&mut v2);
        assert_eq!(before, after.unwrap(), "frozen parameter {name} changed");
    }

    #[test]
    fn optimizer_clears_gradients() {
        let (mut net, x, labels) = toy_problem();
        net.freeze = FreezePoint::None;
        let weights = WeightMap::uniform(16 * 16);
        let logits = net.forward_train(&x).unwrap();
        let (_, grad) = weighted_cross_entropy(&logits, &labels, &weights).unwrap();
        net.backward(&grad).unwrap();
        let mut opt = Sgd::new(0.01, 0.0);
        opt.step(&mut net);
        let mut total = 0.0f32;
        let mut v = |p: &mut Param, _| total += p.grad.sq_norm();
        net.visit_params(&mut v);
        assert_eq!(total, 0.0);
    }
}
