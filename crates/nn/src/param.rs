//! Named trainable parameters and traversal utilities.

use st_tensor::Tensor;

/// A single trainable parameter: its value and its accumulated gradient.
///
/// Gradients are accumulated by the layer backward passes and consumed (and
/// cleared) by the optimizer. The `name` uniquely identifies the parameter
/// within a network (e.g. `"sb5.conv33.weight"`) and is what the snapshot /
/// diff machinery keys on.
#[derive(Debug, Clone)]
pub struct Param {
    /// Unique name within the owning network.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Create a parameter with a zeroed gradient buffer.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Number of scalar elements in the parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }
}

/// Visitor over a network's parameters.
///
/// Layers call the visitor once per parameter in a *stable, deterministic
/// order*; optimizers rely on that order to match their per-parameter state
/// (Adam moments) across steps.
pub trait ParamVisitor {
    /// Visit one parameter mutably. `trainable` reflects the network's
    /// current freeze configuration for the stage that owns the parameter.
    fn visit(&mut self, param: &mut Param, trainable: bool);
}

impl<F: FnMut(&mut Param, bool)> ParamVisitor for F {
    fn visit(&mut self, param: &mut Param, trainable: bool) {
        self(param, trainable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::Shape;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones(Shape::matrix(2, 3)));
        assert_eq!(p.numel(), 6);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.name, "w");
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new("w", Tensor::ones(Shape::vector(3)));
        p.grad = Tensor::full(Shape::vector(3), 2.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
