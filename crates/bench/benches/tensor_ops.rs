//! Micro-benchmarks of the tensor substrate kernels that dominate student
//! inference and distillation: GEMM, im2col convolution, and channel softmax.

use criterion::{criterion_group, criterion_main, Criterion};
use st_tensor::conv::{col2im, conv2d_forward, im2col, Conv2dSpec};
use st_tensor::{matmul, ops, random, Shape};
use std::hint::black_box;

fn bench_tensor_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_ops");
    group.sample_size(20);

    let a = random::uniform(Shape::matrix(64, 256), -1.0, 1.0, 1);
    let b = random::uniform(Shape::matrix(256, 192), -1.0, 1.0, 2);
    group.bench_function("matmul_64x256x192", |bench| {
        bench.iter(|| matmul::matmul(black_box(&a), black_box(&b)).unwrap())
    });

    let spec = Conv2dSpec::square(16, 16, 3, 1);
    let input = random::uniform(Shape::nchw(1, 16, 24, 32), -1.0, 1.0, 3);
    let weight = random::uniform(spec.weight_shape(), -0.2, 0.2, 4);
    group.bench_function("conv3x3_16ch_24x32", |bench| {
        bench.iter(|| conv2d_forward(black_box(&input), black_box(&weight), None, &spec).unwrap())
    });

    // The lowering on its own, for the small student at 64×48: its largest
    // convolution (SB6's 3×3 over the 40-channel concat at half resolution)
    // and one pointwise convolution, whose "lowering" is a reshape forward
    // and a plain accumulate backward.
    for (name, spec) in [
        ("3x3_40ch_24x32", Conv2dSpec::square(40, 16, 3, 1)),
        ("1x1_16ch_24x32", Conv2dSpec::square(16, 16, 1, 1)),
    ] {
        let input = random::uniform(Shape::nchw(1, spec.in_channels, 24, 32), -1.0, 1.0, 6);
        let columns = im2col(&input, &spec).unwrap();
        group.bench_function(format!("im2col_{name}"), |bench| {
            bench.iter(|| im2col(black_box(&input), &spec).unwrap())
        });
        group.bench_function(format!("col2im_{name}"), |bench| {
            bench.iter(|| col2im(black_box(&columns), &spec, 24, 32).unwrap())
        });
    }

    let logits = random::uniform(Shape::nchw(1, 9, 48, 64), -3.0, 3.0, 5);
    group.bench_function("softmax_9ch_48x64", |bench| {
        bench.iter(|| ops::softmax_channels(black_box(&logits)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_tensor_ops);
criterion_main!(benches);
