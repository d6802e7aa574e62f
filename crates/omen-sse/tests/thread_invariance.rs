//! The SSE kernels' parallel paths must give bitwise the same Σ^≷ and Π^≷
//! at every thread count. The problem here is sized above the kernels'
//! parallel-dispatch threshold (2^16 complex elements of Σ), so stages
//! A–D really run on the pool's workers.

use omen_device::{DeviceConfig, DeviceStructure};
use omen_sse::testutil::random_inputs;
use omen_sse::{
    sse_reference, DTensor, GTensor, MixedConfig, MixedKernel, SseKernel, SseOutput, SseProblem,
    TransformedKernel,
};

fn run_in_pool(
    threads: usize,
    kernel: &mut dyn SseKernel,
    prob: &SseProblem,
    inputs: &(GTensor, GTensor, DTensor, DTensor),
) -> SseOutput {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let (gl, gg, dl, dg) = inputs;
    pool.install(|| kernel.run(prob, gl, gg, dl, dg).clone())
}

fn bits(xs: &[omen_linalg::C64]) -> Vec<(u64, u64)> {
    xs.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn assert_bitwise(a: &SseOutput, b: &SseOutput, what: &str) {
    assert!(
        bits(a.sigma_l.as_slice()) == bits(b.sigma_l.as_slice()),
        "{what}: Σ< differs"
    );
    assert!(
        bits(a.sigma_g.as_slice()) == bits(b.sigma_g.as_slice()),
        "{what}: Σ> differs"
    );
    assert!(
        bits(a.pi_l.as_slice()) == bits(b.pi_l.as_slice()),
        "{what}: Π< differs"
    );
    assert!(
        bits(a.pi_g.as_slice()) == bits(b.pi_g.as_slice()),
        "{what}: Π> differs"
    );
}

#[test]
fn kernels_are_bitwise_independent_of_thread_count() {
    let dev = DeviceStructure::build(DeviceConfig::demo());
    let (nk, ne, nw) = (2, 40, 2);
    let prob = SseProblem::new(&dev, nk, ne, nk, nw, 1.0, 1.0);
    let norb = prob.norb();
    assert!(
        nk * ne * prob.na() * norb * norb >= 1 << 16,
        "problem must exceed the parallel-dispatch threshold"
    );
    let inputs = random_inputs(&prob, 31);

    let one = run_in_pool(1, &mut TransformedKernel::new(), &prob, &inputs);
    let two = run_in_pool(2, &mut TransformedKernel::new(), &prob, &inputs);
    assert_bitwise(&one, &two, "transformed 1 vs 2 threads");

    let mixed = || MixedKernel::new(MixedConfig::default());
    let m_one = run_in_pool(1, &mut mixed(), &prob, &inputs);
    let m_two = run_in_pool(2, &mut mixed(), &prob, &inputs);
    assert_bitwise(&m_one, &m_two, "mixed 1 vs 2 threads");

    // And the parallel transformed result is still the reference physics.
    let (gl, gg, dl, dg) = &inputs;
    let reference = sse_reference(&prob, gl, gg, dl, dg);
    let r = &reference;
    let checks = [
        (
            "Σ<",
            two.sigma_l.max_deviation(&r.sigma_l) / r.sigma_l.max_abs(),
        ),
        (
            "Σ>",
            two.sigma_g.max_deviation(&r.sigma_g) / r.sigma_g.max_abs(),
        ),
        ("Π<", two.pi_l.max_deviation(&r.pi_l) / r.pi_l.max_abs()),
        ("Π>", two.pi_g.max_deviation(&r.pi_g) / r.pi_g.max_abs()),
    ];
    for (name, dev) in checks {
        assert!(
            dev <= 1e-12,
            "{name} relative deviation {dev:e} vs reference"
        );
    }
}
