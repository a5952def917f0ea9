//! Microbenchmarks of the enclave boundary: ecall dispatch through the
//! host (real time) and the virtual-time cost model arithmetic.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use splitbft_tee::enclave::{Enclave, OcallSink};
use splitbft_tee::{CostModel, EnclaveHost, ExecMode};

struct Echo;
impl Enclave for Echo {
    fn measurement(&self) -> [u8; 32] {
        [0xEC; 32]
    }
    fn handle_ecall(&mut self, _id: u32, input: &[u8], env: &mut dyn OcallSink) -> Vec<u8> {
        env.ocall(1, &input[..input.len().min(32)]);
        input.to_vec()
    }
}

fn bench_boundary(c: &mut Criterion) {
    let mut g = c.benchmark_group("boundary");
    g.sample_size(20);

    let small = vec![0u8; 64];
    let batch = vec![0u8; 16 * 1024];

    let mut host = EnclaveHost::new(Echo, ExecMode::Hardware, CostModel::paper_calibrated());
    g.bench_function("ecall/64B", |b| {
        b.iter(|| host.ecall(1, black_box(&small)).unwrap().output)
    });
    g.bench_function("ecall/16KiB", |b| {
        b.iter(|| host.ecall(1, black_box(&batch)).unwrap().output)
    });

    let cost = CostModel::paper_calibrated();
    g.bench_function("cost-model/ecall_boundary_ns", |b| {
        b.iter(|| cost.ecall_boundary_ns(black_box(4096), black_box(128)))
    });
    g.finish();
}

criterion_group!(benches, bench_boundary);
criterion_main!(benches);
