//! Scheduler microbenches: the calendar queue against the `BinaryHeap` it
//! replaced, at 1k / 100k / 1M pending events.
//!
//! Two shapes per size:
//!
//! * **fill+drain** — push `n` events with pseudo-random offsets, then pop
//!   the queue dry (the cold path a fresh load point pays once);
//! * **churn** — hold `n` events pending and do pop-one/push-one pairs
//!   (the hold-model steady state of many concurrent transfers, where
//!   the calendar queue's O(1) amortized ops beat the heap's O(log n)).
//!
//! With `tap-bench`'s `netsim.network.pingpong_ns_per_event`, this is
//! what measures the event kernel on its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use tap_netsim::{CalendarQueue, SimDuration, SimTime};

/// The workload's delay distribution: splitmix64 over the event index,
/// mapped to [1 ms, 400 ms] — the band the paper's latencies plus NIC
/// serialization actually produce.
fn delay_us(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    1_000 + (z ^ (z >> 31)) % 399_000
}

fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_fill_drain");
    for &n in &[1_000u64, 100_000, 1_000_000] {
        group.throughput(Throughput::Elements(n));
        group.sample_size(if n >= 1_000_000 { 10 } else { 20 });
        group.bench_function(format!("calendar_{n}"), |b| {
            b.iter_batched(
                CalendarQueue::<u64>::new,
                |mut q| {
                    for i in 0..n {
                        q.push(SimTime::from_micros(delay_us(i)), i);
                    }
                    let mut last = 0;
                    while let Some((k, _)) = q.pop() {
                        last = k.at.as_micros();
                    }
                    last
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function(format!("heap_{n}"), |b| {
            b.iter_batched(
                BinaryHeap::<Reverse<(u64, u64)>>::new,
                |mut q| {
                    for i in 0..n {
                        q.push(Reverse((delay_us(i), i)));
                    }
                    let mut last = 0;
                    while let Some(Reverse((at, _))) = q.pop() {
                        last = at;
                    }
                    last
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_churn");
    for &n in &[1_000u64, 100_000, 1_000_000] {
        group.throughput(Throughput::Elements(1));

        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..n {
            q.push(SimTime::from_micros(delay_us(i)), i);
        }
        let mut i = n;
        group.bench_function(format!("calendar_{n}_pending"), |b| {
            b.iter(|| {
                let (k, v) = q.pop().expect("queue held at n pending");
                i += 1;
                q.push(k.at + SimDuration::from_micros(delay_us(i)), v);
                v
            })
        });

        let mut h: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for i in 0..n {
            h.push(Reverse((delay_us(i), i)));
        }
        let mut j = n;
        group.bench_function(format!("heap_{n}_pending"), |b| {
            b.iter(|| {
                let Reverse((at, v)) = h.pop().expect("heap held at n pending");
                j += 1;
                h.push(Reverse((at + delay_us(j), v)));
                v
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fill_drain, bench_churn);
criterion_main!(benches);
