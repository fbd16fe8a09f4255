//! Criterion micro-benchmarks for the physical reorganization kernels:
//! crack-in-two, crack-in-three and the first-touch build, each beside the
//! loop it replaced, plus sorted-run extraction and the scan / binary search
//! baselines they compete with.
//!
//! Two decisions in `aidx_cracking::crack` rest on these numbers and can be
//! re-derived from them: `crack_in_two` is a block partition at *every*
//! piece size (compare `crack_in_two/block/..` with `crack_in_two/hoare/..`
//! across sizes and pivot positions — there is no size below which the Hoare
//! loop is ahead by more than noise, hence no threshold), and
//! `crack_in_three` is two of them rather than one Dutch-flag pass (compare
//! `crack_in_three/two_cracks/..` with `crack_in_three/dutch_flag/..`).
//!
//! A third rests on the `edge_select` group: how often a counted piece is
//! hit before it is cracked (`CRACK_ON_HIT` in `aidx_cracking::selection`)
//! depends on what a reader pays to select the row ids of a piece it did
//! not crack. The group times, at 8 192 `u32` keys and row ids (the largest
//! piece a query counts in), `select_where` on one bound and on two beside
//! `count_below` and the store-per-tuple loop the windowed select replaced,
//! and ends with an `edge_select:` line of each in ns/tuple.
//!
//! The kernels are generic over the key width a cracker column stores:
//! `block` and `two_cracks` run on `i64` keys, `block_u32` and
//! `two_cracks_u32` on the same keys as `u32` offsets, and `first_touch`
//! builds a narrow column (`fused`, the keys' own domain) beside a wide one
//! (`fused_wide`, told the domain is all of `i64`).

use aidx_cracking::crack::{
    count_below, crack_in_three, crack_in_two, select_where, CrackKey, PivotSide,
};
use aidx_cracking::cracker_column::key_domain;
use aidx_cracking::selection::CrackedIndex;
use aidx_hybrids::run::SortedRun;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 4] = [1 << 14, 1 << 17, 1 << 20, 1 << 22];
/// Where in the piece the pivot (or the low bound) falls, in percent.
const PIVOT_PERCENTS: [usize; 3] = [1, 50, 99];

/// A seeded shuffle of `0..n` with its identity row ids.
fn make_pairs(n: usize) -> (Vec<i64>, Vec<u32>) {
    let mut values: Vec<i64> = (0..n as i64).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        values.swap(i, (state >> 33) as usize % (i + 1));
    }
    (values, (0..n as u32).collect())
}

/// The same keys as `u32` offsets from zero.
fn narrow(values: &[i64]) -> Vec<u32> {
    (values.iter())
        .map(|&key| u32::try_from(key).expect("bench keys are below 2^32"))
        .collect()
}

/// The two-sided loop `crack_in_two` was until it became a block partition:
/// kept here as the baseline the kernel is measured against.
fn hoare_crack_in_two(values: &mut [i64], rowids: &mut [u32], pivot: i64) -> usize {
    if values.is_empty() {
        return 0;
    }
    let (mut lo, mut hi) = (0, values.len() - 1);
    loop {
        while lo <= hi && values[lo] < pivot {
            lo += 1;
        }
        while lo < hi && values[hi] >= pivot {
            hi -= 1;
        }
        if lo >= hi {
            return lo;
        }
        values.swap(lo, hi);
        rowids.swap(lo, hi);
        lo += 1;
        hi -= 1;
    }
}

/// The single-pass three-way loop `crack_in_three` was, likewise.
fn dutch_flag_crack_in_three(
    values: &mut [i64],
    rowids: &mut [u32],
    low: i64,
    high: i64,
) -> (usize, usize) {
    let (mut lt, mut i, mut gt) = (0, 0, values.len());
    while i < gt {
        let v = values[i];
        if v < low {
            values.swap(lt, i);
            rowids.swap(lt, i);
            lt += 1;
            i += 1;
        } else if v >= high {
            gt -= 1;
            values.swap(i, gt);
            rowids.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

fn bench_crack_in_two(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two");
    for &n in &SIZES {
        let (values, rowids) = make_pairs(n);
        let offsets = narrow(&values);
        for percent in PIVOT_PERCENTS {
            let pivot = (n * percent / 100) as i64;
            let id = format!("{n}/p{percent:02}");
            group.bench_function(BenchmarkId::new("block", &id), |b| {
                b.iter_batched(
                    || (values.clone(), rowids.clone()),
                    |(mut values, mut rowids)| {
                        crack_in_two(&mut values, &mut rowids, 0, n, pivot, PivotSide::Left)
                    },
                    BatchSize::LargeInput,
                );
            });
            group.bench_function(BenchmarkId::new("block_u32", &id), |b| {
                b.iter_batched(
                    || (offsets.clone(), rowids.clone()),
                    |(mut offsets, mut rowids)| {
                        let pivot = pivot as u32;
                        crack_in_two(&mut offsets, &mut rowids, 0, n, pivot, PivotSide::Left)
                    },
                    BatchSize::LargeInput,
                );
            });
            group.bench_function(BenchmarkId::new("hoare", &id), |b| {
                b.iter_batched(
                    || (values.clone(), rowids.clone()),
                    |(mut values, mut rowids)| hoare_crack_in_two(&mut values, &mut rowids, pivot),
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_crack_in_three(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_three");
    for &n in &SIZES {
        let (values, rowids) = make_pairs(n);
        let offsets = narrow(&values);
        // a range 1 % of the piece wide, at its bottom, middle and top
        for percent in [1, 50, 98] {
            let low = (n * percent / 100) as i64;
            let high = low + (n / 100) as i64;
            let id = format!("{n}/p{percent:02}");
            group.bench_function(BenchmarkId::new("two_cracks", &id), |b| {
                b.iter_batched(
                    || (values.clone(), rowids.clone()),
                    |(mut values, mut rowids)| {
                        let split = crack_in_three(&mut values, &mut rowids, 0, n, low, high);
                        split.high_split - split.low_split
                    },
                    BatchSize::LargeInput,
                );
            });
            group.bench_function(BenchmarkId::new("two_cracks_u32", &id), |b| {
                b.iter_batched(
                    || (offsets.clone(), rowids.clone()),
                    |(mut offsets, mut rowids)| {
                        let (low, high) = (low as u32, high as u32);
                        let split = crack_in_three(&mut offsets, &mut rowids, 0, n, low, high);
                        split.high_split - split.low_split
                    },
                    BatchSize::LargeInput,
                );
            });
            group.bench_function(BenchmarkId::new("dutch_flag", &id), |b| {
                b.iter_batched(
                    || (values.clone(), rowids.clone()),
                    |(mut values, mut rowids)| {
                        let (low_split, high_split) =
                            dutch_flag_crack_in_three(&mut values, &mut rowids, low, high);
                        high_split - low_split
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

/// The first query on a column: a chunked source becomes a cracker column
/// cracked on a range 1 % of the domain wide.
fn bench_first_touch(c: &mut Criterion) {
    let mut group = c.benchmark_group("first_touch");
    for n in [1usize << 20, 1 << 22] {
        let (values, _) = make_pairs(n);
        let chunks: Vec<&[i64]> = values.chunks(4096).collect();
        let domain = key_domain(&values);
        let low = (n / 2) as i64;
        let high = low + (n / 100) as i64;
        // partition while copying, then read the answer's piece: 8-byte
        // tuples, and 12-byte ones
        for (name, domain) in [
            ("fused", domain),
            ("fused_wide", Some((i64::MIN, i64::MAX))),
        ] {
            group.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| {
                    let mut index = CrackedIndex::from_chunks(&chunks, domain, Some((low, high)));
                    let answer = index.query_range(low, high).len();
                    (index, answer)
                })
            });
        }
        // copy, then crack the copy in place
        group.bench_function(BenchmarkId::new("copy_then_crack", n), |b| {
            b.iter(|| {
                let mut index = CrackedIndex::from_chunks(&chunks, domain, None);
                let answer = index.query_range(low, high).len();
                (index, answer)
            })
        });
        // the copy alone, and the scan a first query replaces
        group.bench_function(BenchmarkId::new("copy", n), |b| {
            b.iter(|| CrackedIndex::from_chunks(&chunks, domain, None))
        });
        group.bench_function(BenchmarkId::new("scan_count", n), |b| {
            b.iter(|| values.iter().filter(|&&v| v >= low && v < high).count())
        });
    }
    group.finish();
}

/// The select a reader ran over a counted piece before the windowed
/// `select_where`: one bounds-checked store per tuple, kept here as the
/// baseline the kernel is measured against.
fn store_per_tuple<K: CrackKey>(
    values: &[K],
    payload: &[u32],
    (first, last): (K, K),
    out: &mut Vec<u32>,
) {
    let start = out.len();
    out.resize(start + values.len(), 0);
    let slots = &mut out[start..];
    let mut cursor = 0;
    for (&key, &entry) in values.iter().zip(payload) {
        slots[cursor] = entry;
        cursor += usize::from((first <= key) & (key <= last));
    }
    out.truncate(start + cursor);
}

/// Keys in the largest piece a query counts in, and passes per timed sample.
const EDGE_KEYS: usize = 8_192;
const EDGE_PASSES: usize = 64;

/// One pass of an edge kernel, appending what it selects (or its count).
type EdgeKernel<'a> = Box<dyn FnMut(&mut Vec<u32>) + 'a>;

/// A counted edge piece as a reader meets it: about half its keys on the
/// answer's side of the bound, in no order.
fn bench_edge_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_select");
    let (values, rowids) = make_pairs(EDGE_KEYS);
    let keys = narrow(&values);
    let (half, quarter) = ((EDGE_KEYS / 2) as u32, (EDGE_KEYS / 4) as u32);
    let mut out = Vec::with_capacity(EDGE_KEYS + 8);
    let mut kernels: [(&str, EdgeKernel); 4] = [
        (
            "select_where/one_bound",
            Box::new(|out| select_where(&keys, &rowids, |key| half <= key, out)),
        ),
        (
            "select_where/two_bounds",
            Box::new(|out| {
                let keep = |key| (quarter <= key) & (key <= half + quarter);
                select_where(&keys, &rowids, keep, out)
            }),
        ),
        (
            "store_per_tuple",
            Box::new(|out| store_per_tuple(&keys, &rowids, (quarter, half + quarter), out)),
        ),
        (
            "count_below",
            Box::new(|out| out.push(count_below(&keys, half) as u32)),
        ),
    ];
    let pass = |kernel: &mut dyn FnMut(&mut Vec<u32>), out: &mut Vec<u32>| {
        for _ in 0..EDGE_PASSES {
            out.clear();
            kernel(out);
            black_box(&mut *out);
        }
    };
    for (name, kernel) in &mut kernels {
        group.bench_function(BenchmarkId::new(*name, EDGE_KEYS), |b| {
            b.iter(|| pass(kernel, &mut out))
        });
    }
    group.finish();
    let per_tuple: Vec<String> = (kernels.iter_mut())
        .map(|(name, kernel)| {
            let mut samples: Vec<f64> = (0..31)
                .map(|_| {
                    let start = Instant::now();
                    pass(kernel, &mut out);
                    start.elapsed().as_nanos() as f64 / (EDGE_PASSES * EDGE_KEYS) as f64
                })
                .collect();
            samples.sort_unstable_by(f64::total_cmp);
            format!("{name} {:.2}", samples[samples.len() / 2])
        })
        .collect();
    println!(
        "edge_select: {} ns/tuple (median of 31, {EDGE_KEYS} u32 keys)",
        per_tuple.join(", ")
    );
}

fn bench_scan_vs_sorted_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_baselines");
    let n = 1 << 20;
    let (values, _) = make_pairs(n);
    let low = (n / 4) as i64;
    let high = low + (n / 100) as i64;

    group.bench_function("full_scan_count", |b| {
        b.iter(|| black_box(values.iter().filter(|&&v| v >= low && v < high).count()))
    });

    let run = SortedRun::from_pairs(
        values
            .iter()
            .copied()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect(),
    );
    group.bench_function("sorted_run_count", |b| {
        b.iter(|| black_box(run.count_range(low, high)))
    });
    group.bench_function("sorted_run_extract_and_restore", |b| {
        b.iter_batched(
            || run.clone(),
            |mut run| black_box(run.extract_range(low, high).len()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(15);
    targets = bench_edge_select, bench_crack_in_two, bench_crack_in_three, bench_first_touch,
        bench_scan_vs_sorted_extract
}
criterion_main!(kernels);
