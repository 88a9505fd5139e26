//! Cost-gated fan-out: the one place the workspace decides whether a batch
//! of independent work is worth spreading over scoped threads.
//!
//! [`fill_chunks`] splits the items of an output slice into
//! `available_parallelism().min(n)` contiguous chunks and fills them on
//! scoped threads only when the *smallest* chunk's predicted work exceeds
//! the measured cost of spawning and joining the threads. Otherwise the
//! whole slice is filled inline on the caller's thread. Either way every
//! item is written by the same code from the same input, so the answer does
//! not depend on the branch taken — only the wall-clock does. No pool, no
//! knob: callers predict nanoseconds from what they can observe in their
//! input (rows, dims), or pass `f64::INFINITY` to always fan out.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;

/// Measured cost of spawning and joining two scoped threads that do no
/// work: 47 µs, the median of 2 000 trials on a 2-vCPU Xeon @ 2.10 GHz KVM
/// guest (release, `-C target-cpu=x86-64-v3`; a slower day on the same box
/// read 63–66 µs). On that box, summing 1 500 rows × 48-d costs 58 µs
/// sequentially and 102 µs split over two threads. Re-measure with
/// `cargo test --release -p er-core --lib par::tests::spawn_join_median -- --ignored --nocapture`.
const SPAWN_JOIN_NS: f64 = 47_000.0;

/// Predicted cost of one f32 element of an exact scan: the traced
/// `core.scan_ns_per_row.lanes` of `bench_e2e` is 10–12.6 ns per 48-d row
/// on the box above, ≈ 0.25 ns per element.
///
/// `Lanes` is the fastest f32 tier, so slower tiers are under-priced and
/// the gate errs toward inline for them: `Reference` (the
/// `ScanConfig::default()` tier) reads 19.2 ns per 48-d row in the same
/// trace, so two such shards of ≈ 2 450–3 900 48-d rows each cost more than
/// a spawn yet are searched inline. For HNSW and LSH the stored rows bound
/// the rows evaluated from above, which errs the other way, toward threads.
pub const SCAN_NS_PER_ELEMENT: f64 = 0.25;

/// `available_parallelism()`, read once per process: on Linux each call
/// re-reads the cgroup CPU quota from `/sys` (≈ 22 µs on the box above,
/// half of a 1 500-row shard's search).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |w| w.get()))
}

/// Fill `out`, which holds `out.len() / width` items of `width` elements
/// each, over contiguous chunks of items.
///
/// `f(items, slots)` writes the items `items` into `slots`, the
/// `items.len() * width` elements of `out` they occupy. It must treat every
/// item alone — filling `a..c` equals filling `a..b` then `b..c` — which is
/// what makes the inline and threaded branches answer identically.
/// `chunk_ns` predicts the nanoseconds one chunk of items costs; the chunks
/// run on scoped threads only when the smallest prediction exceeds the
/// spawn+join cost, and with one worker nothing is spawned.
///
/// A panic inside `f` reaches the caller with its original payload on
/// either branch.
pub fn fill_chunks<T, F>(out: &mut [T], width: usize, chunk_ns: impl Fn(Range<usize>) -> f64, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    debug_assert!(out.len().is_multiple_of(width), "ragged items");
    let n = out.len() / width;
    let workers = cores().min(n);
    if workers <= 1 {
        return f(0..n, out);
    }
    let chunk = n.div_ceil(workers);
    let chunks = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n));
    // Every chunk, i.e. the smallest, must beat the spawn; a NaN never does.
    if !chunks.clone().all(|items| chunk_ns(items) > SPAWN_JOIN_NS) {
        return f(0..n, out);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .zip(out.chunks_mut(chunk * width))
            .map(|(items, slots)| scope.spawn(move || f(items, slots)))
            .collect();
        // Joined in order; an early `resume_unwind` leaves the rest to the
        // scope, which waits for them and then re-raises this payload.
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::thread::{self, ThreadId};
    use std::time::Instant;

    /// Each item's square, `width` times, tagged with the thread that
    /// computed it.
    fn squares(n: usize, width: usize, ns: f64) -> Vec<(usize, ThreadId)> {
        let mut out = vec![(usize::MAX, thread::current().id()); n * width];
        fill_chunks(
            &mut out,
            width,
            |_| ns,
            |items, slots| {
                for (i, item) in items.zip(slots.chunks_exact_mut(width)) {
                    item.fill((i * i, thread::current().id()));
                }
            },
        );
        out
    }

    #[test]
    fn outputs_come_back_in_input_order_on_both_branches() {
        let caller = thread::current().id();
        for n in [0, 1, 2, 3, cores(), 4 * cores() + 3, 1000] {
            for width in [1, 3] {
                let expect: Vec<usize> = (0..n * width).map(|e| (e / width).pow(2)).collect();
                let inline = squares(n, width, 0.0);
                let threaded = squares(n, width, f64::INFINITY);
                let values = |v: &[(usize, ThreadId)]| v.iter().map(|p| p.0).collect::<Vec<_>>();
                assert_eq!(values(&inline), expect, "inline, n = {n}, width = {width}");
                assert_eq!(
                    values(&threaded),
                    expect,
                    "threaded, n = {n}, width = {width}"
                );
                assert!(
                    inline.iter().all(|p| p.1 == caller),
                    "inline spawned, n = {n}"
                );
                // More than one chunk exists only with two cores and two items.
                let fans_out = threaded.iter().any(|p| p.1 != caller);
                assert_eq!(fans_out, cores() >= 2 && n >= 2, "threaded, n = {n}");
            }
        }
    }

    #[test]
    fn nan_and_borderline_predictions_stay_inline() {
        let caller = thread::current().id();
        for ns in [f64::NAN, SPAWN_JOIN_NS] {
            assert!(squares(64, 1, ns).iter().all(|p| p.1 == caller), "{ns}");
        }
    }

    #[test]
    fn the_smallest_chunk_decides() {
        // Only the first chunk is predicted to be expensive.
        let caller = thread::current().id();
        let mut out = vec![caller; 100];
        fill_chunks(
            &mut out,
            1,
            |items| if items.start == 0 { f64::INFINITY } else { 0.0 },
            |_, slots| slots.fill(thread::current().id()),
        );
        assert!(out.iter().all(|&t| t == caller));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        for ns in [0.0, f64::INFINITY] {
            let caught = catch_unwind(|| {
                fill_chunks(
                    &mut vec![0; 8 * cores()],
                    1,
                    |_| ns,
                    |items, _| {
                        if items.contains(&7) {
                            panic!("boom {}", 7);
                        }
                    },
                )
            })
            .expect_err("the panic must propagate");
            let message = caught
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| caught.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("boom 7"), "predicted {ns} ns");
        }
    }

    /// Re-measures [`SPAWN_JOIN_NS`]: the median wall-clock of spawning
    /// and joining two scoped threads that do no work.
    #[test]
    #[ignore = "timing measurement; run in release with --ignored --nocapture"]
    fn spawn_join_median() {
        const TRIALS: usize = 2000;
        let mut ns: Vec<u128> = (0..TRIALS)
            .map(|_| {
                let start = Instant::now();
                thread::scope(|scope| {
                    let a = scope.spawn(|| ());
                    let b = scope.spawn(|| ());
                    a.join().unwrap();
                    b.join().unwrap();
                });
                start.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        println!(
            "2-thread scoped spawn+join over {TRIALS} trials: p50 {} ns, p10 {} ns, p90 {} ns",
            ns[TRIALS / 2],
            ns[TRIALS / 10],
            ns[TRIALS * 9 / 10]
        );
    }
}
