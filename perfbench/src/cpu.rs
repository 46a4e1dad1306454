//! CPU time of this process, and the host's speed. The end-to-end figures
//! are CPU seconds, not wall seconds: on a shared virtual machine the wall
//! clock also counts the time the host gives the machine's cores to its
//! other tenants (steal time), which moved wall-time medians by 2x between
//! sets of runs of the same code. The kernel leaves steal time out of a
//! task's CPU time. What the tenants still change is how fast a core runs
//! while it is ours; a fixed reference workload, timed through the run,
//! measures that, and [`speed_scale`] takes it out.

use std::sync::{Mutex, OnceLock};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clocks of the CPU time of all the threads of the process, and
/// of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks are always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, user and system, all threads.
/// A thread that has exited may have lost its last few ms (its time since
/// the last scheduler tick), so this is for spans of many ms in which few
/// threads end.
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far, exactly.
fn thread_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Benchmark-owned reference work on two threads at once, one per core.
/// Each streams once through a buffer of its own of 8 MiB, larger than the
/// caches, as the index builds and scans stream through their columns;
/// then fills 1 MiB with a random walk, bins it, counts the runs of equal
/// bins and walks the buffer at random, as the bitmap kernels chase
/// cached words. Returns the CPU seconds of the two, each timed on its own
/// thread's clock (the process clock can miss the last ms of a thread that
/// has ended): about 9.5 ms on a 2-vCPU Xeon virtual machine.
pub fn reference_s() -> f64 {
    let buffers = BUFFERS.get_or_init(|| {
        [0u64, 1].map(|t| (0..STREAM_WORDS as u64).map(|i| i ^ t).collect())
    });
    std::thread::scope(|s| {
        let threads: Vec<_> = buffers
            .iter()
            .zip(0u64..)
            .map(|(buf, seed)| {
                s.spawn(move || {
                    let c0 = thread_s();
                    std::hint::black_box(stream(buf) ^ random_walk(seed));
                    thread_s() - c0
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum()
    })
}

/// Words in each streamed buffer: 8 MiB.
const STREAM_WORDS: usize = 1 << 20;

/// The streamed buffers, filled once, before the first timing.
static BUFFERS: OnceLock<[Vec<u64>; 2]> = OnceLock::new();

fn stream(buf: &[u64]) -> u64 {
    buf.iter()
        .fold(0u64, |acc, &v| acc.wrapping_add(v ^ (acc >> 3)))
}

fn random_walk(seed: u64) -> u64 {
    const N: usize = 1 << 17;
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut walk = 0.0f64;
    let values: Vec<f64> = (0..N)
        .map(|_| {
            walk += (next() % 1000) as f64 / 1000.0 - 0.5;
            walk
        })
        .collect();
    let bins: Vec<u8> = values.iter().map(|v| v.rem_euclid(32.0) as u8).collect();
    let mut acc = bins.windows(2).filter(|w| w[0] != w[1]).count() as u64;
    let mut j = 0usize;
    for _ in 0..N {
        j = (values[j].to_bits() as usize ^ j).wrapping_add(1) % N;
        acc ^= j as u64;
    }
    acc
}

/// The reference work's CPU seconds on the host the nominal figures are
/// given for: about the run mean of the samples on a 2-vCPU Xeon virtual
/// machine, where it read 8.5 to 9.9 ms.
const REFERENCE_NOMINAL_S: f64 = 0.0095;

/// Reference samples taken at each sampling point.
const SAMPLES_PER_POINT: usize = 4;

/// Reference CPU seconds sampled through the run.
static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Times the reference work [`SAMPLES_PER_POINT`] times and keeps the
/// times. Called between the measured phases, so the samples follow the
/// host's speed through the run.
pub fn sample_reference() {
    let t: Vec<f64> = (0..SAMPLES_PER_POINT).map(|_| reference_s()).collect();
    SAMPLES.lock().expect("samples lock poisoned").extend(t);
}

/// The run's reference samples so far.
pub fn reference_samples() -> Vec<f64> {
    SAMPLES.lock().expect("samples lock poisoned").clone()
}

/// Converts CPU seconds measured in this run to CPU seconds at the
/// nominal speed: the host's other tenants slow its cores as well as take
/// them (by up to 25% between sets of runs half an hour apart), and slow
/// the reference work with the program's. The mean, not the median, of
/// the samples, because a phase's CPU time sums its work at whatever
/// speed each moment ran. `1.0` when nothing was sampled.
pub fn speed_scale(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        REFERENCE_NOMINAL_S / crate::stats::mean(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        // The thread clock: other tests run in this process at the same time.
        let t0 = thread_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_s() - t0;
        assert!(slept < 0.01, "sleeping used {slept} CPU s");
        let (t1, p1) = (thread_s(), process_s());
        let mut x = 0u64;
        while thread_s() - t1 < 0.03 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        assert!(process_s() - p1 >= 0.03, "the process clock counts every thread");
    }

    #[test]
    fn speed_scale_maps_the_mean_sample_to_nominal() {
        let slow = [0.03, 0.02, 0.031];
        assert!((speed_scale(&slow) - REFERENCE_NOMINAL_S / 0.027).abs() < 1e-12);
        assert_eq!(speed_scale(&[]), 1.0);
        assert!(reference_s() > 0.0);
    }
}
