//! A fixed reference computation that measures the host's current speed.
//!
//! The host the benchmark was tuned on (a 2-vCPU KVM guest on a shared
//! 2.1 GHz Xeon) does not run at one speed: other tenants slow it by up
//! to about 1.6x, in stretches from a fraction of a second to minutes,
//! so wall times of the same code differed by 20-50% between runs, and
//! even the fastest passes of a run drifted by 10%. The benchmark
//! therefore runs a short [`chunk`] of its own, fixed code before the
//! first job of a pass or set-up and after every job, and divides each
//! job's wall time by the job's slowdown: the mean of the chunks on
//! either side of it over [`REF_CHUNK_NS`]. Host times are reported at
//! this reference speed. The toolchain's code cannot change the chunk;
//! untimed warm-up runs keep the cache and predictor state a job leaves
//! behind from moving it much, but a chunk after short jobs still runs
//! faster than one after long compiles, so the scale differs a little
//! between workloads and is constant within one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds one chunk takes at the reference speed (the uncontended
/// 2.1 GHz Xeon (Sapphire Rapids) KVM guest the benchmark was tuned on).
pub const REF_CHUNK_NS: f64 = 6_000.0;

/// Runs the reference computation and returns the wall time of its
/// timed run in nanoseconds: sorting, a B-tree and lookups over a few
/// hundred keys, the mix of allocation, branches and pointer chasing the
/// toolchain's own passes are made of.
pub fn chunk() -> u64 {
    // The job before leaves this code and data cold in the caches and
    // predictors; untimed runs warm them, so the timed run measures the
    // core's speed rather than how much the job evicted.
    for _ in 0..WARM_RUNS {
        reference_work();
    }
    let start = Instant::now();
    reference_work();
    start.elapsed().as_nanos() as u64
}

/// Untimed runs before the timed one.
const WARM_RUNS: usize = 3;

fn reference_work() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u32> = (0..256)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 40) as u32
        })
        .collect();
    keys.sort_unstable();
    let map: BTreeMap<u32, usize> = keys.iter().step_by(2).copied().zip(0..).collect();
    let found: usize = keys.iter().filter_map(|k| map.get(k)).sum();
    black_box(found);
}

/// Host speed around a sequence of jobs: a chunk before the first job
/// and after each one.
pub struct Gauge {
    last_ns: u64,
    /// Wall time the chunks took, to leave out of the timed work.
    pub spent_ns: u64,
    slowdowns: f64,
    jobs: u32,
}

impl Gauge {
    /// Measures the speed before the first job.
    pub fn start() -> Gauge {
        let mut gauge = Gauge {
            last_ns: 0,
            spent_ns: 0,
            slowdowns: 0.0,
            jobs: 0,
        };
        gauge.last_ns = gauge.measure();
        gauge
    }

    /// One chunk; its whole cost, warm-up included, goes to `spent_ns`.
    fn measure(&mut self) -> u64 {
        let start = Instant::now();
        let ns = chunk();
        self.spent_ns += start.elapsed().as_nanos() as u64;
        ns
    }

    /// Measures the speed after a job and returns the job's slowdown
    /// against the reference: the mean of the chunks on either side of
    /// it over [`REF_CHUNK_NS`].
    pub fn after_job(&mut self) -> f64 {
        let now_ns = self.measure();
        let slowdown = (self.last_ns + now_ns) as f64 / 2.0 / REF_CHUNK_NS;
        self.last_ns = now_ns;
        self.slowdowns += slowdown;
        self.jobs += 1;
        slowdown
    }

    /// The mean slowdown over the jobs so far (1 before any).
    pub fn mean(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.slowdowns / f64::from(self.jobs)
        }
    }
}
