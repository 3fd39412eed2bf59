//! The four workloads: their set-up, their jobs and one pass over them.
//!
//! A pass runs every job of the workload's job set once per round, in
//! an order drawn from the seed and the pass number. The job set is the
//! same in every pass, so every deterministic value a job produces must
//! repeat exactly; the first occurrence is the reference the later ones
//! are checked against.

use std::collections::BTreeMap;
use std::time::Instant;

use patmos_asm::ObjectImage;
use patmos_compiler::CompileOptions;
use patmos_mem::{MethodCacheConfig, ReplacementPolicy};
use patmos_sim::faults::{golden_run, run_injection, FaultPlan, FaultRng, FaultSpace, GoldenRun};
use patmos_sim::{CacheParams, ControlFlowMap, FaultOutcome, Injection, SimConfig};
use patmos_wcet::{build_cfgs, flow_map};

use crate::calib::Gauge;
use crate::jobs::{check_fidelity, check_image, compile_kernel, replay, Kernel, Values};
use crate::trace::Tracer;

/// Method-cache sizes of the cache-sweep grid, in 64-word blocks.
const METHOD_CACHE_BLOCKS: [u32; 4] = [4, 8, 16, 32];

/// Data-cache geometries of the cache-sweep grid: (sets, ways, words
/// per line), LRU. The first is the simulator's default.
const DATA_CACHES: [(u32, u32, u32); 3] = [(1, 32, 8), (4, 4, 8), (16, 2, 4)];

/// Injections per kernel in one fault-campaign pass.
const INJECTIONS_PER_KERNEL: usize = 100;

/// Suite rounds per suite-o1 pass: one round takes only ~10 ms.
const O1_ROUNDS: usize = 8;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 22 kernels at the default opt3/sched2.
    SuiteO3,
    /// The 22 kernels at opt1/sched1.
    SuiteO1,
    /// WCET and simulation over a method-/data-cache grid.
    CacheSweep,
    /// Seeded single-fault injections with the flow checker armed.
    FaultCampaign,
}

impl Kind {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::SuiteO3,
        Kind::SuiteO1,
        Kind::CacheSweep,
        Kind::FaultCampaign,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteO3 => "suite-o3",
            Kind::SuiteO1 => "suite-o1",
            Kind::CacheSweep => "cache-sweep",
            Kind::FaultCampaign => "fault-campaign",
        }
    }

    /// Whether the measured jobs compile the kernels.
    pub fn compiles(self) -> bool {
        matches!(self, Kind::SuiteO3 | Kind::SuiteO1)
    }

    /// The compile options of the workload's kernels.
    fn options(self) -> CompileOptions {
        match self {
            Kind::SuiteO1 => CompileOptions {
                opt_level: 1,
                sched_level: 1,
                ..CompileOptions::default()
            },
            _ => CompileOptions::default(),
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream (job order only).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A permutation of `0..n` drawn from `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One job of a pass.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Compile, bound, simulate and check one kernel.
    Suite(usize),
    /// Bound and simulate one default image under one grid point.
    Sweep { kernel: usize, config: usize },
    /// One injection into one kernel.
    Inject { kernel: usize, index: usize },
}

/// A finished job's deterministic values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOut {
    /// Values every run computes.
    pub plain: Values,
    /// Values only the traced run's probe computes.
    pub probe: Option<Values>,
}

/// Reference values per job, and totals over one round of the job set.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    jobs: BTreeMap<usize, JobOut>,
}

impl Reference {
    /// Records `out` for `job`, or checks it against the recorded one.
    fn check(&mut self, job: usize, out: JobOut) -> Result<(), String> {
        let Some(known) = self.jobs.get_mut(&job) else {
            self.jobs.insert(job, out);
            return Ok(());
        };
        if known.plain != out.plain {
            return Err(format!(
                "job {job}: values {:?} differ from the first pass's {:?}",
                out.plain, known.plain
            ));
        }
        match (&known.probe, out.probe) {
            (Some(a), Some(b)) if *a != b => Err(format!(
                "job {job}: layer counts {b:?} differ from the first traced pass's {a:?}"
            )),
            (None, Some(b)) => {
                known.probe = Some(b);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Whether any job recorded a value named `name`.
    pub fn has(&self, name: &str) -> bool {
        self.values().any(|(n, _)| n == name)
    }

    fn values(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.jobs
            .values()
            .flat_map(|j| j.plain.iter().chain(j.probe.iter().flatten()).copied())
    }

    /// Sum of the values named `name` over one round of the job set.
    pub fn total(&self, name: &str) -> u64 {
        self.values()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The value named `name` of job `job`.
    pub fn value(&self, job: usize, name: &str) -> Option<u64> {
        let j = self.jobs.get(&job)?;
        j.plain.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every job's `(bound, cycles)` pair, where it has both.
    pub fn bound_pairs(&self) -> Vec<(u64, u64)> {
        self.jobs
            .keys()
            .filter_map(|&j| {
                Some((
                    self.value(j, "wcet_bound_cycles")?,
                    self.value(j, "guest_cycles")?,
                ))
            })
            .collect()
    }

    /// Fails if a later set-up's values differ from these, the first's.
    pub fn same_setup(&self, later: &Reference) -> Result<(), String> {
        if self.jobs == later.jobs {
            return Ok(());
        }
        let job = self
            .jobs
            .keys()
            .chain(later.jobs.keys())
            .find(|k| self.jobs.get(k) != later.jobs.get(k));
        Err(format!("set-up job {job:?} differs between set-ups"))
    }
}

/// Per-kernel host times of the suite workloads.
#[derive(Debug, Default, Clone)]
pub struct KernelTimes {
    /// `compile_to_asm` + `assemble`, one sample per compile.
    pub compile_ms: Vec<f64>,
    /// Replayed `schedule_with_report` self time, one per traced compile.
    pub sched_ms: Vec<f64>,
}

/// Per-kernel set-up state of the fault campaign.
struct Campaign {
    golden: GoldenRun,
    flow: ControlFlowMap,
    injections: Vec<Injection>,
}

/// What one set-up did.
pub struct SetupOut {
    /// Values of the kernels' reference jobs.
    pub reference: Reference,
    /// Host time of compiling the suite once, at the reference speed.
    pub compile_ms: f64,
    /// Host speed during the set-up's jobs.
    pub gauge: Gauge,
    /// Jobs run; a failed one aborts the set-up.
    pub jobs: usize,
}

/// One measured pass. Host times are at the reference speed (see
/// [`crate::calib`]).
pub struct PassOut {
    /// Time of the pass's jobs.
    pub ms: f64,
    /// The same, as measured.
    pub raw_ms: f64,
    /// Compile time per suite round (suite workloads).
    pub compile_ms: f64,
    /// Jobs run.
    pub jobs: usize,
    /// Jobs failed.
    pub failed: usize,
    /// The first failure's message.
    pub first_error: Option<String>,
}

/// A workload after set-up.
pub struct Bench {
    seed: u64,
    options: CompileOptions,
    kernels: Vec<Kernel>,
    images: Vec<ObjectImage>,
    configs: Vec<SimConfig>,
    campaigns: Vec<Campaign>,
    jobs: Vec<Job>,
    rounds: usize,
}

/// Runs one suite job: compile, bound, simulate, check; with `probe`,
/// also the layer replay (and, with `fidelity`, its check against the
/// compiler's own pipeline). `parity` alternates the replay's schedule
/// order.
fn suite_job(
    tr: &mut Tracer,
    kernel: &Kernel,
    options: &CompileOptions,
    probe: bool,
    fidelity: bool,
    parity: bool,
) -> Result<(ObjectImage, f64, JobOut), String> {
    let compiled = compile_kernel(tr, kernel, options)?;
    let checked = check_image(tr, &compiled.image, &SimConfig::default(), kernel.expected)
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    let mut plain = compiled.values;
    plain.extend(checked);
    let probe = if probe {
        let replayed = tr.span("probe", |tr| {
            replay(tr, kernel, options, &compiled.image, parity)
        })?;
        if fidelity {
            tr.span("fidelity", |_| check_fidelity(kernel, options, &replayed))?;
        }
        Some(replayed.values)
    } else {
        None
    };
    let compile_ms = compiled.compile_ns as f64 / 1e6;
    Ok((compiled.image, compile_ms, JobOut { plain, probe }))
}

impl Bench {
    /// Builds the workload's inputs from `seed`: generates the kernels,
    /// compiles and checks each once (the suites' reference pass, the
    /// other workloads' images) and, per workload, draws the cache grid
    /// or the fault plan. With `probe`, the compiles are replayed layer
    /// by layer and, with `fidelity`, checked against the compiler's own
    /// pipeline.
    pub fn setup(
        kind: Kind,
        seed: u64,
        tr: &mut Tracer,
        probe: bool,
        fidelity: bool,
    ) -> Result<(Bench, SetupOut), String> {
        let kernels: Vec<Kernel> = tr.span("setup.kernels", |_| {
            patmos_workloads::all()
                .into_iter()
                .map(|w| Kernel {
                    name: w.name,
                    source: w.source,
                    expected: w.expected,
                })
                .collect()
        });
        let options = kind.options();
        let mut reference = Reference::default();
        let mut images = Vec::new();
        let mut compile_ms = 0.0;
        let mut gauge = Gauge::start();
        for (k, kernel) in kernels.iter().enumerate() {
            tr.set_job(k as u32);
            let (image, ms, out) = tr.span("job", |tr| {
                suite_job(tr, kernel, &options, probe, fidelity, k % 2 == 1)
            })?;
            compile_ms += ms / gauge.after_job();
            reference.check(k, out)?;
            images.push(image);
        }
        let mut bench = Bench {
            seed,
            options,
            jobs: Vec::new(),
            images: Vec::new(),
            configs: Vec::new(),
            campaigns: Vec::new(),
            rounds: 1,
            kernels,
        };
        match kind {
            Kind::SuiteO3 => bench.jobs = (0..bench.kernels.len()).map(Job::Suite).collect(),
            Kind::SuiteO1 => {
                bench.jobs = (0..bench.kernels.len()).map(Job::Suite).collect();
                bench.rounds = O1_ROUNDS;
            }
            Kind::CacheSweep => {
                bench.configs = cache_grid();
                bench.jobs = (0..bench.kernels.len())
                    .flat_map(|kernel| {
                        (0..bench.configs.len()).map(move |config| Job::Sweep { kernel, config })
                    })
                    .collect();
                bench.images = images;
            }
            Kind::FaultCampaign => {
                for (k, (kernel, image)) in bench.kernels.iter().zip(&images).enumerate() {
                    tr.set_job(k as u32);
                    let campaign = tr.span("setup.campaign", |tr| {
                        plan_campaign(tr, seed, kernel, image)
                    })?;
                    bench.campaigns.push(campaign);
                }
                bench.jobs = (0..bench.kernels.len())
                    .flat_map(|kernel| {
                        (0..INJECTIONS_PER_KERNEL).map(move |index| Job::Inject { kernel, index })
                    })
                    .collect();
                bench.images = images;
            }
        }
        let jobs = bench.kernels.len();
        Ok((
            bench,
            SetupOut {
                reference,
                compile_ms,
                gauge,
                jobs,
            },
        ))
    }

    /// Jobs in one round.
    pub fn round_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Suite rounds per pass.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Kernel names, by kernel index.
    pub fn kernel_names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name).collect()
    }

    /// Runs pass `pass`; with `probe`, each job also runs the traced
    /// layer probe. Values are checked against `reference`; suite jobs
    /// add their host times to `kernels`.
    pub fn run_pass(
        &self,
        pass: u64,
        tr: &mut Tracer,
        probe: bool,
        reference: &mut Reference,
        kernels: &mut [KernelTimes],
    ) -> PassOut {
        let mut out = PassOut {
            ms: 0.0,
            raw_ms: 0.0,
            compile_ms: 0.0,
            jobs: 0,
            failed: 0,
            first_error: None,
        };
        let mut gauge = Gauge::start();
        for round in 0..self.rounds {
            let order_seed = self.seed ^ (pass << 20) ^ (round as u64) << 8;
            for j in shuffled(self.jobs.len(), order_seed) {
                let suite = match self.jobs[j] {
                    Job::Suite(k) => Some(k),
                    _ => None,
                };
                let parity = suite.is_some_and(|k| kernels[k].sched_ms.len() % 2 == 1);
                tr.set_job(j as u32);
                let mark = tr.mark();
                let start = Instant::now();
                let checked = self
                    .run_job(tr, j, probe, parity)
                    .and_then(|(compile_ms, job)| reference.check(j, job).map(|()| compile_ms));
                let job_ms = start.elapsed().as_secs_f64() * 1e3;
                let slowdown = gauge.after_job();
                out.raw_ms += job_ms;
                out.ms += job_ms / slowdown;
                out.jobs += 1;
                match checked {
                    Ok(compile_ms) => {
                        out.compile_ms += compile_ms / slowdown;
                        if let Some(k) = suite {
                            kernels[k].compile_ms.push(compile_ms / slowdown);
                            if probe {
                                let sched = tr.total_ms(mark, "sched.schedule_with_report");
                                kernels[k].sched_ms.push(sched / slowdown);
                            }
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.first_error.get_or_insert(e);
                    }
                }
            }
        }
        out.compile_ms /= self.rounds as f64;
        out
    }

    /// Runs job `j`; returns its compile time (0 for jobs that do not
    /// compile) and its values.
    fn run_job(
        &self,
        tr: &mut Tracer,
        j: usize,
        probe: bool,
        parity: bool,
    ) -> Result<(f64, JobOut), String> {
        match self.jobs[j] {
            Job::Suite(k) => {
                let kernel = &self.kernels[k];
                let (_, ms, out) = tr.span("job", |tr| {
                    suite_job(tr, kernel, &self.options, probe, false, parity)
                })?;
                Ok((ms, out))
            }
            Job::Sweep { kernel, config } => tr.span("job", |tr| {
                let k = &self.kernels[kernel];
                let image = &self.images[kernel];
                let checked = check_image(tr, image, &self.configs[config], k.expected)
                    .map_err(|e| format!("{} @ grid point {config}: {e}", k.name))?;
                let probe = probe.then(|| {
                    let cfgs = tr.span("probe", |tr| {
                        tr.span("wcet.build_cfgs", |_| build_cfgs(image))
                    });
                    let blocks = cfgs.map_or(0, |c| c.iter().map(|c| c.blocks.len() as u64).sum());
                    vec![("wcet.blocks", blocks)]
                });
                Ok((
                    0.0,
                    JobOut {
                        plain: checked,
                        probe,
                    },
                ))
            }),
            Job::Inject { kernel, index } => {
                let campaign = &self.campaigns[kernel];
                let injected = tr.span("sim.run_injection", |_| {
                    run_injection(
                        &self.images[kernel],
                        &SimConfig::default(),
                        campaign.injections[index],
                        Some(&campaign.flow),
                        &campaign.golden,
                    )
                });
                let class = match injected.outcome {
                    FaultOutcome::Masked => "faults.masked",
                    FaultOutcome::SilentDataCorruption => "faults.sdc",
                    FaultOutcome::Detected(patmos_sim::DetectorKind::Watchdog)
                    | FaultOutcome::Hang => "faults.hang",
                    FaultOutcome::Detected(_) => "faults.detected",
                };
                Ok((
                    0.0,
                    JobOut {
                        plain: vec![
                            ("guest_cycles", injected.cycles),
                            (class, 1),
                            ("faults.fired", u64::from(injected.injected)),
                            ("faults.latency", injected.detection_latency.unwrap_or(0)),
                        ],
                        probe: None,
                    },
                ))
            }
        }
    }
}

/// The cache-sweep grid: every method-cache size × data-cache geometry.
fn cache_grid() -> Vec<SimConfig> {
    METHOD_CACHE_BLOCKS
        .iter()
        .flat_map(|&blocks| {
            DATA_CACHES
                .iter()
                .map(move |&(sets, ways, line)| SimConfig {
                    method_cache: MethodCacheConfig::new(blocks, 64, ReplacementPolicy::Fifo),
                    data_cache: CacheParams::new(sets, ways, line, ReplacementPolicy::Lru),
                    ..SimConfig::default()
                })
        })
        .collect()
}

/// The fault campaign's per-kernel set-up: golden run, flow map, fault
/// space and the seeded injections.
fn plan_campaign(
    tr: &mut Tracer,
    seed: u64,
    kernel: &Kernel,
    image: &ObjectImage,
) -> Result<Campaign, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", kernel.name);
    let golden = tr
        .span("faults.golden_run", |_| {
            golden_run(image, &SimConfig::default())
        })
        .map_err(|e| fail(&e))?;
    if golden.result_r1 != kernel.expected {
        return Err(fail(&format!(
            "golden R1 = {}, reference {}",
            golden.result_r1, kernel.expected
        )));
    }
    let flow = tr
        .span("wcet.flow_map", |_| flow_map(image))
        .map_err(|e| fail(&e))?;
    let space = tr.span("faults.fault_space", |_| {
        FaultSpace::for_image(image, golden.cycles)
    });
    let injections = tr.span("faults.draw", |_| {
        let mut rng = FaultRng::for_kernel(seed, kernel.name);
        (0..INJECTIONS_PER_KERNEL)
            .map(|_| FaultPlan::draw(&mut rng, &space))
            .collect()
    });
    Ok(Campaign {
        golden,
        flow,
        injections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(22, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
        assert_eq!(a, shuffled(22, 7));
        assert_ne!(a, shuffled(22, 8));
    }

    #[test]
    fn reference_flags_a_changed_value() {
        let out = |v| JobOut {
            plain: vec![("guest_cycles", v)],
            probe: None,
        };
        let mut r = Reference::default();
        assert!(r.check(0, out(10)).is_ok());
        assert!(r.check(0, out(10)).is_ok());
        assert!(r.check(0, out(11)).is_err());
        assert_eq!(r.total("guest_cycles"), 10);
    }
}
