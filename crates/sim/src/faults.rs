//! Deterministic single-event-upset (SEU) fault injection and outcome
//! classification.
//!
//! The paper's safety-critical story bounds *when* a program finishes;
//! this module asks what happens when a bit flips mid-run. A
//! [`FaultPlan`] describes seeded injections — bit flips in the register
//! file, predicate or special registers, main memory, or cache state —
//! fired at a chosen cycle or at the n-th retirement of a chosen PC.
//! Everything is derived from a [`FaultRng`] (splitmix64, no wall
//! clock), so a campaign is a pure function of its seed.
//!
//! An armed plan forces the reference interpreter (the fast engine is
//! bypassed), which is sound because the engine differential sweep
//! proves the engines bit-identical: the reference path *is* the fast
//! path's semantics.
//!
//! Outcomes are classified against a golden (uninjected) run into the
//! four-way [`FaultOutcome`] taxonomy. Three detector layers feed
//! [`FaultOutcome::Detected`]:
//!
//! * the strict-mode ISA contract checks ([`DetectorKind::Contract`]);
//! * the [`MaxCyclesExceeded`](crate::SimError::MaxCyclesExceeded)
//!   watchdog, whose verdict is [`FaultOutcome::Hang`]
//!   ([`DetectorKind::Watchdog`]);
//! * a control-flow checker ([`DetectorKind::ControlFlow`]) that
//!   validates every retired call and return against a statically
//!   derived [`ControlFlowMap`] and caps loop-header entries at their
//!   `.loopbound` flow facts — catching wild branches that land on
//!   decodable-but-wrong bundles, and runaway loops long before the
//!   watchdog fires.
//!
//! The map itself is built by `patmos-wcet` (`flow_map`) from the same
//! CFG the IPET analysis uses; this crate only defines the data model,
//! keeping the dependency arrow pointing wcet → sim.

use std::collections::BTreeSet;

use patmos_asm::ObjectImage;
use patmos_isa::{Reg, LINK_REG, NUM_PREDS, NUM_REGS};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::machine::Simulator;

/// A splitmix64 pseudo-random generator: tiny, seedable, and fully
/// deterministic — fault campaigns must not consult the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded directly.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    /// A per-kernel generator: the campaign seed mixed (FNV-1a) with the
    /// kernel name, so every kernel's injection stream is independent of
    /// suite order and thread scheduling.
    pub fn for_kernel(seed: u64, name: &str) -> FaultRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        FaultRng::new(seed ^ h)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Which special register a [`FaultTarget::Special`] flip hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialTarget {
    /// Multiply result low word.
    Sl,
    /// Multiply result high word.
    Sh,
    /// The predicate bank viewed as a word (`smask`).
    Sm,
}

/// Which cache a [`FaultTarget::CacheTags`] upset hits.
///
/// The caches are timing models (tags only, no data), so a tag upset is
/// modelled as the architecturally safe consequence of a parity-checked
/// tag array: the affected lines are invalidated. The run's values are
/// untouched; only its timing shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSel {
    /// The heap data cache.
    Data,
    /// The static-data/constant cache.
    Static,
}

/// The architectural state a single upset flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip `bit` of general-purpose register `reg` (r0 stays hardwired
    /// to zero: a flip aimed at it is masked by construction).
    Register {
        /// Register index, taken modulo the register-file size.
        reg: u8,
        /// Bit position, taken modulo 32.
        bit: u8,
    },
    /// Invert predicate register `pred` (p0 stays hardwired true).
    Predicate {
        /// Predicate index, taken modulo the predicate-bank size.
        pred: u8,
    },
    /// Flip `bit` of a special register.
    Special {
        /// Which special register.
        reg: SpecialTarget,
        /// Bit position, taken modulo 32.
        bit: u8,
    },
    /// Flip `bit` of the main-memory word containing `addr`.
    Memory {
        /// Byte address (word-aligned internally).
        addr: u32,
        /// Bit position within the word, taken modulo 32.
        bit: u8,
    },
    /// Upset a cache's tag state: all lines invalidate (see
    /// [`CacheSel`]).
    CacheTags {
        /// Which cache.
        cache: CacheSel,
    },
}

/// When an injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Before issuing the first bundle whose start cycle is `>= cycle`.
    Cycle(u64),
    /// After the `occurrence`-th retirement of the bundle at `pc`
    /// (1-based).
    RetiredPc {
        /// Word address of the trigger bundle.
        pc: u32,
        /// Which retirement fires the fault (1 = the first).
        occurrence: u32,
    },
}

/// One injection: a trigger and the state it flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to flip.
    pub target: FaultTarget,
}

/// The state space a seeded plan draws targets from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpace {
    /// Trigger cycles are drawn from `0..max_cycle` (use the golden
    /// run's cycle count so every draw can land mid-run).
    pub max_cycle: u64,
    /// Byte ranges of main memory eligible for memory flips — normally
    /// the image's data segments ([`FaultSpace::for_image`]).
    pub mem_ranges: Vec<(u32, u32)>,
}

impl FaultSpace {
    /// The space for `image`: memory flips target its data segments.
    pub fn for_image(image: &ObjectImage, max_cycle: u64) -> FaultSpace {
        FaultSpace {
            max_cycle,
            mem_ranges: image
                .data()
                .iter()
                .filter(|seg| !seg.bytes.is_empty())
                .map(|seg| (seg.addr, seg.addr + seg.bytes.len() as u32))
                .collect(),
        }
    }
}

/// A deterministic set of injections for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injections, fired independently as their triggers arrive.
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// A plan with one injection.
    pub fn single(injection: Injection) -> FaultPlan {
        FaultPlan {
            injections: vec![injection],
        }
    }

    /// Whether the plan injects anything.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Draws one injection from `rng` over `space`.
    ///
    /// The target mix is fixed (deterministic given the rng state):
    /// mostly register-file flips, with predicate, special-register,
    /// data-memory and cache-tag upsets mixed in, plus a slice of
    /// low-bit flips aimed at the link register — the draw most likely
    /// to produce a *wild but decodable* return that only the
    /// control-flow checker can catch.
    pub fn draw(rng: &mut FaultRng, space: &FaultSpace) -> Injection {
        let cycle = rng.below(space.max_cycle.max(1));
        let target = match rng.below(16) {
            0..=6 => FaultTarget::Register {
                reg: 1 + (rng.below((NUM_REGS - 1) as u64) as u8),
                bit: rng.below(32) as u8,
            },
            7..=8 => FaultTarget::Predicate {
                pred: 1 + (rng.below((NUM_PREDS - 1) as u64) as u8),
            },
            9 => FaultTarget::Special {
                reg: match rng.below(3) {
                    0 => SpecialTarget::Sl,
                    1 => SpecialTarget::Sh,
                    _ => SpecialTarget::Sm,
                },
                bit: rng.below(32) as u8,
            },
            10..=12 if !space.mem_ranges.is_empty() => {
                let (lo, hi) = space.mem_ranges[rng.below(space.mem_ranges.len() as u64) as usize];
                FaultTarget::Memory {
                    addr: lo + (rng.below((hi - lo).max(1) as u64) as u32),
                    bit: rng.below(32) as u8,
                }
            }
            13 => FaultTarget::CacheTags {
                cache: if rng.below(2) == 0 {
                    CacheSel::Data
                } else {
                    CacheSel::Static
                },
            },
            // Directed wild-branch attempt: a low bit of the link
            // register, flipped mid-run — the wild-but-decodable return
            // only the control-flow checker catches.
            14 => FaultTarget::Register {
                reg: LINK_REG.index(),
                bit: rng.below(4) as u8,
            },
            // Directed far-branch attempt: a high link-register bit —
            // the return leaves the code region entirely, which strict
            // mode catches as a bad pc.
            15 => FaultTarget::Register {
                reg: LINK_REG.index(),
                bit: 16 + (rng.below(8) as u8),
            },
            // Memory draws fall back here when the image has no data.
            _ => FaultTarget::Register {
                reg: 1 + (rng.below((NUM_REGS - 1) as u64) as u8),
                bit: rng.below(32) as u8,
            },
        };
        Injection {
            trigger: FaultTrigger::Cycle(cycle),
            target,
        }
    }

    /// A seeded plan of `count` injections over `space`.
    pub fn seeded(seed: u64, count: u32, space: &FaultSpace) -> FaultPlan {
        let mut rng = FaultRng::new(seed);
        FaultPlan {
            injections: (0..count)
                .map(|_| FaultPlan::draw(&mut rng, space))
                .collect(),
        }
    }
}

/// A per-loop flow cap: the `.loopbound`-derived limit on how often the
/// header at `header` may be entered per visit to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCap {
    /// Word address of the loop-header block.
    pub header: u32,
    /// Word address of the last bundle of the back-edge source block —
    /// the loop body spans `[header, span_end]`.
    pub span_end: u32,
    /// Maximum header entries per visit (`.loopbound` max).
    pub max: u32,
}

/// The statically legal control-flow facts the runtime checker enforces:
/// legal call entries, legal return sites, and per-loop flow caps.
///
/// Built by `patmos-wcet`'s `flow_map` from the same CFG that feeds the
/// IPET analysis — the checker and the WCET bound share one notion of
/// "the program's possible paths".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlFlowMap {
    call_targets: BTreeSet<u32>,
    return_sites: BTreeSet<u32>,
    loop_caps: Vec<LoopCap>,
}

impl ControlFlowMap {
    /// An empty map (every call/return is illegal; add facts first).
    pub fn new() -> ControlFlowMap {
        ControlFlowMap::default()
    }

    /// Records `target` as a legal call entry.
    pub fn add_call_target(&mut self, target: u32) {
        self.call_targets.insert(target);
    }

    /// Records `pc` as a legal return site.
    pub fn add_return_site(&mut self, pc: u32) {
        self.return_sites.insert(pc);
    }

    /// Records a loop flow cap.
    pub fn add_loop_cap(&mut self, cap: LoopCap) {
        self.loop_caps.push(cap);
    }

    /// Whether `target` is a legal call entry.
    pub fn is_legal_call(&self, target: u32) -> bool {
        self.call_targets.contains(&target)
    }

    /// Whether `pc` is a legal return site.
    pub fn is_legal_return(&self, pc: u32) -> bool {
        self.return_sites.contains(&pc)
    }

    /// The flow caps.
    pub fn loop_caps(&self) -> &[LoopCap] {
        &self.loop_caps
    }
}

/// Live checker state: the map plus per-cap entry counters.
#[derive(Debug, Clone)]
pub(crate) struct FlowCheckState {
    pub(crate) map: ControlFlowMap,
    /// Header entries since the last transfer out of each cap's span.
    pub(crate) counts: Vec<u32>,
}

impl FlowCheckState {
    pub(crate) fn new(map: ControlFlowMap) -> FlowCheckState {
        let counts = vec![0; map.loop_caps().len()];
        FlowCheckState { map, counts }
    }

    /// Updates the cap counters for a transfer to `target` and reports a
    /// cap violation. A transfer to a header counts an entry; a transfer
    /// out of a cap's span resets its counter (so the cap is per visit,
    /// never across re-entries). The reset-on-exit rule means the check
    /// can only under-count — it never fires on a legal run.
    pub(crate) fn note_transfer(&mut self, target: u32) -> Result<(), SimError> {
        for (cap, count) in self.map.loop_caps.iter().zip(&mut self.counts) {
            if target == cap.header {
                *count += 1;
                if *count > cap.max {
                    return Err(SimError::LoopBoundExceeded {
                        header: cap.header,
                        bound: cap.max,
                    });
                }
            } else if target < cap.header || target > cap.span_end {
                *count = 0;
            }
        }
        Ok(())
    }
}

/// Live injection state for one armed run.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Injections not yet fired, with retire-trigger countdowns.
    pub(crate) pending: Vec<(Injection, u32)>,
    /// Cycle of the first fired injection.
    pub(crate) injected_at: Option<u64>,
    /// How many injections have fired.
    pub(crate) injected: u32,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> FaultState {
        let pending = plan
            .injections
            .iter()
            .map(|inj| {
                let countdown = match inj.trigger {
                    FaultTrigger::Cycle(_) => 0,
                    FaultTrigger::RetiredPc { occurrence, .. } => occurrence.max(1),
                };
                (*inj, countdown)
            })
            .collect();
        FaultState {
            pending,
            injected_at: None,
            injected: 0,
        }
    }
}

/// Which detector layer flagged an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// A strict-mode ISA contract check (delay violations, stack-window
    /// violations, bad PCs, calls to non-functions, …).
    Contract,
    /// The CFG-derived control-flow checker (illegal call/return edges,
    /// `.loopbound` flow caps).
    ControlFlow,
    /// The cycle-budget watchdog; its verdict is [`FaultOutcome::Hang`].
    Watchdog,
}

/// What one injection did to the run, judged against the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The run completed with the golden result, globals, and halt PC.
    Masked,
    /// The run completed but its result, globals, or halt PC differ.
    SilentDataCorruption,
    /// A detector stopped the run.
    Detected(DetectorKind),
    /// The watchdog expired: the run never reached `halt`.
    Hang,
}

impl FaultOutcome {
    /// A stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::SilentDataCorruption => "sdc",
            FaultOutcome::Detected(DetectorKind::Contract) => "detected-contract",
            FaultOutcome::Detected(DetectorKind::ControlFlow) => "detected-control-flow",
            FaultOutcome::Detected(DetectorKind::Watchdog) | FaultOutcome::Hang => "hang",
        }
    }
}

/// The golden (uninjected) run's observable outcome: the comparison
/// basis for classifying injected runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// The result register (r1) at halt.
    pub result_r1: u32,
    /// The halt PC.
    pub halt_pc: u32,
    /// Total cycles.
    pub cycles: u64,
    /// The data segments read back from memory after the run, in image
    /// order — the program's global state.
    pub globals: Vec<u8>,
}

/// Reads the image's data segments back out of a finished simulator.
fn read_globals(image: &ObjectImage, sim: &Simulator) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in image.data() {
        for i in 0..seg.bytes.len() as u32 {
            out.push(sim.memory().read_byte(seg.addr + i));
        }
    }
    out
}

/// Runs `image` uninjected and captures the golden outcome.
///
/// # Errors
///
/// Returns the run's [`SimError`] — a program that cannot complete
/// cleanly has no golden reference to classify against.
pub fn golden_run(image: &ObjectImage, config: &SimConfig) -> Result<GoldenRun, SimError> {
    let mut sim = Simulator::try_new(image, config.clone())?;
    let result = sim.run()?;
    Ok(GoldenRun {
        result_r1: sim.reg(Reg::R1),
        halt_pc: result.halt_pc,
        cycles: result.stats.cycles,
        globals: read_globals(image, &sim),
    })
}

/// One injected run's classified outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// The four-way classification.
    pub outcome: FaultOutcome,
    /// Whether the injection actually fired (a trigger past the halt
    /// cycle never lands; such runs are trivially masked).
    pub injected: bool,
    /// Cycles from the (first) injection to detection, when a detector
    /// (including the watchdog) stopped the run.
    pub detection_latency: Option<u64>,
    /// Cycles the injected run executed.
    pub cycles: u64,
}

/// Runs `image` with `injection` armed and classifies the outcome
/// against `golden`.
///
/// The watchdog is tightened to a small multiple of the golden cycle
/// count (`4x + 4096`), so a hang is declared within a bounded budget
/// instead of the configured production limit. Passing a `flow` map arms
/// the control-flow checker.
pub fn run_injection(
    image: &ObjectImage,
    config: &SimConfig,
    injection: Injection,
    flow: Option<&ControlFlowMap>,
    golden: &GoldenRun,
) -> InjectionOutcome {
    let mut cfg = config.clone();
    cfg.faults = Some(FaultPlan::single(injection));
    cfg.max_cycles = golden.cycles.saturating_mul(4).saturating_add(4096);
    let mut sim = match Simulator::try_new(image, cfg) {
        Ok(sim) => sim,
        Err(_) => {
            // The golden run decoded; a failure here cannot be
            // fault-induced, but classify it defensively.
            return InjectionOutcome {
                outcome: FaultOutcome::Detected(DetectorKind::Contract),
                injected: false,
                detection_latency: None,
                cycles: 0,
            };
        }
    };
    if let Some(map) = flow {
        sim.install_flow_checker(map.clone());
    }
    let run = sim.run();
    let injected_at = sim.fault_injected_at();
    let cycles = sim.cycle();
    let latency = injected_at.map(|at| cycles.saturating_sub(at));
    match run {
        Ok(result) => {
            let clean = sim.reg(Reg::R1) == golden.result_r1
                && result.halt_pc == golden.halt_pc
                && read_globals(image, &sim) == golden.globals;
            InjectionOutcome {
                outcome: if clean {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentDataCorruption
                },
                injected: injected_at.is_some(),
                detection_latency: None,
                cycles,
            }
        }
        Err(e) => {
            let outcome = match e {
                SimError::MaxCyclesExceeded { .. } => FaultOutcome::Hang,
                SimError::IllegalControlFlow { .. } | SimError::LoopBoundExceeded { .. } => {
                    FaultOutcome::Detected(DetectorKind::ControlFlow)
                }
                _ => FaultOutcome::Detected(DetectorKind::Contract),
            };
            InjectionOutcome {
                outcome,
                injected: injected_at.is_some(),
                detection_latency: latency,
                cycles,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;
    use patmos_trace::VecSink;

    fn loop_image() -> ObjectImage {
        assemble(
            "        .func main\n        li r2 = 5\n        li r1 = 0\nloop:\n        .loopbound 5 5\n        addi r1 = r1, 3\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        )
        .expect("assembles")
    }

    #[test]
    fn rng_is_deterministic_and_name_mixed() {
        let mut a = FaultRng::for_kernel(7, "crc");
        let mut b = FaultRng::for_kernel(7, "crc");
        let mut c = FaultRng::for_kernel(7, "fir");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z, "kernel names must decorrelate streams");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let space = FaultSpace {
            max_cycle: 1000,
            mem_ranges: vec![(0x1000, 0x1100)],
        };
        assert_eq!(
            FaultPlan::seeded(42, 8, &space),
            FaultPlan::seeded(42, 8, &space)
        );
        assert_ne!(
            FaultPlan::seeded(42, 8, &space),
            FaultPlan::seeded(43, 8, &space)
        );
    }

    #[test]
    fn empty_plan_is_bit_identical_to_uninjected_run() {
        let image = loop_image();
        // Reference engine both sides: an armed (but empty) plan forces
        // it, so the clean run must be pinned to the same engine.
        let mut plain = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..SimConfig::default()
            },
        );
        let mut plain_sink = VecSink::new();
        let plain_result = plain.run_traced(&mut plain_sink).expect("runs");

        let mut armed = Simulator::new(
            &image,
            SimConfig {
                faults: Some(FaultPlan::default()),
                ..SimConfig::default()
            },
        );
        let mut armed_sink = VecSink::new();
        let armed_result = armed.run_traced(&mut armed_sink).expect("runs");

        assert_eq!(plain_result.stats, armed_result.stats);
        assert_eq!(plain_result.halt_pc, armed_result.halt_pc);
        assert_eq!(plain.reg(Reg::R1), armed.reg(Reg::R1));
        assert_eq!(plain_sink.events, armed_sink.events);
    }

    #[test]
    fn armed_plan_forces_reference_engine() {
        let image = loop_image();
        let mut sim = Simulator::new(
            &image,
            SimConfig {
                faults: Some(FaultPlan::default()),
                ..SimConfig::default()
            },
        );
        sim.run().expect("runs");
        assert_eq!(
            sim.host_stats().fast_bundles,
            0,
            "armed runs must take the reference interpreter"
        );
    }

    #[test]
    fn register_flip_at_cycle_corrupts_result() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        assert_eq!(golden.result_r1, 15);
        // Flip bit 4 of r1 after the loop has accumulated something.
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(golden.cycles - 2),
                target: FaultTarget::Register { reg: 1, bit: 4 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::SilentDataCorruption);
    }

    #[test]
    fn flip_of_dead_register_is_masked() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(1),
                target: FaultTarget::Register { reg: 20, bit: 7 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn trigger_past_halt_never_fires() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(golden.cycles + 100),
                target: FaultTarget::Register { reg: 1, bit: 0 },
            },
            None,
            &golden,
        );
        assert!(!outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn counter_flip_hangs_or_is_caught_by_loop_cap() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        // Flip a high bit of the loop counter (r2) mid-loop: the loop
        // now runs ~2^28 extra iterations. Without a flow map this is a
        // watchdog hang...
        let inj = Injection {
            trigger: FaultTrigger::Cycle(golden.cycles / 2),
            target: FaultTarget::Register { reg: 2, bit: 28 },
        };
        let plain = run_injection(&image, &cfg, inj, None, &golden);
        assert_eq!(plain.outcome, FaultOutcome::Hang);

        // ...and with the cap armed it is flagged within ~bound
        // iterations of the flip.
        let mut map = ControlFlowMap::new();
        // The loop header and back edge of loop_image(): measured from
        // the CFG by eye — header is the 3rd bundle (word 2), branch at
        // word 5 with 2 delay slots ending at word 7.
        map.add_loop_cap(LoopCap {
            header: 2,
            span_end: 7,
            max: 5,
        });
        let capped = run_injection(&image, &cfg, inj, Some(&map), &golden);
        assert_eq!(
            capped.outcome,
            FaultOutcome::Detected(DetectorKind::ControlFlow)
        );
        assert!(
            capped.detection_latency.expect("latency") < plain.cycles,
            "the cap must fire before the watchdog budget"
        );
    }

    #[test]
    fn retired_pc_trigger_fires_on_nth_retirement() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        // Kill the loop counter on the 4th retirement of the header:
        // one early exit's worth of iterations go missing.
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::RetiredPc {
                    pc: 2,
                    occurrence: 4,
                },
                target: FaultTarget::Register { reg: 2, bit: 0 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_ne!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn cache_tag_upset_is_architecturally_masked() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(2),
                target: FaultTarget::CacheTags {
                    cache: CacheSel::Data,
                },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(
            outcome.outcome,
            FaultOutcome::Masked,
            "tag-only caches cannot corrupt values"
        );
    }
}
