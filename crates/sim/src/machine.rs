//! The timed interpreter: one Patmos core, cycle-exact under the
//! visible-delay model.

use patmos_asm::{FuncInfo, ObjectImage};
use patmos_isa::{
    timing, AccessSize, Bundle, FlowKind, Inst, MemArea, Op, Pred, Reg, SpecialReg, LINK_REG,
    NUM_PREDS, NUM_REGS,
};
use patmos_mem::{
    MainMemory, MethodCache, Scratchpad, SetAssocCache, StackCache, SHADOW_STACK_TOP, STACK_TOP,
};
use patmos_trace::{CacheKind, FaultKind, NullSink, StallCause, TraceEvent, TraceSink};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{
    CacheSel, ControlFlowMap, FaultState, FaultTarget, FaultTrigger, FlowCheckState, SpecialTarget,
};
use crate::stats::Stats;

/// Byte address where the loader places the code image (method-cache
/// fills read from here).
pub const CODE_BASE: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    ready_at: u64,
    value: u32,
}

#[derive(Debug, Clone, Copy)]
enum FlowTarget {
    Jump(u32),
    Call(u32),
    Ret(u32),
}

#[derive(Debug, Clone, Copy)]
struct PendingFlow {
    target: FlowTarget,
    slots_left: u32,
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Execution counters.
    pub stats: Stats,
    /// The word address of the `halt` bundle.
    pub halt_pc: u32,
}

/// Host-side execution counters: how much of the run the predecoded
/// fast engine retired.
///
/// These are *not* part of [`Stats`] — they describe how fast the host
/// simulated, never what the guest did, and must stay invisible to the
/// bit-identity contract between the fast and reference engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Bundles retired from predecoded bundles by the fast engine.
    pub fast_bundles: u64,
    /// Guest cycles that elapsed in the fast engine's predecoded steps
    /// (the cold-start method-cache fill included).
    pub fast_cycles: u64,
}

impl HostStats {
    /// Fraction of all guest cycles retired from predecoded bundles
    /// (`0.0` when nothing ran).
    pub fn fast_coverage(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.fast_cycles as f64 / total_cycles as f64
        }
    }
}

/// One instruction slot with its decode-time-constant facts precomputed:
/// the registers it reads, whether it is a `nop`, and whether it reads
/// `sl`/`sh` (the multiply-gap check). Recomputing these per retired
/// bundle is what predecoding removes from the hot loop.
#[derive(Debug, Clone, Copy)]
struct PreSlot {
    inst: Inst,
    uses: [Option<Reg>; 2],
    is_nop: bool,
    mfs_mul: bool,
}

impl PreSlot {
    fn new(inst: Inst) -> PreSlot {
        PreSlot {
            inst,
            uses: inst.op.uses(),
            is_nop: matches!(inst.op, Op::Nop),
            mfs_mul: matches!(
                inst.op,
                Op::Mfs {
                    ss: SpecialReg::Sl | SpecialReg::Sh,
                    ..
                }
            ),
        }
    }
}

/// A predecoded bundle: both slots as [`PreSlot`]s plus the bundle-level
/// facts (width, all-nop filler).
#[derive(Debug, Clone, Copy)]
struct PreBundle {
    first: PreSlot,
    second: Option<PreSlot>,
    width: u32,
    all_nop: bool,
}

impl PreBundle {
    fn new(bundle: Bundle) -> PreBundle {
        let mut slots = bundle.slots();
        let first = PreSlot::new(*slots.next().expect("a bundle has a first slot"));
        let second = slots.next().map(|i| PreSlot::new(*i));
        PreBundle {
            width: bundle.width_words(),
            all_nop: first.is_nop && second.as_ref().is_none_or(|s| s.is_nop),
            first,
            second,
        }
    }
}

/// The predecoded image of one function, built when the method cache
/// fills it and dropped when the method cache evicts it. `pre[i]` is
/// `None` at bundle-continuation words, exactly mirroring the `bundles`
/// table so a bad PC faults identically on both engines.
#[derive(Debug, Clone)]
struct DecodedFunc {
    start_word: u32,
    end_word: u32,
    pre: Vec<Option<PreBundle>>,
}

impl DecodedFunc {
    #[inline]
    fn contains(&self, pc: u32) -> bool {
        pc >= self.start_word && pc < self.end_word
    }

    #[inline]
    fn bundle_at(&self, pc: u32) -> Option<&PreBundle> {
        self.pre
            .get((pc.wrapping_sub(self.start_word)) as usize)
            .and_then(|p| p.as_ref())
    }
}

/// One Patmos core executing an [`ObjectImage`].
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    bundles: Vec<Option<Bundle>>,
    functions: Vec<FuncInfo>,
    mem: MainMemory,
    spm: Scratchpad,
    mcache: MethodCache,
    dcache: SetAssocCache,
    ccache: SetAssocCache,
    scache: StackCache,
    regs: [u32; NUM_REGS],
    preds: [bool; NUM_PREDS],
    sl: u32,
    sh: u32,
    sm: u32,
    pc: u32,
    now: u64,
    bundle_index: u64,
    reg_ready: [u64; NUM_REGS],
    mul_ready: u64,
    pending_load: Option<PendingLoad>,
    wb_drains_at: u64,
    pending_flow: Option<PendingFlow>,
    stats: Stats,
    halted: bool,
    started: bool,
    /// Predecoded bundles, parallel to `functions`; `Some` exactly while
    /// the function is method-cache resident (plus the documented
    /// oversized-streaming exception in `ensure_decoded`).
    decoded: Vec<Option<DecodedFunc>>,
    /// Index into `decoded` of the function the PC was last found in — a
    /// hint that makes the per-bundle lookup O(1) on the hot path.
    cur_func: usize,
    host: HostStats,
    /// A malformed code image, surfaced as an error at the first step
    /// instead of a construction-time panic.
    decode_error: Option<SimError>,
    /// Live fault-injection state when [`SimConfig::faults`] is armed.
    faults: Option<Box<FaultState>>,
    /// The control-flow checker, when installed.
    flow_check: Option<Box<FlowCheckState>>,
}

impl Simulator {
    /// Loads an image into a fresh core.
    ///
    /// A malformed code image does not panic here: the decode failure is
    /// stored and returned as [`SimError::MalformedImage`] by the first
    /// step. Use [`Simulator::try_new`] to surface it at construction.
    pub fn new(image: &ObjectImage, config: SimConfig) -> Simulator {
        let code = image.code();
        let mut bundles = vec![None; code.len()];
        let mut decode_error = None;
        match image.decode() {
            Ok(decoded) => {
                for (addr, bundle) in decoded {
                    bundles[addr as usize] = Some(bundle);
                }
            }
            Err(e) => {
                decode_error = Some(SimError::MalformedImage {
                    reason: e.to_string(),
                });
            }
        }
        let functions = image.functions().to_vec();
        let decoded = vec![None; functions.len()];
        let mut mem = MainMemory::new(config.mem);
        mem.load_words(CODE_BASE, code);
        for seg in image.data() {
            mem.load_bytes(seg.addr, &seg.bytes);
        }
        let mut regs = [0u32; NUM_REGS];
        regs[patmos_isa::SHADOW_SP.index() as usize] = SHADOW_STACK_TOP;
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;

        Simulator {
            bundles,
            functions,
            spm: Scratchpad::new(config.spm_bytes),
            mcache: MethodCache::new(config.method_cache),
            dcache: SetAssocCache::new(
                config.data_cache.sets,
                config.data_cache.ways,
                config.data_cache.line_words,
                config.data_cache.policy,
            ),
            ccache: SetAssocCache::new(
                config.static_cache.sets,
                config.static_cache.ways,
                config.static_cache.line_words,
                config.static_cache.policy,
            ),
            scache: StackCache::new(config.stack_cache_words, STACK_TOP),
            mem,
            regs,
            preds,
            sl: 0,
            sh: 0,
            sm: 0,
            pc: image.entry_word(),
            now: 0,
            bundle_index: 0,
            reg_ready: [0; NUM_REGS],
            mul_ready: 0,
            pending_load: None,
            wb_drains_at: 0,
            pending_flow: None,
            stats: Stats::default(),
            halted: false,
            started: false,
            decoded,
            cur_func: 0,
            host: HostStats::default(),
            decode_error,
            faults: config.faults.as_ref().map(|p| Box::new(FaultState::new(p))),
            flow_check: None,
            config,
        }
    }

    /// Loads an image into a fresh core, rejecting a malformed one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedImage`] if the image's code section
    /// does not decode into bundles.
    pub fn try_new(image: &ObjectImage, config: SimConfig) -> Result<Simulator, SimError> {
        let sim = Simulator::new(image, config);
        match &sim.decode_error {
            Some(e) => Err(e.clone()),
            None => Ok(sim),
        }
    }

    /// Reads a general-purpose register (for inspecting results).
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index() as usize]
    }

    /// Writes a general-purpose register (for test setup).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Reads a predicate register.
    pub fn pred(&self, pred: Pred) -> bool {
        self.preds[pred.index() as usize]
    }

    /// The main memory (for inspecting results).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable main memory (for preparing inputs).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The scratchpad.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.spm
    }

    /// Mutable scratchpad (for preparing inputs).
    pub fn scratchpad_mut(&mut self) -> &mut Scratchpad {
        &mut self.spm
    }

    /// Execution counters so far.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.cycles = self.now;
        s.method_cache = self.mcache.stats();
        s.data_cache = self.dcache.stats();
        s.static_cache = self.ccache.stats();
        s.stack_cache = self.scache.stats();
        s
    }

    /// Host-side fast-engine counters (how the run was simulated, not
    /// what the guest did).
    pub fn host_stats(&self) -> HostStats {
        self.host
    }

    /// Whether the core reached `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// The current program counter (word address).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Runs until `halt` or an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for contract violations (strict mode), bad
    /// control flow, or an exceeded cycle budget.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        self.run_traced(&mut NullSink)
    }

    /// Runs until `halt` or an error, streaming [`TraceEvent`]s into the
    /// sink. With [`NullSink`] this is exactly [`Simulator::run`]: the
    /// `if S::ENABLED` guards compile every event construction away, so
    /// a traced run is cycle-bit-identical to an untraced one.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run_traced<S: TraceSink>(&mut self, sink: &mut S) -> Result<RunResult, SimError> {
        // An armed fault plan or an installed control-flow checker pins
        // the run to the reference interpreter: the injection and
        // checking hooks live only on that path, and the engine
        // differential sweep proves the choice invisible to the guest.
        if S::ENABLED
            || !self.config.fast_path
            || self.faults.is_some()
            || self.flow_check.is_some()
        {
            // Reference engine: the per-bundle interpreter, which is also
            // the only path that can emit trace events.
            while !self.halted {
                self.step_traced(sink)?;
            }
        } else {
            // Fast engine. Non-generic on purpose: every crate that
            // instantiates `run_traced::<NullSink>` links the one copy
            // below instead of re-optimizing the hot loop locally.
            self.run_fast_engine()?;
        }
        Ok(RunResult {
            stats: self.stats(),
            halt_pc: self.pc,
        })
    }

    /// The fast engine's driver: one predecoded step per bundle.
    fn run_fast_engine(&mut self) -> Result<(), SimError> {
        while !self.halted {
            self.step_pre()?;
        }
        Ok(())
    }

    /// A main-memory transfer of `words` words: orders it after the
    /// posted-write buffer, waits for TDMA grants, advances time, and
    /// attributes the whole stall to `cause` at word address `pc`. Under
    /// TDMA, transfers that exceed one slot are split into per-slot
    /// chunks (each paying the burst setup again), as a real slotted
    /// memory controller would.
    fn transact_words<S: TraceSink>(
        &mut self,
        words: u32,
        cause: StallCause,
        pc: u32,
        sink: &mut S,
    ) {
        if words == 0 {
            return;
        }
        let begin = self.now;
        match self.config.tdma {
            None => {
                let start = self.now.max(self.wb_drains_at);
                self.now = start + self.mem.burst_cycles(words) as u64;
            }
            Some((arb, core)) => {
                let cfg = self.mem.config();
                let chunk = ((arb.slot_cycles().saturating_sub(cfg.latency))
                    / cfg.cycles_per_word.max(1))
                .max(1);
                assert!(
                    arb.fits(cfg.burst_cycles(chunk)),
                    "TDMA slot too short for a single-word burst"
                );
                let mut remaining = words;
                while remaining > 0 {
                    let w = remaining.min(chunk);
                    let burst = self.mem.burst_cycles(w);
                    let start = self.now.max(self.wb_drains_at);
                    let granted = arb.grant(core, start, burst);
                    self.stats.stalls.tdma_wait += granted - start;
                    if S::ENABLED && granted > start {
                        sink.event(TraceEvent::TdmaWait {
                            pc,
                            cycle: granted,
                            cycles: granted - start,
                        });
                    }
                    self.now = granted + burst as u64;
                    remaining -= w;
                }
            }
        }
        let stall = self.now - begin;
        match cause {
            StallCause::MethodCache => self.stats.stalls.method_cache += stall,
            StallCause::DataCache => self.stats.stalls.data_cache += stall,
            StallCause::StaticCache => self.stats.stalls.static_cache += stall,
            StallCause::StackCache => self.stats.stalls.stack_cache += stall,
            StallCause::SplitLoad => self.stats.stalls.split_load += stall,
            StallCause::WriteBuffer => self.stats.stalls.write_buffer += stall,
        }
        if S::ENABLED && stall > 0 {
            sink.event(TraceEvent::Stall {
                pc,
                cycle: self.now,
                cycles: stall,
                cause,
            });
        }
    }

    /// Posts a one-word write: stalls only if the buffer is full; the
    /// drain itself happens in the background.
    fn post_write<S: TraceSink>(&mut self, pc: u32, sink: &mut S) {
        if self.wb_drains_at > self.now {
            let wait = self.wb_drains_at - self.now;
            self.stats.stalls.write_buffer += wait;
            self.now = self.wb_drains_at;
            if S::ENABLED {
                sink.event(TraceEvent::Stall {
                    pc,
                    cycle: self.now,
                    cycles: wait,
                    cause: StallCause::WriteBuffer,
                });
            }
        }
        let burst = self.mem.burst_cycles(1);
        let granted = match &self.config.tdma {
            Some((arb, core)) => arb.grant(*core, self.now, burst),
            None => self.now,
        };
        self.wb_drains_at = granted + burst as u64;
    }

    fn function_starting_at(&self, word: u32) -> Option<&FuncInfo> {
        self.functions.iter().find(|f| f.start_word == word)
    }

    fn function_at(&self, word: u32) -> Option<&FuncInfo> {
        self.functions
            .iter()
            .find(|f| word >= f.start_word && word < f.start_word + f.size_words)
    }

    /// Charges a method-cache lookup for the function at `start`/`size`.
    /// The stall (and the lookup event) attribute to the entered
    /// function's first word.
    ///
    /// The predecoded-bundle cache is keyed to exactly these fill
    /// events: a miss decodes the entering function once, an eviction
    /// drops the victim's decoded image.
    fn method_fill<S: TraceSink>(&mut self, start: u32, size: u32, sink: &mut S) {
        let functions = &self.functions;
        let decoded = &mut self.decoded;
        let access = self.mcache.access_with(start, size, |evicted| {
            if let Some(i) = functions.iter().position(|f| f.start_word == evicted) {
                decoded[i] = None;
            }
        });
        if !access.hit {
            self.ensure_decoded(start);
        }
        if S::ENABLED {
            sink.event(TraceEvent::CacheAccess {
                pc: start,
                cycle: self.now,
                cache: CacheKind::Method,
                hit: access.hit,
                transfer_words: access.transfer_words,
            });
        }
        if !access.hit {
            self.transact_words(access.transfer_words, StallCause::MethodCache, start, sink);
        }
    }

    /// Builds the predecoded image of the function starting at `start`
    /// (a no-op if it is already built). An oversized function that only
    /// streams through the method cache is never resident and so never
    /// reported evicted; its decoded image deliberately survives — a
    /// host-only cache of immutable code, re-decoding it per call would
    /// buy nothing.
    fn ensure_decoded(&mut self, start: u32) {
        let Some(idx) = self.functions.iter().position(|f| f.start_word == start) else {
            return;
        };
        self.cur_func = idx;
        if self.decoded[idx].is_some() {
            return;
        }
        let f = &self.functions[idx];
        let end = f.start_word + f.size_words;
        let mut pre = Vec::with_capacity(f.size_words as usize);
        for w in f.start_word..end {
            pre.push(
                self.bundles
                    .get(w as usize)
                    .and_then(|b| b.map(PreBundle::new)),
            );
        }
        self.decoded[idx] = Some(DecodedFunc {
            start_word: f.start_word,
            end_word: end,
            pre,
        });
    }

    /// The predecoded bundle at `pc`, by value (retiring it needs
    /// `&mut self`): the `cur_func` hint first, O(1) on the hot path,
    /// then a scan that refreshes the hint.
    #[inline]
    fn pre_bundle_copy(&mut self, pc: u32) -> Option<PreBundle> {
        if let Some(Some(df)) = self.decoded.get(self.cur_func) {
            if df.contains(pc) {
                return df.bundle_at(pc).copied();
            }
        }
        for (i, d) in self.decoded.iter().enumerate() {
            if let Some(df) = d {
                if df.contains(pc) {
                    self.cur_func = i;
                    return df.bundle_at(pc).copied();
                }
            }
        }
        None
    }

    #[inline(always)]
    fn check_reg_ready(&self, reg: Reg) -> Result<(), SimError> {
        if !self.config.strict {
            return Ok(());
        }
        let ready = self.reg_ready[reg.index() as usize];
        if ready > self.bundle_index {
            return Err(SimError::DelayViolation {
                pc: self.pc,
                reg,
                bundles_short: (ready - self.bundle_index) as u32,
            });
        }
        Ok(())
    }

    fn effective_address(&self, area: MemArea, ra: Reg, offset: i16, size: AccessSize) -> u32 {
        let scaled = (offset as i32).wrapping_mul(size.bytes() as i32) as u32;
        let raw = self.regs[ra.index() as usize].wrapping_add(scaled);
        match area {
            MemArea::Stack => self.scache.stack_top().wrapping_add(raw),
            _ => raw,
        }
    }

    fn mem_read(&self, addr: u32, size: AccessSize, spm: bool) -> u32 {
        if spm {
            match size {
                AccessSize::Byte => self.spm.read_byte(addr) as u32,
                AccessSize::Half => self.spm.read_half(addr) as u32,
                AccessSize::Word => self.spm.read_word(addr),
            }
        } else {
            match size {
                AccessSize::Byte => self.mem.read_byte(addr) as u32,
                AccessSize::Half => self.mem.read_half(addr) as u32,
                AccessSize::Word => self.mem.read_word(addr),
            }
        }
    }

    fn mem_write(&mut self, addr: u32, size: AccessSize, value: u32, spm: bool) {
        if spm {
            match size {
                AccessSize::Byte => self.spm.write_byte(addr, value as u8),
                AccessSize::Half => self.spm.write_half(addr, value as u16),
                AccessSize::Word => self.spm.write_word(addr, value),
            }
        } else {
            match size {
                AccessSize::Byte => self.mem.write_byte(addr, value as u8),
                AccessSize::Half => self.mem.write_half(addr, value as u16),
                AccessSize::Word => self.mem.write_word(addr, value),
            }
        }
    }

    fn check_stack_window(&self, ea: u32) -> Result<(), SimError> {
        if !self.config.strict {
            return Ok(());
        }
        let st = self.scache.stack_top();
        let offset_words = ea.wrapping_sub(st) / 4;
        if ea < st || !self.scache.covers(offset_words) {
            return Err(SimError::StackWindowViolation {
                pc: self.pc,
                offset_words,
            });
        }
        Ok(())
    }

    /// Executes one bundle.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_traced(&mut NullSink)
    }

    /// Executes one bundle, streaming its [`TraceEvent`]s into the sink.
    ///
    /// # Errors
    ///
    /// As [`Simulator::step`].
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if let Some(e) = &self.decode_error {
            return Err(e.clone());
        }
        if !self.started {
            self.started = true;
            // Cold start: the entry function streams into the method cache.
            if let Some(f) = self.function_at(self.pc).cloned() {
                self.method_fill(f.start_word, f.size_words, sink);
            }
        }
        if self.now >= self.config.max_cycles {
            return Err(SimError::MaxCyclesExceeded {
                limit: self.config.max_cycles,
            });
        }
        if self.fault_pending() {
            self.service_cycle_faults(sink);
        }

        let bundle = *self
            .bundles
            .get(self.pc as usize)
            .and_then(|b| b.as_ref())
            .ok_or(SimError::BadPc { pc: self.pc })?;

        // --- Pre-state operand reads (both slots read simultaneously) ---
        let mut slot_ops: Vec<(Inst, bool, [u32; 2])> = Vec::with_capacity(2);
        for inst in bundle.slots() {
            for reg in inst.op.uses().into_iter().flatten() {
                self.check_reg_ready(reg)?;
            }
            if self.config.strict {
                if let Op::Mfs {
                    ss: SpecialReg::Sl | SpecialReg::Sh,
                    ..
                } = inst.op
                {
                    if self.mul_ready > self.bundle_index {
                        return Err(SimError::MulGapViolation { pc: self.pc });
                    }
                }
            }
            let guard_true = inst.guard.eval(&self.preds);
            let uses = inst.op.uses();
            let vals = [
                uses[0].map_or(0, |r| self.regs[r.index() as usize]),
                uses[1].map_or(0, |r| self.regs[r.index() as usize]),
            ];
            slot_ops.push((*inst, guard_true, vals));
        }

        // --- Issue ---
        let had_pending_flow = self.pending_flow.is_some();
        let issue_cycles = if self.config.dual_issue {
            1
        } else {
            bundle.slots().count() as u64
        };
        self.now += issue_cycles;
        self.bundle_index += 1;
        self.stats.bundles += 1;
        self.stats.issue_cycles += issue_cycles;
        // Snapshot for the retire event's per-bundle deltas.
        let issue_end = self.now;
        let snap = if S::ENABLED {
            self.stats
        } else {
            Stats::default()
        };
        // The second slot counts as used only when it actually executes:
        // an annulled (false-guard) operation occupies the slot but does
        // no work, exactly like an encoded `nop`.
        if let Some((inst, guard_true, _)) = slot_ops.get(1) {
            if !matches!(inst.op, Op::Nop) && *guard_true {
                self.stats.second_slots_used += 1;
            }
        }
        // A bundle of encoded `nop`s is scheduler filler; tracking it
        // separately lets utilisation ratios exclude it.
        if slot_ops
            .iter()
            .all(|(inst, _, _)| matches!(inst.op, Op::Nop))
        {
            self.stats.nop_bundles += 1;
        }

        let width = bundle.width_words();
        let this_pc = self.pc;
        let mut new_flow: Option<PendingFlow> = None;

        // --- Effects ---
        for (inst, guard_true, vals) in slot_ops {
            self.exec_slot(
                inst,
                guard_true,
                vals,
                this_pc,
                had_pending_flow,
                &mut new_flow,
                sink,
            )?;
        }
        self.post_effects(
            width,
            this_pc,
            new_flow,
            issue_cycles,
            issue_end,
            snap,
            sink,
        )?;
        if self.fault_pending() {
            self.service_retire_faults(this_pc, sink);
        }
        Ok(())
    }

    /// Installs the control-flow checker: every retired call and return
    /// (and loop-header entry) is validated against `map`. Forces the
    /// reference interpreter, like an armed fault plan.
    pub fn install_flow_checker(&mut self, map: ControlFlowMap) {
        self.flow_check = Some(Box::new(FlowCheckState::new(map)));
    }

    /// Cycle of the first fired injection, if any fired yet.
    pub fn fault_injected_at(&self) -> Option<u64> {
        self.faults.as_ref().and_then(|f| f.injected_at)
    }

    /// How many of the armed plan's injections have fired.
    pub fn faults_injected(&self) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.injected)
    }

    /// Whether any armed injection is still waiting to fire. Gates the
    /// per-cycle/per-retirement service calls so an exhausted (or empty)
    /// plan costs one length test per site, not a trigger scan.
    #[inline]
    fn fault_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| !f.pending.is_empty())
    }

    /// Fires pending cycle-triggered injections whose trigger has
    /// arrived.
    fn service_cycle_faults<S: TraceSink>(&mut self, sink: &mut S) {
        let mut state = self.faults.take().expect("checked by caller");
        let now = self.now;
        let mut fired = Vec::new();
        state.pending.retain(|(inj, _)| {
            if let FaultTrigger::Cycle(c) = inj.trigger {
                if now >= c {
                    fired.push(inj.target);
                    return false;
                }
            }
            true
        });
        if !fired.is_empty() {
            state.injected_at.get_or_insert(now);
            state.injected += fired.len() as u32;
        }
        self.faults = Some(state);
        for target in fired {
            self.apply_fault(target, sink);
        }
    }

    /// Fires pending retired-pc-triggered injections for the bundle that
    /// just retired at `this_pc`.
    fn service_retire_faults<S: TraceSink>(&mut self, this_pc: u32, sink: &mut S) {
        let mut state = self.faults.take().expect("checked by caller");
        let mut fired = Vec::new();
        state.pending.retain_mut(|(inj, countdown)| {
            if let FaultTrigger::RetiredPc { pc, .. } = inj.trigger {
                if pc == this_pc {
                    *countdown = countdown.saturating_sub(1);
                    if *countdown == 0 {
                        fired.push(inj.target);
                        return false;
                    }
                }
            }
            true
        });
        if !fired.is_empty() {
            state.injected_at.get_or_insert(self.now);
            state.injected += fired.len() as u32;
        }
        self.faults = Some(state);
        for target in fired {
            self.apply_fault(target, sink);
        }
    }

    /// Flips the targeted state. r0 and p0 stay hardwired; a flip aimed
    /// at them is masked by construction, exactly like the hardware.
    fn apply_fault<S: TraceSink>(&mut self, target: FaultTarget, sink: &mut S) {
        match target {
            FaultTarget::Register { reg, bit } => {
                let idx = (reg as usize) % NUM_REGS;
                if idx != 0 {
                    self.regs[idx] ^= 1 << (bit % 32);
                }
            }
            FaultTarget::Predicate { pred } => {
                let idx = (pred as usize) % NUM_PREDS;
                if idx != 0 {
                    self.preds[idx] = !self.preds[idx];
                }
            }
            FaultTarget::Special { reg, bit } => {
                let mask = 1u32 << (bit % 32);
                match reg {
                    SpecialTarget::Sl => self.sl ^= mask,
                    SpecialTarget::Sh => self.sh ^= mask,
                    SpecialTarget::Sm => self.sm ^= mask,
                }
            }
            FaultTarget::Memory { addr, bit } => {
                let a = addr & !3;
                let w = self.mem.read_word(a) ^ (1 << (bit % 32));
                self.mem.write_word(a, w);
            }
            FaultTarget::CacheTags { cache } => match cache {
                CacheSel::Data => self.dcache.invalidate_all(),
                CacheSel::Static => self.ccache.invalidate_all(),
            },
        }
        if S::ENABLED {
            sink.event(TraceEvent::FaultInjected {
                pc: self.pc,
                cycle: self.now,
                kind: fault_kind(target),
            });
        }
    }

    /// Executes one prepared slot's effects: the counter updates, the
    /// architectural state change, and any stall it triggers. Shared by
    /// the reference interpreter and the predecoded step, so the
    /// instruction semantics exist exactly once.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn exec_slot<S: TraceSink>(
        &mut self,
        inst: Inst,
        guard_true: bool,
        vals: [u32; 2],
        this_pc: u32,
        had_pending_flow: bool,
        new_flow: &mut Option<PendingFlow>,
        sink: &mut S,
    ) -> Result<(), SimError> {
        {
            if matches!(inst.op, Op::Nop) {
                self.stats.nops += 1;
                return Ok(());
            }
            if !guard_true {
                self.stats.insts_annulled += 1;
                if inst.op.is_flow() && !matches!(inst.op, Op::Halt) {
                    self.stats.untaken_branches += 1;
                }
                return Ok(());
            }
            self.stats.insts_executed += 1;
            match inst.op {
                Op::Nop => unreachable!("handled above"),
                Op::AluR { op, rd, .. } => {
                    self.write_reg(rd, op.apply(vals[0], vals[1]), 0);
                }
                Op::AluI { op, rd, imm, .. } => {
                    self.write_reg(rd, op.apply(vals[0], imm as i32 as u32), 0);
                }
                Op::Mul { .. } => {
                    let prod = (vals[0] as i32 as i64).wrapping_mul(vals[1] as i32 as i64);
                    self.sl = prod as u32;
                    self.sh = (prod >> 32) as u32;
                    self.mul_ready = self.bundle_index + timing::MUL_GAP as u64;
                }
                Op::LoadImmLow { rd, imm } => {
                    self.write_reg(rd, imm as i16 as i32 as u32, 0);
                }
                Op::LoadImmHigh { rd, imm } => {
                    let low = self.regs[rd.index() as usize] & 0xffff;
                    self.write_reg(rd, ((imm as u32) << 16) | low, 0);
                }
                Op::LoadImm32 { rd, imm } => {
                    self.write_reg(rd, imm, 0);
                }
                Op::Cmp { op, pd, .. } => {
                    self.write_pred(pd, op.apply(vals[0], vals[1]));
                }
                Op::CmpI { op, pd, imm, .. } => {
                    self.write_pred(pd, op.apply(vals[0], imm as i32 as u32));
                }
                Op::PredSet { op, pd, p1, p2 } => {
                    let a = self.preds[p1.pred.index() as usize] ^ p1.negate;
                    let b = self.preds[p2.pred.index() as usize] ^ p2.negate;
                    self.write_pred(pd, op.apply(a, b));
                }
                Op::Load {
                    area,
                    size,
                    rd,
                    ra,
                    offset,
                } => {
                    let ea = self.effective_address(area, ra, offset, size);
                    let value = match area {
                        MemArea::Stack => {
                            self.check_stack_window(ea)?;
                            self.stats.stack_ops += 1;
                            self.mem_read(ea, size, false)
                        }
                        MemArea::Spm => self.mem_read(ea, size, true),
                        MemArea::Static | MemArea::Data => {
                            let (result, kind, cause) = if area == MemArea::Static {
                                (
                                    self.ccache.access(ea, false),
                                    CacheKind::Static,
                                    StallCause::StaticCache,
                                )
                            } else {
                                (
                                    self.dcache.access(ea, false),
                                    CacheKind::Data,
                                    StallCause::DataCache,
                                )
                            };
                            if S::ENABLED {
                                sink.event(TraceEvent::CacheAccess {
                                    pc: this_pc,
                                    cycle: self.now,
                                    cache: kind,
                                    hit: result.hit,
                                    transfer_words: result.transfer_words,
                                });
                            }
                            if !result.hit {
                                self.transact_words(result.transfer_words, cause, this_pc, sink);
                            }
                            self.mem_read(ea, size, false)
                        }
                        MemArea::Main => return Err(SimError::IllegalMainAccess { pc: this_pc }),
                    };
                    self.write_reg(rd, value, timing::LOAD_USE_GAP);
                }
                Op::Store {
                    area,
                    size,
                    ra,
                    offset,
                    rs: _,
                } => {
                    let ea = self.effective_address(area, ra, offset, size);
                    let value = vals[1];
                    match area {
                        MemArea::Stack => {
                            self.check_stack_window(ea)?;
                            self.stats.stack_ops += 1;
                            self.mem_write(ea, size, value, false);
                        }
                        MemArea::Spm => self.mem_write(ea, size, value, true),
                        MemArea::Static | MemArea::Data => {
                            let (result, kind) = if area == MemArea::Static {
                                (self.ccache.access(ea, true), CacheKind::Static)
                            } else {
                                (self.dcache.access(ea, true), CacheKind::Data)
                            };
                            if S::ENABLED {
                                sink.event(TraceEvent::CacheAccess {
                                    pc: this_pc,
                                    cycle: self.now,
                                    cache: kind,
                                    hit: result.hit,
                                    transfer_words: result.transfer_words,
                                });
                            }
                            self.mem_write(ea, size, value, false);
                            self.post_write(this_pc, sink);
                        }
                        MemArea::Main => return Err(SimError::IllegalMainAccess { pc: this_pc }),
                    }
                }
                Op::MainLoad { offset, .. } => {
                    if self.pending_load.is_some() {
                        return Err(SimError::LoadStillPending { pc: this_pc });
                    }
                    let ea = vals[0].wrapping_add((offset as i32 as u32).wrapping_mul(4));
                    let value = self.mem.read_word(ea);
                    let burst = self.mem.burst_cycles(1);
                    let start = self.now.max(self.wb_drains_at);
                    let granted = match &self.config.tdma {
                        Some((arb, core)) => arb.grant(*core, start, burst),
                        None => start,
                    };
                    self.pending_load = Some(PendingLoad {
                        ready_at: granted + burst as u64,
                        value,
                    });
                }
                Op::MainWait { rd } => match self.pending_load.take() {
                    Some(p) => {
                        if p.ready_at > self.now {
                            let wait = p.ready_at - self.now;
                            self.stats.stalls.split_load += wait;
                            self.now = p.ready_at;
                            if S::ENABLED {
                                sink.event(TraceEvent::Stall {
                                    pc: this_pc,
                                    cycle: self.now,
                                    cycles: wait,
                                    cause: StallCause::SplitLoad,
                                });
                            }
                        }
                        self.sm = p.value;
                        self.write_reg(rd, p.value, 0);
                    }
                    None => {
                        if self.config.strict {
                            return Err(SimError::NoPendingLoad { pc: this_pc });
                        }
                        let sm = self.sm;
                        self.write_reg(rd, sm, 0);
                    }
                },
                Op::MainStore { offset, .. } => {
                    let ea = vals[0].wrapping_add((offset as i32 as u32).wrapping_mul(4));
                    self.mem_write(ea, AccessSize::Word, vals[1], false);
                    self.post_write(this_pc, sink);
                }
                Op::Sres { words } => {
                    let effect = self.scache.reserve(words);
                    if S::ENABLED {
                        sink.event(TraceEvent::CacheAccess {
                            pc: this_pc,
                            cycle: self.now,
                            cache: CacheKind::Stack,
                            hit: effect.spill_words == 0,
                            transfer_words: effect.spill_words,
                        });
                    }
                    if effect.spill_words > 0 {
                        self.transact_words(
                            effect.spill_words,
                            StallCause::StackCache,
                            this_pc,
                            sink,
                        );
                    }
                }
                Op::Sens { words } => {
                    let effect = self.scache.ensure(words);
                    if S::ENABLED {
                        sink.event(TraceEvent::CacheAccess {
                            pc: this_pc,
                            cycle: self.now,
                            cache: CacheKind::Stack,
                            hit: effect.fill_words == 0,
                            transfer_words: effect.fill_words,
                        });
                    }
                    if effect.fill_words > 0 {
                        self.transact_words(
                            effect.fill_words,
                            StallCause::StackCache,
                            this_pc,
                            sink,
                        );
                    }
                }
                Op::Sfree { words } => {
                    self.scache.free(words);
                    if S::ENABLED {
                        sink.event(TraceEvent::CacheAccess {
                            pc: this_pc,
                            cycle: self.now,
                            cache: CacheKind::Stack,
                            hit: true,
                            transfer_words: 0,
                        });
                    }
                }
                Op::Mts { sd, .. } => match sd {
                    SpecialReg::Sl => self.sl = vals[0],
                    SpecialReg::Sh => self.sh = vals[0],
                    SpecialReg::Sm => self.sm = vals[0],
                    SpecialReg::St => self.scache.set_stack_top(vals[0] & !3),
                    SpecialReg::Ss => self.scache.set_spill_pointer(vals[0] & !3),
                },
                Op::Mfs { rd, ss } => {
                    let value = match ss {
                        SpecialReg::Sl => self.sl,
                        SpecialReg::Sh => self.sh,
                        SpecialReg::Sm => self.sm,
                        SpecialReg::St => self.scache.stack_top(),
                        SpecialReg::Ss => self.scache.spill_pointer(),
                    };
                    self.write_reg(rd, value, 0);
                }
                Op::Br { .. } | Op::Call { .. } | Op::CallR { .. } | Op::Ret | Op::Halt => {
                    if matches!(inst.op, Op::Halt) {
                        self.halted = true;
                        return Ok(());
                    }
                    if had_pending_flow || new_flow.is_some() {
                        return Err(SimError::FlowInDelaySlot { pc: this_pc });
                    }
                    self.stats.taken_branches += 1;
                    let target = match inst.op.flow_kind() {
                        FlowKind::Branch(off) => FlowTarget::Jump(this_pc.wrapping_add(off as u32)),
                        FlowKind::CallDirect(off) => {
                            FlowTarget::Call(this_pc.wrapping_add(off as u32))
                        }
                        FlowKind::CallIndirect(_) => FlowTarget::Call(vals[0]),
                        FlowKind::Return => FlowTarget::Ret(vals[0]),
                        FlowKind::None | FlowKind::Halt => unreachable!("flow ops only"),
                    };
                    *new_flow = Some(PendingFlow {
                        target,
                        slots_left: inst.delay_slots(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The bundle tail shared by both engines: the retire event,
    /// the halt short-circuit, the PC advance, and delay-slot
    /// bookkeeping ending in a redirect.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn post_effects<S: TraceSink>(
        &mut self,
        width: u32,
        this_pc: u32,
        new_flow: Option<PendingFlow>,
        issue_cycles: u64,
        issue_end: u64,
        snap: Stats,
        sink: &mut S,
    ) -> Result<(), SimError> {
        // Every bundle retires exactly one event, the halt bundle
        // included — the event stream reconciles with the counters.
        if S::ENABLED {
            let d = &self.stats;
            sink.event(TraceEvent::Retire {
                pc: this_pc,
                cycle: issue_end,
                issue_cycles,
                executed: (d.insts_executed - snap.insts_executed) as u8,
                annulled: (d.insts_annulled - snap.insts_annulled) as u8,
                nops: (d.nops - snap.nops) as u8,
                second_slot_used: d.second_slots_used > snap.second_slots_used,
                nop_bundle: d.nop_bundles > snap.nop_bundles,
                stack_ops: (d.stack_ops - snap.stack_ops) as u8,
                taken_branch: d.taken_branches > snap.taken_branches,
                untaken_branches: (d.untaken_branches - snap.untaken_branches) as u8,
            });
        }

        if self.halted {
            return Ok(());
        }

        // --- Advance PC and retire delay slots ---
        self.pc = this_pc.wrapping_add(width);
        if let Some(flow) = new_flow {
            self.pending_flow = Some(flow);
        }
        if let Some(mut flow) = self.pending_flow.take() {
            let fresh = new_flow.is_some();
            if !fresh {
                flow.slots_left = flow.slots_left.saturating_sub(1);
            }
            if flow.slots_left == 0 {
                self.redirect(flow.target, sink)?;
            } else {
                self.pending_flow = Some(flow);
            }
        }

        Ok(())
    }

    /// Prepares one slot of a predecoded bundle: contract checks, guard
    /// evaluation, operand reads — the same order as the reference
    /// engine's prep loop, so violations fault identically.
    #[inline(always)]
    fn prep_slot(&self, slot: &PreSlot) -> Result<(Inst, bool, [u32; 2]), SimError> {
        for reg in slot.uses.into_iter().flatten() {
            self.check_reg_ready(reg)?;
        }
        if self.config.strict && slot.mfs_mul && self.mul_ready > self.bundle_index {
            return Err(SimError::MulGapViolation { pc: self.pc });
        }
        let guard_true = slot.inst.guard.eval(&self.preds);
        let vals = [
            slot.uses[0].map_or(0, |r| self.regs[r.index() as usize]),
            slot.uses[1].map_or(0, |r| self.regs[r.index() as usize]),
        ];
        Ok((slot.inst, guard_true, vals))
    }

    /// Retires one predecoded bundle with the trace machinery compiled
    /// out. Guest-cycle identical to [`Simulator::step_traced`]: the
    /// prep, issue accounting, effects, and tail run the same code,
    /// minus the per-bundle allocation and decode-time recomputation.
    #[inline(always)]
    fn step_decoded(&mut self, pb: &PreBundle) -> Result<(), SimError> {
        // --- Pre-state operand reads (both slots read simultaneously) ---
        let first = self.prep_slot(&pb.first)?;
        let second = match &pb.second {
            Some(s) => Some(self.prep_slot(s)?),
            None => None,
        };

        // --- Issue ---
        let had_pending_flow = self.pending_flow.is_some();
        let issue_cycles = if self.config.dual_issue || pb.second.is_none() {
            1
        } else {
            2
        };
        self.now += issue_cycles;
        self.bundle_index += 1;
        self.stats.bundles += 1;
        self.stats.issue_cycles += issue_cycles;
        let issue_end = self.now;
        if let Some((inst, guard_true, _)) = &second {
            if !matches!(inst.op, Op::Nop) && *guard_true {
                self.stats.second_slots_used += 1;
            }
        }
        if pb.all_nop {
            self.stats.nop_bundles += 1;
        }

        let this_pc = self.pc;
        let mut new_flow: Option<PendingFlow> = None;

        // --- Effects ---
        let (inst, guard_true, vals) = first;
        self.exec_slot(
            inst,
            guard_true,
            vals,
            this_pc,
            had_pending_flow,
            &mut new_flow,
            &mut NullSink,
        )?;
        if let Some((inst, guard_true, vals)) = second {
            self.exec_slot(
                inst,
                guard_true,
                vals,
                this_pc,
                had_pending_flow,
                &mut new_flow,
                &mut NullSink,
            )?;
        }
        self.post_effects(
            pb.width,
            this_pc,
            new_flow,
            issue_cycles,
            issue_end,
            Stats::default(),
            &mut NullSink,
        )
    }

    /// One predecoded step: any operation with the trace machinery
    /// compiled out, falling back to the reference step for code
    /// outside the decoded map (including bad PCs, which fault
    /// identically there).
    fn step_pre(&mut self) -> Result<(), SimError> {
        if let Some(e) = &self.decode_error {
            return Err(e.clone());
        }
        if !self.started {
            self.started = true;
            // Cold start: the entry function streams into the method
            // cache. The fill stall belongs to this engine's driver, so
            // its cycles attribute to the fast engine.
            let before = self.now;
            if let Some(f) = self.function_at(self.pc).cloned() {
                self.method_fill(f.start_word, f.size_words, &mut NullSink);
            }
            self.host.fast_cycles += self.now - before;
        }
        if self.now >= self.config.max_cycles {
            return Err(SimError::MaxCyclesExceeded {
                limit: self.config.max_cycles,
            });
        }
        // A continuation word (bad PC) or code outside the decoded map
        // both fall back to the reference step, which faults or executes
        // identically without consulting the map.
        match self.pre_bundle_copy(self.pc) {
            Some(pb) => {
                let before = self.now;
                self.step_decoded(&pb)?;
                self.host.fast_bundles += 1;
                self.host.fast_cycles += self.now - before;
                Ok(())
            }
            None => self.step_traced(&mut NullSink),
        }
    }

    fn redirect<S: TraceSink>(&mut self, target: FlowTarget, sink: &mut S) -> Result<(), SimError> {
        if let Some(check) = &mut self.flow_check {
            // Loop flow caps first (they see every transfer), then the
            // edge-set checks for the indirect transfers — calls and
            // returns are the only transfers a corrupted register can
            // steer, since branch targets are immediate.
            match target {
                FlowTarget::Jump(t) => check.note_transfer(t)?,
                FlowTarget::Call(t) => {
                    check.note_transfer(t)?;
                    if !check.map.is_legal_call(t) {
                        return Err(SimError::IllegalControlFlow {
                            pc: self.pc,
                            target: t,
                        });
                    }
                }
                FlowTarget::Ret(t) => {
                    check.note_transfer(t)?;
                    if !check.map.is_legal_return(t) {
                        return Err(SimError::IllegalControlFlow {
                            pc: self.pc,
                            target: t,
                        });
                    }
                }
            }
        }
        match target {
            FlowTarget::Jump(t) => {
                self.pc = t;
            }
            FlowTarget::Call(t) => {
                let f = self
                    .function_starting_at(t)
                    .cloned()
                    .ok_or(SimError::NotAFunction { target: t })?;
                let link = self.pc;
                self.write_reg(LINK_REG, link, 0);
                self.method_fill(f.start_word, f.size_words, sink);
                self.stats.calls += 1;
                if S::ENABLED {
                    sink.event(TraceEvent::Call {
                        pc: t,
                        cycle: self.now,
                    });
                }
                self.pc = t;
            }
            FlowTarget::Ret(t) => {
                let f = self
                    .function_at(t)
                    .cloned()
                    .ok_or(SimError::BadPc { pc: t })?;
                self.method_fill(f.start_word, f.size_words, sink);
                self.stats.returns += 1;
                if S::ENABLED {
                    sink.event(TraceEvent::Return {
                        pc: t,
                        cycle: self.now,
                    });
                }
                self.pc = t;
            }
        }
        Ok(())
    }

    fn write_reg(&mut self, rd: Reg, value: u32, extra_gap: u32) {
        if rd.is_zero() {
            return;
        }
        self.regs[rd.index() as usize] = value;
        self.reg_ready[rd.index() as usize] = self.bundle_index + extra_gap as u64;
    }

    fn write_pred(&mut self, pd: Pred, value: bool) {
        if pd.is_always_true() {
            return;
        }
        self.preds[pd.index() as usize] = value;
    }
}

/// The trace-event category of a fault target.
fn fault_kind(target: FaultTarget) -> FaultKind {
    match target {
        FaultTarget::Register { .. } => FaultKind::Register,
        FaultTarget::Predicate { .. } => FaultKind::Predicate,
        FaultTarget::Special { .. } => FaultKind::Special,
        FaultTarget::Memory { .. } => FaultKind::Memory,
        FaultTarget::CacheTags { .. } => FaultKind::CacheTags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;

    fn run_src(src: &str) -> (Simulator, RunResult) {
        let image = assemble(src).expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let result = match sim.run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}\nsource:\n{src}"),
        };
        (sim, result)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (sim, result) = run_src(
            "        .func main\n        li r1 = 6\n        li r2 = 7\n        add r3 = r1, r2\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 13);
        assert!(result.stats.cycles >= 4);
    }

    #[test]
    fn dual_issue_bundle_executes_both_slots_from_pre_state() {
        // Swap without a temp: both slots read the old values.
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 1\n        li r2 = 2\n        { add r3 = r1, r0 ; add r4 = r2, r0 }\n        { add r1 = r4, r0 ; add r2 = r3, r0 }\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 2);
        assert_eq!(sim.reg(Reg::R2), 1);
    }

    #[test]
    fn guarded_instructions_annul() {
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 5\n        cmpieq p1 = r1, 5\n        (p1) li r2 = 10\n        (!p1) li r3 = 20\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R2), 10);
        assert_eq!(sim.reg(Reg::R3), 0, "annulled");
    }

    #[test]
    fn loop_with_conditional_branch() {
        // Sum 1..=5 with a guarded backwards branch (2 delay slots).
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 0\n        li r2 = 5\nloop:\n        add r1 = r1, r2\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 15);
    }

    #[test]
    fn uncond_branch_has_one_delay_slot() {
        // The single delay slot executes; the skipped instruction does not.
        let (sim, _) = run_src(
            "        .func main\n        br over\n        li r1 = 1\n        li r2 = 2\nover:\n        li r3 = 3\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 1, "delay slot executed");
        assert_eq!(sim.reg(Reg::R2), 0, "skipped");
        assert_eq!(sim.reg(Reg::R3), 3);
    }

    #[test]
    fn cond_branch_has_two_delay_slots() {
        let (sim, _) = run_src(
            "        .func main\n        cmpieq p1 = r0, 0\n        (p1) br over\n        li r1 = 1\n        li r2 = 2\n        li r3 = 3\nover:\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 1, "first delay slot");
        assert_eq!(sim.reg(Reg::R2), 2, "second delay slot");
        assert_eq!(sim.reg(Reg::R3), 0, "beyond delay slots");
    }

    #[test]
    fn call_and_return() {
        let (sim, result) = run_src(
            "        .func double\n        add r1 = r3, r3\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r3 = 21\n        lil r10 = double\n        callr r10\n        nop\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 42);
        assert_eq!(result.stats.calls, 1);
        assert_eq!(result.stats.returns, 1);
        // Two method-cache fills: entry (cold) + callee; return hits.
        assert_eq!(result.stats.method_cache.misses, 2);
        assert_eq!(result.stats.method_cache.hits, 1);
        assert!(result.stats.stalls.method_cache > 0);
    }

    #[test]
    fn direct_call_links_and_returns() {
        let (sim, _) = run_src(
            "        .func callee\n        li r5 = 99\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        call callee\n        nop\n        li r6 = 1\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R5), 99);
        assert_eq!(sim.reg(Reg::R6), 1, "delay slot of call executed");
    }

    #[test]
    fn load_use_gap_enforced() {
        let image = assemble(
            "        .func main\n        li r2 = 64\n        lwd r1 = [r2 + 0]\n        add r3 = r1, r1\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        match sim.run() {
            Err(SimError::DelayViolation { reg, .. }) => assert_eq!(reg, Reg::R1),
            other => panic!("expected delay violation, got {other:?}"),
        }
    }

    #[test]
    fn load_with_gap_ok_and_charges_miss_once() {
        let (sim, result) = run_src(
            "        .func main\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        add r3 = r1, r1\n        lwc r4 = [r2 + 0]\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 0);
        assert_eq!(sim.reg(Reg::R4), 0);
        assert_eq!(
            result.stats.static_cache.misses, 2,
            "write miss + first read miss"
        );
        assert_eq!(result.stats.static_cache.hits, 1, "second read hits");
    }

    #[test]
    fn mul_gap_enforced() {
        let image = assemble(
            "        .func main\n        li r1 = 3\n        mul r1, r1\n        mfs r2 = sl\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(sim.run(), Err(SimError::MulGapViolation { .. })));
    }

    #[test]
    fn mul_with_gap_produces_product() {
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 1000\n        li r2 = 1000\n        mul r1, r2\n        nop\n        mfs r3 = sl\n        mfs r4 = sh\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 1_000_000);
        assert_eq!(sim.reg(Reg::R4), 0);
    }

    #[test]
    fn split_load_hides_latency() {
        let (sim, result) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        li r3 = 77\n        stm [r2 + 0] = r3\n        ldm [r2 + 0]\n        li r4 = 1\n        li r5 = 2\n        li r6 = 3\n        li r7 = 4\n        li r8 = 5\n        wres r1\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 77);
        // Five useful bundles between ldm and wres cover most of the
        // 8-cycle burst that was ordered behind the posted store.
        assert!(
            result.stats.stalls.split_load < 12,
            "{}",
            result.stats.stalls.split_load
        );
    }

    #[test]
    fn split_load_wait_without_work_stalls_longer() {
        let (_, eager) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        wres r1\n        halt\n",
        );
        let (_, overlapped) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        li r4 = 1\n        li r5 = 2\n        li r6 = 3\n        li r7 = 4\n        wres r1\n        halt\n",
        );
        assert!(
            overlapped.stats.stalls.split_load < eager.stats.stalls.split_load,
            "scheduling should hide latency: {} vs {}",
            overlapped.stats.stalls.split_load,
            eager.stats.stalls.split_load
        );
    }

    #[test]
    fn stack_cache_round_trip() {
        let (sim, result) = run_src(
            "        .func main\n        sres 4\n        li r1 = 11\n        sws [r0 + 2] = r1\n        lws r2 = [r0 + 2]\n        nop\n        sfree 4\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R2), 11);
        assert_eq!(result.stats.stalls.stack_cache, 0, "fits in the cache");
    }

    #[test]
    fn stack_window_violation_detected() {
        let image = assemble(
            "        .func main\n        sres 2\n        lws r1 = [r0 + 5]\n        nop\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::StackWindowViolation { .. })
        ));
    }

    #[test]
    fn scratchpad_is_separate_and_fast() {
        let (sim, result) = run_src(
            "        .func main\n        li r2 = 16\n        li r1 = 5\n        swl [r2 + 0] = r1\n        lwl r3 = [r2 + 0]\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 5);
        // Only the cold-start method-cache fill stalls; the SPM never does.
        assert_eq!(
            result.stats.stalls.total(),
            result.stats.stalls.method_cache
        );
        // SPM and main memory are distinct address spaces: the value sits
        // at SPM address 16, while main-memory address 16 holds code.
        assert_eq!(sim.scratchpad().read_word(16), 5);
        assert_ne!(sim.memory().read_word(16), 5);
    }

    #[test]
    fn single_issue_mode_costs_extra_cycles() {
        let src = "        .func main\n        li r1 = 1\n        { add r2 = r1, r1 ; addi r3 = r1, 1 }\n        { add r4 = r1, r1 ; addi r5 = r1, 1 }\n        halt\n";
        let image = assemble(src).expect("assembles");
        let mut dual = Simulator::new(&image, SimConfig::default());
        let dual_cycles = dual.run().expect("runs").stats.cycles;
        let single_cfg = SimConfig {
            dual_issue: false,
            ..SimConfig::default()
        };
        let mut single = Simulator::new(&image, single_cfg);
        let single_cycles = single.run().expect("runs").stats.cycles;
        assert_eq!(single_cycles, dual_cycles + 2, "two pair bundles");
        assert_eq!(single.reg(Reg::R5), 2);
    }

    #[test]
    fn runaway_program_hits_cycle_budget() {
        let image =
            assemble("        .func main\nspin:\n        br spin\n        nop\n        halt\n")
                .expect("assembles");
        let cfg = SimConfig {
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&image, cfg);
        assert!(matches!(sim.run(), Err(SimError::MaxCyclesExceeded { .. })));
    }

    #[test]
    fn method_cache_hit_on_repeated_calls() {
        let (_, result) = run_src(
            "        .func callee\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        lil r10 = callee\n        callr r10\n        nop\n        nop\n        callr r10\n        nop\n        nop\n        halt\n",
        );
        // Fills: entry (cold) + callee once; second call and both
        // returns hit.
        assert_eq!(result.stats.method_cache.misses, 2);
        assert_eq!(result.stats.method_cache.hits, 3);
    }

    #[test]
    fn counters_are_pinned_on_a_predicated_dual_issue_program() {
        // p1 is true, p2 is false: one second slot executes, one is
        // annulled, one guarded store is annulled. Every counter value
        // below is architectural, not incidental — annulled slots must
        // not count as used second slots, executed instructions, or
        // stack operations.
        let (sim, result) = run_src(
            "        .func main
        li r1 = 5
        cmpieq p1 = r1, 5
        cmpieq p2 = r1, 4
        { (p1) addi r2 = r1, 1 ; (p2) addi r3 = r1, 2 }
        { (p2) addi r4 = r1, 3 ; (p1) addi r5 = r1, 4 }
        sres 2
        sws [r0 + 0] = r2
        (p2) sws [r0 + 1] = r3
        lws r6 = [r0 + 0]
        nop
        sfree 2
        halt
",
        );
        assert_eq!(sim.reg(Reg::R2), 6);
        assert_eq!(sim.reg(Reg::R3), 0, "annulled second slot");
        assert_eq!(sim.reg(Reg::R4), 0, "annulled first slot");
        assert_eq!(sim.reg(Reg::R5), 9, "executed second slot");
        assert_eq!(sim.reg(Reg::R6), 6);
        let s = result.stats;
        assert_eq!(s.bundles, 12);
        assert_eq!(
            s.second_slots_used, 1,
            "only the guard-true second slot counts"
        );
        assert_eq!(
            s.insts_executed, 10,
            "li, 2 cmp, 2 adds, sres, sws, lws, sfree, halt"
        );
        assert_eq!(
            s.insts_annulled, 3,
            "two bundle slots and the guarded store"
        );
        assert_eq!(s.stack_ops, 2, "the annulled store moves no data");
        assert_eq!(s.nops, 1);
        assert_eq!(s.nop_bundles, 1, "the lone nop bundle is filler");
        assert_eq!(s.active_bundles(), 11);
        // Raw utilisation divides by all 12 bundles, the active ratio
        // only by the 11 that issued real work — both are pinned so
        // the denominators cannot silently drift again.
        assert!((s.slot2_utilisation() - 1.0 / 12.0).abs() < 1e-12);
        assert!((s.slot2_utilisation_active() - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn pure_nop_bundles_are_counted_separately() {
        // Three filler bundles: two explicit nops plus the branch's
        // unfilled delay slot; the paired and single real bundles are
        // active. An annulled-but-real slot is not filler.
        let (_, result) = run_src(
            "        .func main
        li r1 = 1
        cmpieq p1 = r1, 2
        { nop ; nop }
        nop
        { addi r2 = r1, 1 ; (p1) addi r3 = r1, 2 }
        br end
        nop
end:
        halt
",
        );
        let s = result.stats;
        assert_eq!(s.bundles, 8);
        assert_eq!(s.nop_bundles, 3);
        assert_eq!(s.active_bundles(), 5);
        assert_eq!(
            s.second_slots_used, 0,
            "an annulled second slot is not used"
        );
    }

    #[test]
    fn traced_run_is_bit_identical_and_reconciles() {
        use patmos_trace::{EventTotals, VecSink};
        // Exercises every event source: a call/return (method-cache
        // fills), static-cache load and store (write buffer), stack
        // cache (sres/sws/lws/sfree), and a split main-memory load.
        let src = "        .func callee\n        li r5 = 9\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        sres 2\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        sws [r0 + 0] = r1\n        lws r6 = [r0 + 0]\n        nop\n        lil r3 = 0x20000\n        ldm [r3 + 0]\n        call callee\n        nop\n        wres r4\n        sfree 2\n        halt\n";
        let image = assemble(src).expect("assembles");

        let mut plain = Simulator::new(&image, SimConfig::default());
        let plain_result = plain.run().expect("runs");

        let mut traced = Simulator::new(&image, SimConfig::default());
        let mut sink = VecSink::new();
        let traced_result = traced.run_traced(&mut sink).expect("runs");

        // Tracing must not perturb the simulation at all.
        assert_eq!(plain_result.stats, traced_result.stats);
        assert_eq!(plain_result.halt_pc, traced_result.halt_pc);

        // The "no hidden state" invariant: every cycle is issue or an
        // attributed stall.
        let s = traced_result.stats;
        assert_eq!(s.cycles, s.issue_cycles + s.stalls.total());

        // The event stream reproduces every counter exactly.
        let t = EventTotals::from_events(&sink.events);
        assert_eq!(t.cycles, s.cycles);
        assert_eq!(t.issue_cycles, s.issue_cycles);
        assert_eq!(t.bundles, s.bundles);
        assert_eq!(t.insts_executed, s.insts_executed);
        assert_eq!(t.insts_annulled, s.insts_annulled);
        assert_eq!(t.nops, s.nops);
        assert_eq!(t.second_slots_used, s.second_slots_used);
        assert_eq!(t.nop_bundles, s.nop_bundles);
        assert_eq!(t.taken_branches, s.taken_branches);
        assert_eq!(t.untaken_branches, s.untaken_branches);
        assert_eq!(t.calls, s.calls);
        assert_eq!(t.returns, s.returns);
        assert_eq!(t.stack_ops, s.stack_ops);
        assert_eq!(t.stall_method_cache, s.stalls.method_cache);
        assert_eq!(t.stall_data_cache, s.stalls.data_cache);
        assert_eq!(t.stall_static_cache, s.stalls.static_cache);
        assert_eq!(t.stall_stack_cache, s.stalls.stack_cache);
        assert_eq!(t.stall_split_load, s.stalls.split_load);
        assert_eq!(t.stall_write_buffer, s.stalls.write_buffer);
        assert_eq!(t.tdma_wait, s.stalls.tdma_wait);
        assert_eq!(t.method_accesses, s.method_cache.accesses);
        assert_eq!(t.method_hits, s.method_cache.hits);
        assert_eq!(t.method_misses, s.method_cache.misses);
        assert_eq!(t.method_transferred_words, s.method_cache.transferred_words);
        assert_eq!(t.data_accesses, s.data_cache.accesses);
        assert_eq!(t.static_accesses, s.static_cache.accesses);
        assert_eq!(t.static_hits, s.static_cache.hits);
        assert_eq!(t.static_misses, s.static_cache.misses);
        assert_eq!(t.static_transferred_words, s.static_cache.transferred_words);
        assert_eq!(t.stack_accesses, s.stack_cache.accesses);
        assert_eq!(t.stack_hits, s.stack_cache.hits);
        assert_eq!(t.stack_misses, s.stack_cache.misses);
        assert_eq!(t.stack_transferred_words, s.stack_cache.transferred_words);

        // Some of everything actually happened.
        assert!(t.stall_method_cache > 0);
        assert!(t.stall_static_cache > 0);
        assert!(t.calls == 1 && t.returns == 1);
    }

    #[test]
    fn tdma_wait_events_reconcile_under_cmp() {
        use patmos_trace::{EventTotals, VecSink};
        let image = assemble(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        wres r1\n        halt\n",
        )
        .expect("assembles");
        let cfg = SimConfig {
            tdma: Some((patmos_mem::TdmaArbiter::new(4, 64), 3)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&image, cfg);
        let mut sink = VecSink::new();
        let result = sim.run_traced(&mut sink).expect("runs");
        let s = result.stats;
        assert!(s.stalls.tdma_wait > 0, "core 3 waits for its slot");
        assert_eq!(s.cycles, s.issue_cycles + s.stalls.total());
        let t = EventTotals::from_events(&sink.events);
        assert_eq!(t.tdma_wait, s.stalls.tdma_wait);
        assert_eq!(t.cycles, s.cycles);
    }

    #[test]
    fn flow_in_delay_slot_rejected() {
        let image = assemble("        .func main\n        br a\n        br a\na:\n        halt\n")
            .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(sim.run(), Err(SimError::FlowInDelaySlot { .. })));
    }

    #[test]
    fn fast_engine_is_bit_identical_to_reference() {
        // The reconciliation program exercises every stall source: calls
        // and returns (method-cache fills), every cache, the write
        // buffer, and a split main-memory load.
        let src = "        .func callee\n        li r5 = 9\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        sres 2\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        sws [r0 + 0] = r1\n        lws r6 = [r0 + 0]\n        nop\n        lil r3 = 0x20000\n        ldm [r3 + 0]\n        call callee\n        nop\n        wres r4\n        sfree 2\n        halt\n";
        let image = assemble(src).expect("assembles");

        let mut fast = Simulator::new(&image, SimConfig::default());
        let fast_result = fast.run().expect("runs");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..SimConfig::default()
            },
        );
        let slow_result = slow.run().expect("runs");

        assert_eq!(fast_result.stats, slow_result.stats);
        assert_eq!(fast_result.halt_pc, slow_result.halt_pc);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.preds, slow.preds);

        // The fast engine actually engaged; the reference engine left the
        // host counters untouched.
        let h = fast.host_stats();
        assert!(h.fast_bundles > 0, "fast engine covered some bundles");
        assert_eq!(slow.host_stats(), HostStats::default());
        assert!(h.fast_coverage(fast_result.stats.cycles) > 0.0);
        assert!(h.fast_coverage(fast_result.stats.cycles) <= 1.0);
    }

    /// Runs `src` on both engines, asserts that they stop with the same
    /// error in the same state (counters, PC and cycle), and returns it.
    fn engines_fail_alike(src: &str, config: SimConfig) -> SimError {
        let image = assemble(src).expect("assembles");
        let mut fast = Simulator::new(&image, config.clone());
        let fast_err = fast.run().expect_err("the fast engine faults");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..config
            },
        );
        let slow_err = slow.run().expect_err("the reference engine faults");
        assert_eq!(fast_err, slow_err);
        assert_eq!(fast.stats(), slow.stats(), "identical up to the error");
        assert_eq!(fast.pc(), slow.pc());
        assert_eq!(fast.cycle(), slow.cycle());
        fast_err
    }

    #[test]
    fn fast_engine_reports_identical_errors() {
        // Contract violations in straight-line register, scratchpad and
        // stack-window code, each after some work has retired.
        let err = engines_fail_alike(
            "        .func main\n        li r1 = 3\n        mul r1, r1\n        mfs r2 = sl\n        halt\n",
            SimConfig::default(),
        );
        assert!(matches!(err, SimError::MulGapViolation { .. }), "{err:?}");
        let err = engines_fail_alike(
            "        .func main\n        li r1 = 5\n        swl [r0 + 0] = r1\n        lwl r2 = [r0 + 0]\n        addi r3 = r2, 1\n        halt\n",
            SimConfig::default(),
        );
        assert!(
            matches!(err, SimError::DelayViolation { reg: Reg::R2, .. }),
            "{err:?}"
        );
        let err = engines_fail_alike(
            "        .func main\n        li r1 = 5\n        addi r2 = r1, 1\n        lws r3 = [r0 + 0]\n        halt\n",
            SimConfig::default(),
        );
        assert!(
            matches!(err, SimError::StackWindowViolation { .. }),
            "{err:?}"
        );
        let err = engines_fail_alike(
            "        .func main\n        li r1 = 5\n        br a\n        br a\na:\n        halt\n",
            SimConfig::default(),
        );
        assert!(matches!(err, SimError::FlowInDelaySlot { .. }), "{err:?}");

        // A cycle budget exhausted inside a tight loop.
        let err = engines_fail_alike(
            "        .func main\nspin:\n        br spin\n        nop\n        halt\n",
            SimConfig {
                max_cycles: 1000,
                ..SimConfig::default()
            },
        );
        assert!(
            matches!(err, SimError::MaxCyclesExceeded { limit: 1000 }),
            "{err:?}"
        );
    }

    #[test]
    fn fast_engine_survives_method_cache_evictions() {
        use patmos_mem::{MethodCacheConfig, ReplacementPolicy};
        // A method cache so small that every call and return evicts the
        // previous function: the predecoded images are dropped and
        // rebuilt constantly and must never desynchronise.
        let src = "        .func one\n        addi r1 = r1, 1\n        ret\n        nop\n        nop\n        .func two\n        addi r2 = r2, 1\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r3 = 4\nloop:\n        call one\n        nop\n        call two\n        nop\n        subi r3 = r3, 1\n        cmpineq p1 = r3, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n";
        let image = assemble(src).expect("assembles");
        let cfg = SimConfig {
            method_cache: MethodCacheConfig::new(2, 8, ReplacementPolicy::Fifo),
            ..SimConfig::default()
        };
        let mut fast = Simulator::new(&image, cfg.clone());
        let fast_result = fast.run().expect("runs");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..cfg
            },
        );
        let slow_result = slow.run().expect("runs");
        assert_eq!(fast.reg(Reg::R1), 4);
        assert_eq!(fast.reg(Reg::R2), 4);
        assert_eq!(fast_result.stats, slow_result.stats);
        assert!(
            fast_result.stats.method_cache.misses > 4,
            "the tiny cache actually thrashed"
        );
    }

    #[test]
    fn malformed_image_is_an_error_not_a_panic() {
        // A lone word with the size bit set claims a second word that is
        // not there: guaranteed undecodable.
        let image = ObjectImage::from_raw(
            vec![0x8000_0000],
            vec![FuncInfo {
                name: "main".into(),
                start_word: 0,
                size_words: 1,
            }],
            0,
        );
        assert!(matches!(
            Simulator::try_new(&image, SimConfig::default()),
            Err(SimError::MalformedImage { .. })
        ));
        // The infallible constructor defers the same error to the first
        // step — on both engines.
        for fast_path in [true, false] {
            let mut sim = Simulator::new(
                &image,
                SimConfig {
                    fast_path,
                    ..SimConfig::default()
                },
            );
            assert!(matches!(sim.run(), Err(SimError::MalformedImage { .. })));
        }
    }
}
