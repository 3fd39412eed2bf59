//! Cycle-accurate simulator of the Patmos processor.
//!
//! This is the executable model of the paper's architecture (Section 3):
//! a statically scheduled, dual-issue RISC pipeline that *never stalls
//! implicitly*. Every delay is either visible in the ISA (branch delay
//! slots, load-use and multiply gaps — see [`patmos_isa::timing`]) or is
//! one of the architecturally defined memory events:
//!
//! * method-cache fill at a call or return,
//! * data/static-cache line fill on a read miss,
//! * stack-cache spill/fill at `sres`/`sens`,
//! * the *explicit* wait of a split main-memory load (`wres`),
//! * write-buffer drain before the next main-memory access.
//!
//! The simulator counts cycles exactly under this model and attributes
//! every stall cycle to its cause ([`StallBreakdown`]), which is what the
//! paper's evaluation story (and our WCET analysis in `patmos-wcet`)
//! builds on. The same accounting streams out as structured
//! [`patmos_trace::TraceEvent`]s through [`Simulator::run_traced`]; an
//! untraced run uses the monomorphized [`patmos_trace::NullSink`] and
//! pays nothing.
//!
//! In *strict* mode (the default) the simulator reports a program that
//! violates a visible delay (e.g. uses a loaded value one bundle too
//! early) as an error instead of silently returning the stale value the
//! hardware would deliver — turning the ISA contract into an executable
//! check for the compiler.
//!
//! Untraced runs execute on a host-side fast engine — predecoded bundles
//! whose lifetime is keyed to the method cache's own fills and
//! evictions, retired one step at a time through the same instruction
//! semantics as the reference interpreter — that is bit-identical in
//! guest cycles, [`Stats`], and results to the reference interpreter
//! ([`SimConfig::fast_path`] `= false` forces the latter; tracing always
//! uses it). [`Simulator::host_stats`] reports how much work the fast
//! engine retired ([`HostStats`]).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = patmos_asm::assemble(
//!     "        .func main\n        li r1 = 6\n        li r2 = 7\n        mul r1, r2\n        nop\n        mfs r3 = sl\n        halt\n",
//! )?;
//! let mut sim = patmos_sim::Simulator::new(&image, patmos_sim::SimConfig::default());
//! let result = sim.run()?;
//! assert_eq!(sim.reg(patmos_isa::Reg::R3), 42);
//! assert!(result.stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

mod cmp;
mod config;
mod error;
pub mod faults;
mod machine;
mod stats;

pub use cmp::{CmpResult, CmpSystem};
pub use config::{CacheParams, SimConfig};
pub use error::SimError;
pub use faults::{
    ControlFlowMap, DetectorKind, FaultOutcome, FaultPlan, FaultRng, FaultSpace, FaultTarget,
    FaultTrigger, Injection, LoopCap,
};
pub use machine::{HostStats, RunResult, Simulator};
pub use stats::{StallBreakdown, Stats};
