//! The execution engines and the one op interpreter they share.
//!
//! Every engine interprets per-core [`TraceOp`] streams through the same
//! hardware models via one interpreter, [`step_op`]; the engines differ only
//! in the order those ops reach the shared state:
//!
//! * [`run_kernel_legacy`] replays the trace segment-serialized — every
//!   core's prologue, then tile 0 on every core, then tile 1, … — so the
//!   shared L2, the coherence protocol and the NoC observe each core's
//!   whole segment as one contiguous burst.
//! * [`run_kernel_interleaved`] is a min-clock scheduler over a
//!   [`simkernel::EventQueue`]: each core is a resumable op stream, and the
//!   scheduler always steps the core with the earliest local clock, parking
//!   cores on `dma-synch` waits and waking them from the queue.  Because
//!   the stepped core is the earliest one, its local clock *is* the global
//!   simulation clock, and shared state observes traffic in simulated-time
//!   order — the order a real machine would produce.
//! * [`run_kernel_parallel`] runs epochs: each core runs ahead through the
//!   ops its own structures can serve, and the ops that need shared state
//!   commit serially at the epoch boundary, in `(core clock, core id)`
//!   order.
//!
//! [`step_op`] is generic over a [`Port`]: the few calls that reach shared
//! state (the demand, ifetch and guarded accesses, `dma-get`/`dma-put`/
//! `loop-end`, the NoC clock advance and the attributed-queue drain).  A
//! port may defer an op by returning `None` before anything is mutated.
//! Three ports exist: [`Full`] (the full paths over the whole
//! [`KernelCtx`]; never defers) for legacy, interleaved and the parallel
//! commit phase; [`Lane`] (the core's pointer lanes into the hierarchy and
//! protocol) for the parallel engine's pooled run-ahead; and [`Probed`]
//! (the full paths behind the read-only lane-locality predicates) for its
//! run-ahead with an observer attached.
//!
//! With one core the legacy and interleaved engines make an identical
//! sequence of model calls, which is what pins them bit-identical (see
//! `tests/engine.rs`) and makes the multi-core difference a pure
//! measurement of the ordering artifact.
//!
//! A kernel is either a *compiled* NAS-like kernel (trace synthesised by
//! [`workloads::KernelExecution`]) or a *raw* kernel
//! ([`workloads::RawKernel`]) whose per-core rounds are explicit — the
//! representation the verification harness's litmus and fuzz programs use.
//! Under the legacy engine a raw kernel's rounds play the role of tiles
//! (round-robin across cores); under the other engines the flattened
//! stream is scheduled like any other.
//!
//! When [`KernelCtx::values`] is attached (`SystemConfig.track_values`),
//! [`step_op`] additionally moves *data values* along the path every access
//! took — SPM, remote SPM, or the cache hierarchy — and, if the oracle is
//! armed, checks every observed load and staged DMA word against the flat
//! reference memory (see [`crate::verify`]).

use std::cell::UnsafeCell;

use campaign::WorkerPool;
use simkernel::trace::{TraceKind, Tracer};
use simkernel::{ByteSize, CoreId, Cycle, CycleCategory, EventQueue};

use cpu::CoreTimingModel;
use mem::{AccessKind, Addr, AddressRange, CoreLane, MemAccessResult, MemorySystem};
use noc::MessageClass;
use spm::{DmaTag, Dmac, Scratchpad};
use spm_coherence::{CoherenceBackend, GuardedOutcome, GuardedTarget, ProtocolLane};
use workloads::{
    CompiledKernel, KernelExecution, MemRefClass, OpCursor, Phase, RawKernel, Segment, TraceOp,
};

use crate::verify::ValueTracking;

/// The kernel being executed: compiled trace generator or raw rounds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProgramRef<'a> {
    /// A compiled NAS-like kernel.
    Compiled(&'a CompiledKernel),
    /// A raw per-core round program (litmus / fuzz).
    Raw(&'a RawKernel),
}

impl<'a> ProgramRef<'a> {
    pub(crate) fn name(&self) -> &'a str {
        match self {
            ProgramRef::Compiled(k) => &k.name,
            ProgramRef::Raw(r) => &r.name,
        }
    }

    pub(crate) fn code_base(&self) -> Addr {
        match self {
            ProgramRef::Compiled(k) => k.code_base,
            ProgramRef::Raw(r) => r.code_base,
        }
    }

    pub(crate) fn code_size(&self) -> u64 {
        match self {
            ProgramRef::Compiled(k) => k.code_size,
            ProgramRef::Raw(r) => r.code_size,
        }
    }

    pub(crate) fn buffer_size(&self) -> ByteSize {
        match self {
            ProgramRef::Compiled(k) => k.buffer_size,
            ProgramRef::Raw(r) => r.buffer_size,
        }
    }

    pub(crate) fn has_guarded_refs(&self) -> bool {
        match self {
            ProgramRef::Compiled(k) => k.has_guarded_refs(),
            ProgramRef::Raw(r) => r.guarded,
        }
    }

    /// The per-core op stream of `core`.
    fn stream(&self, core: CoreId, cores: usize, seed: u64) -> OpStream<'a> {
        match self {
            ProgramRef::Compiled(k) => OpStream::Compiled(OpCursor::new(k, core, cores, seed)),
            ProgramRef::Raw(r) => OpStream::Raw {
                rounds: &r.rounds[core.index()],
                round: 0,
                idx: 0,
            },
        }
    }
}

/// A resumable per-core op stream over either program kind.
#[derive(Debug)]
enum OpStream<'a> {
    Compiled(OpCursor<'a>),
    Raw {
        rounds: &'a [Vec<TraceOp>],
        round: usize,
        idx: usize,
    },
}

impl OpStream<'_> {
    /// The segment the next op comes from (compiled kernels only; a raw
    /// kernel's rounds carry no segment structure).
    fn segment(&self) -> Option<Segment> {
        match self {
            OpStream::Compiled(cursor) => Some(cursor.segment()),
            OpStream::Raw { .. } => None,
        }
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        match self {
            OpStream::Compiled(cursor) => cursor.next_op(),
            OpStream::Raw { rounds, round, idx } => loop {
                let ops = rounds.get(*round)?;
                if let Some(op) = ops.get(*idx) {
                    *idx += 1;
                    return Some(op.clone());
                }
                *round += 1;
                *idx = 0;
            },
        }
    }
}

/// Everything one kernel's execution mutates, bundled so every engine shares
/// one signature; [`Full`] and [`Probed`] are the ports over it.
pub(crate) struct KernelCtx<'a> {
    /// The kernel being executed.
    pub program: ProgramRef<'a>,
    /// The shared cache hierarchy + NoC.
    pub memsys: &'a mut MemorySystem,
    /// The coherence support (proposed protocol or ideal oracle).
    pub protocol: &'a mut dyn CoherenceBackend,
    /// Per-core scratchpads.
    pub spms: &'a mut [Scratchpad],
    /// Per-core DMA controllers.
    pub dmacs: &'a mut [Dmac],
    /// Per-core timing models.
    pub cores: &'a mut [CoreTimingModel],
    /// Functional-memory state (+ optional oracle), when values are tracked.
    pub values: Option<&'a mut ValueTracking>,
    /// Structured event tracer (`SystemConfig.trace` / `--debug-cores`).
    ///
    /// Strictly an observer, like `values`: a `None` tracer costs the hot
    /// loop one discriminant check, and an attached one never touches
    /// simulated time or any statistic.
    pub tracer: Option<&'a mut Tracer>,
    /// Reused buffer for the sampler's per-home queue-depth snapshot, so
    /// the periodic stat sampling allocates nothing per sample.
    pub depth_scratch: Vec<u64>,
}

/// What [`step_op`] does when a `dma-synch` has to wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncPolicy {
    /// Stall the core in place (legacy replay: nothing else can run anyway).
    StallInline,
    /// Report the wake cycle so the scheduler can park the core and run
    /// whichever core is earliest in the meantime.
    Park,
    /// Park and resume at once, so the wait is charged to `Park` exactly as
    /// under [`SyncPolicy::Park`] (the parallel engine's run-ahead: any DMA
    /// the tags wait on was itself a deferred op, so its completion time is
    /// already committed and the sync resolves locally).
    ParkInPlace,
}

/// The result of interpreting one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// The op completed; the core can take its next op.
    Ran,
    /// The op left the core waiting for an event at `wake` (only under
    /// [`SyncPolicy::Park`]).  The op itself is consumed; the deferred
    /// stall is paid by [`CoreTimingModel::resume`].
    Parked {
        /// Cycle at which the core may continue.
        wake: Cycle,
    },
    /// The port deferred the op before it mutated anything.
    Deferred,
    /// The op ran, but the port deferred one of its implied instruction
    /// fetches: the fetch is left un-popped, and the rest of the drain plus
    /// the op's epilogue are left to [`finish_op`].
    FetchDeferred,
}

/// How [`step_op`] reaches the stepping core's own state and, through the
/// shared-state calls (`access`, `guarded`, `dma`, `loop_end`), everything
/// else.  A shared-state call returns `None` to defer its op — or, for an
/// instruction fetch, the rest of the op's fetch drain — to the parallel
/// engine's commit phase, with nothing mutated.  Each op's first port call
/// is one of those or [`begin`](Port::begin), and the call that admits the
/// op begins it (NoC clock, oracle op count), so a deferred op leaves even
/// the observers untouched.  The defaults are a port with no shared state
/// and no observer: every shared-state call defers, the rest do nothing.
trait Port {
    /// The stepping core's timing model.
    fn core(&mut self) -> &mut CoreTimingModel;
    /// The stepping core's scratchpad.
    fn spm(&mut self) -> &mut Scratchpad;
    /// The stepping core's DMA controller.
    fn dmac(&mut self) -> &mut Dmac;
    /// The kernel's code range `(base, size)`, for the implied fetches.
    fn code(&self) -> (Addr, u64);

    /// Begins an op that needs no shared state.
    fn begin(&mut self) {}
    /// A demand load or store, or one implied instruction fetch of the op
    /// in flight (which begins nothing).
    fn access(&mut self, _: Addr, _: AccessKind, _id: u64) -> Option<MemAccessResult> {
        None
    }
    /// A guarded access, routed by the coherence protocol.
    fn guarded(&mut self, _: Addr, _is_store: bool) -> Option<GuardedOutcome> {
        None
    }
    /// A whole `dma-get` (or, with `get` off, `dma-put`): the transfer, the
    /// SPM fill (drain), the protocol mapping (unmapping), the observers.
    fn dma(&mut self, _get: bool, _: DmaTag, _buffer: usize, _: AddressRange) -> Option<()> {
        None
    }
    /// A whole loop end: every mapping of the core is dropped.
    fn loop_end(&mut self) -> Option<()> {
        None
    }
    /// Drains the NoC queueing cycles the access just made measured (zero
    /// while cycle accounting is off).
    fn take_queue(&mut self) -> Cycle {
        Cycle::ZERO
    }
    /// The per-op epilogue, after the instruction fetches.
    fn end_op(&mut self) {}
    /// The value-tracking view, when values are tracked.
    fn values(&mut self) -> Option<Values<'_>> {
        None
    }
    /// The event tracer, when one is attached.
    fn tracer(&mut self) -> Option<&mut Tracer> {
        None
    }
    /// Records a trace event on the core's track at its current clock.
    fn trace(&mut self, _: TraceKind, _payload: [u64; 2]) {}
}

/// Interprets one trace op on one core: issues its memory traffic, charges
/// its timing, performs the implied instruction fetches and, with value
/// tracking on, moves the data values the op carries.
///
/// This is the simulator's hottest loop body and its only interpreter:
/// every engine runs every op through it, over one of three [`Port`]s, so
/// the per-op semantics cannot drift apart between engines.
fn step_op<P: Port>(op: &TraceOp, port: &mut P, policy: SyncPolicy) -> StepOutcome {
    let mut outcome = StepOutcome::Ran;
    match op {
        TraceOp::Compute { insts } => {
            port.begin();
            port.core().execute_compute(*insts);
        }
        TraceOp::SetPhase(phase) => {
            port.begin();
            let core = port.core();
            if *phase != Phase::Work {
                core.drain_memory();
            }
            core.set_phase(*phase);
        }
        TraceOp::AllocateBuffers { count } => {
            port.begin();
            let _ = port.spm().allocate_buffers(*count);
        }
        TraceOp::DmaGet { tag, buffer, chunk } | TraceOp::DmaPut { tag, buffer, chunk } => {
            let get = matches!(op, TraceOp::DmaGet { .. });
            if port.dma(get, *tag, *buffer, *chunk).is_none() {
                return StepOutcome::Deferred;
            }
        }
        TraceOp::LoopEnd => {
            if port.loop_end().is_none() {
                return StepOutcome::Deferred;
            }
        }
        TraceOp::DmaSync { tags } => {
            port.begin();
            let now = port.core().now();
            let done = port.dmac().dma_synch(tags, now);
            port.trace(TraceKind::DmaSync, [done.as_u64(), tags.len() as u64]);
            match policy {
                // The transfer completion is a scheduled event: the core
                // parks and another core may run in the meantime.  The
                // stall to `done` is charged on resume, so the core-local
                // timing is identical to the inline path.  Accounting-wise
                // the deferred stall lands in `Park`, not `DmaWait`: the
                // legacy engine's inline wait below is exactly the
                // serialized-replay artifact, so the split keeps the
                // engines' ordering gap attributable in a breakdown diff.
                SyncPolicy::Park if done > now => outcome = StepOutcome::Parked { wake: done },
                SyncPolicy::ParkInPlace if done > now => {
                    port.trace(TraceKind::Park, [done.as_u64(), 0]);
                    port.core().park_until(done);
                    port.core().resume();
                    port.trace(TraceKind::Resume, [done.as_u64(), 0]);
                }
                _ => port.core().stall_until(done, CycleCategory::DmaWait),
            }
        }
        TraceOp::Load {
            addr,
            class,
            reference_id,
        }
        | TraceOp::Store {
            addr,
            class,
            reference_id,
        } => {
            let is_store = matches!(op, TraceOp::Store { .. });
            let (value, recheck) = match class {
                MemRefClass::SpmStrided { buffer } => {
                    port.begin();
                    let latency = if is_store {
                        port.spm().write_local()
                    } else {
                        port.spm().read_local()
                    };
                    port.core().issue_memory_access(latency, false);
                    let value = port
                        .values()
                        .and_then(|mut v| v.spm(*buffer, *addr, is_store, false, "load(spm)"));
                    (value, false)
                }
                MemRefClass::Guarded => {
                    let Some(outcome) = port.guarded(*addr, is_store) else {
                        return StepOutcome::Deferred;
                    };
                    // Guarded refs stall on the protocol's routing decision:
                    // their visible wait is `Protocol`, minus whatever NoC
                    // queueing the underlying legs measured.
                    let queue = port.take_queue();
                    port.core().issue_memory_access_classified(
                        outcome.latency,
                        true,
                        CycleCategory::Protocol,
                        queue,
                    );
                    let kind = match outcome.target {
                        GuardedTarget::GlobalMemory { .. } => TraceKind::GuardedGm,
                        GuardedTarget::LocalSpm { .. } => TraceKind::GuardedLocalSpm,
                        GuardedTarget::RemoteSpm { .. } => TraceKind::GuardedRemoteSpm,
                    };
                    port.trace(kind, [addr.raw(), outcome.latency.as_u64()]);
                    let value = port
                        .values()
                        .and_then(|mut v| v.guarded(*addr, is_store, &outcome));
                    // §3.4: a diverted access makes the LSQ re-check
                    // ordering against the data's original (GM) address,
                    // flushing on a violation.
                    (value, outcome.diverted_to_spm())
                }
                MemRefClass::Gm | MemRefClass::GmStrided | MemRefClass::Stack => {
                    let kind = if is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let Some(result) = port.access(*addr, kind, *reference_id) else {
                        return StepOutcome::Deferred;
                    };
                    // Random (pointer-like) accesses feed dependent
                    // work; strided and stack accesses are
                    // independent and overlap under the MLP window.
                    let dependent = matches!(class, MemRefClass::Gm);
                    let queue = port.take_queue();
                    port.core().issue_memory_access_classified(
                        result.latency,
                        dependent,
                        CycleCategory::MissWait,
                        queue,
                    );
                    let value = port.values().map(|mut v| v.gm(*addr, is_store, "load(gm)"));
                    (value, false)
                }
            };
            let core = port.core();
            core.record_in_lsq_valued(*addr, is_store, value);
            if recheck {
                let _ = core.recheck_ordering(*addr, is_store);
            }
        }
    }
    if finish_op(port) {
        outcome
    } else {
        StepOutcome::FetchDeferred
    }
}

/// Performs the instruction fetches implied by the instructions executed so
/// far, drained one at a time so the common no-fetch case costs one branch,
/// then the per-op epilogue.  Returns `false` — the deferred fetch left
/// un-popped, the epilogue not run — when the port defers a fetch.
fn finish_op<P: Port>(port: &mut P) -> bool {
    let (code_base, code_size) = port.code();
    while let Some(addr) = port.core().peek_due_ifetch(code_base, code_size) {
        let Some(result) = port.access(addr, AccessKind::Ifetch, 0) else {
            return false;
        };
        let core = port.core();
        core.pop_due_ifetch();
        core.apply_ifetch(result.latency, result.l1_hit);
    }
    port.end_op();
    true
}

/// What value tracking touches for one access besides its own state: the
/// stepping core's store-value generator, the hierarchy's value stores and
/// the protocol (read-only, for divergence reports).
struct Values<'x> {
    core_id: CoreId,
    core: &'x mut CoreTimingModel,
    vt: &'x mut ValueTracking,
    memsys: &'x mut MemorySystem,
    protocol: &'x dyn CoherenceBackend,
}

impl Values<'_> {
    /// The value a store writes, `None` for a load.
    fn store_value(&mut self, addr: Addr, is_store: bool) -> Option<u64> {
        is_store.then(|| self.core.next_store_value(self.core_id.index(), addr))
    }

    /// An access to one of the core's own SPM buffers; with `write_through`
    /// a store also updates the GM copy.  Returns the value carried into the
    /// LSQ, `None` when the access fell outside the modeled contract.
    fn spm(
        &mut self,
        buffer: usize,
        addr: Addr,
        is_store: bool,
        write_through: bool,
        access: &str,
    ) -> Option<u64> {
        let c = self.core_id.index();
        let Some(v) = self.store_value(addr, is_store) else {
            return self.vt.spm_load(c, c, buffer, addr, access, self.protocol);
        };
        let modeled = self.vt.spm_store(c, buffer, addr, v);
        if modeled && write_through {
            self.memsys.write_word(self.core_id, addr, v);
        }
        modeled.then_some(v)
    }

    /// An access through the cache hierarchy: a store writes its value, a
    /// load reads (and checks) the word it observes.
    fn gm(&mut self, addr: Addr, is_store: bool, access: &str) -> u64 {
        if let Some(v) = self.store_value(addr, is_store) {
            self.memsys.write_word(self.core_id, addr, v);
            self.vt.oracle_store(addr, v);
            v
        } else {
            let observed = self.memsys.read_word(self.core_id, addr).unwrap_or(0);
            self.vt
                .check_load(self.core_id.index(), addr, observed, access, self.protocol);
            observed
        }
    }

    /// Moves (and checks) the value of one guarded access along the path
    /// the protocol chose for it.
    fn guarded(&mut self, addr: Addr, is_store: bool, outcome: &GuardedOutcome) -> Option<u64> {
        match outcome.target {
            GuardedTarget::GlobalMemory { .. } => Some(self.gm(addr, is_store, "guarded-load(gm)")),
            // The proposed protocol also updates the GM copy of a guarded
            // store through the L1 (the buffer may never be written back).
            GuardedTarget::LocalSpm { buffer } => self.spm(
                buffer,
                addr,
                is_store,
                outcome.gm_write_through,
                "guarded-load(spm)",
            ),
            GuardedTarget::RemoteSpm { owner } => {
                let (c, o) = (self.core_id.index(), owner.index());
                match self.store_value(addr, is_store) {
                    Some(v) => self.vt.remote_spm_store(o, addr, v).then_some(v),
                    None => self.vt.remote_spm_load(c, o, addr, self.protocol),
                }
            }
        }
    }
}

/// The full paths over the whole [`KernelCtx`], stepping core `core`.
///
/// With `PROBED` off this is the [`Full`] port; with it on, the [`Probed`]
/// one.
struct CtxPort<'c, 'a, const PROBED: bool> {
    ctx: &'c mut KernelCtx<'a>,
    core: CoreId,
}

/// The full paths; never defers.  Legacy replay, the interleaved scheduler
/// and the parallel engine's commit phase step through it.
type Full<'c, 'a> = CtxPort<'c, 'a, false>;

/// The full paths behind the read-only lane-locality predicates
/// (`MemorySystem::is_lane_local`, `CoherenceBackend::is_guarded_lane_local`):
/// the parallel engine's run-ahead when an observer is attached.  It defers
/// exactly what the [`Lane`] port defers, and like it never moves the NoC
/// clock, but value tracking and tracing still see every access.
type Probed<'c, 'a> = CtxPort<'c, 'a, true>;

impl<'c, 'a, const PROBED: bool> CtxPort<'c, 'a, PROBED> {
    fn new(ctx: &'c mut KernelCtx<'a>, core: CoreId) -> Self {
        CtxPort { ctx, core }
    }

    /// Admits (and begins) an op that needs shared state; the probed port
    /// first asks `lane_local`, deferring when it says no.
    fn admit(&mut self, lane_local: impl FnOnce(&KernelCtx<'a>) -> bool) -> Option<()> {
        if PROBED && !lane_local(self.ctx) {
            return None;
        }
        self.begin();
        Some(())
    }
}

impl<const PROBED: bool> Port for CtxPort<'_, '_, PROBED> {
    fn core(&mut self) -> &mut CoreTimingModel {
        &mut self.ctx.cores[self.core.index()]
    }

    fn spm(&mut self) -> &mut Scratchpad {
        &mut self.ctx.spms[self.core.index()]
    }

    fn dmac(&mut self) -> &mut Dmac {
        &mut self.ctx.dmacs[self.core.index()]
    }

    fn code(&self) -> (Addr, u64) {
        (self.ctx.program.code_base(), self.ctx.program.code_size())
    }

    fn begin(&mut self) {
        if !PROBED {
            // Queue this core's packets in simulation time (the analytic
            // NoC ignores this).  Under the interleaved engine the stepped
            // core is the earliest one, so this is the global scheduler
            // clock; under legacy replay it regresses at every core switch
            // (counted by `noc.des.clock.regressions`).  Run-ahead ops send
            // no packets, so the probed port leaves the clock alone.
            let now = self.ctx.cores[self.core.index()].now();
            self.ctx.memsys.advance_noc(now);
        }
        if let Some(vt) = self.ctx.values.as_deref_mut() {
            vt.begin_op();
        }
    }

    fn access(&mut self, addr: Addr, kind: AccessKind, id: u64) -> Option<MemAccessResult> {
        let core = self.core;
        if PROBED && !self.ctx.memsys.is_lane_local(core, addr, kind, id) {
            return None;
        }
        let class = match kind {
            AccessKind::Ifetch => MessageClass::Ifetch,
            AccessKind::Load => MessageClass::Read,
            AccessKind::Store => MessageClass::Write,
        };
        if kind != AccessKind::Ifetch {
            self.begin();
        }
        Some(self.ctx.memsys.access(core, addr, kind, class, id))
    }

    fn guarded(&mut self, addr: Addr, is_store: bool) -> Option<GuardedOutcome> {
        let core = self.core;
        self.admit(|ctx| {
            ctx.protocol
                .is_guarded_lane_local(core, addr, is_store, ctx.memsys)
        })?;
        let ctx = &mut *self.ctx;
        Some(
            ctx.protocol
                .guarded_access(core, addr, is_store, ctx.memsys, ctx.spms),
        )
    }

    fn dma(&mut self, get: bool, tag: DmaTag, buffer: usize, chunk: AddressRange) -> Option<()> {
        self.admit(|_| false)?;
        let (core_id, c) = (self.core, self.core.index());
        let ctx = &mut *self.ctx;
        let now = ctx.cores[c].now();
        let spm_values = ctx.values.as_deref_mut().map(|vt| vt.spm_store_raw(c));
        let (completion, kinds) = if get {
            let completion = ctx.dmacs[c].dma_get(tag, chunk, now, ctx.memsys, spm_values);
            ctx.spms[c].record_dma_fill(chunk.len());
            let _ = ctx.protocol.on_map(core_id, buffer, chunk, ctx.memsys);
            if let Some(vt) = ctx.values.as_deref_mut() {
                // Registers the mapping and checks every staged word — the
                // DMA read is a read of global memory.
                vt.note_get(c, buffer, chunk, &*ctx.protocol);
            }
            (completion, [TraceKind::DmaGet, TraceKind::Map])
        } else {
            let completion = ctx.dmacs[c].dma_put(tag, chunk, now, ctx.memsys, spm_values);
            ctx.spms[c].record_dma_drain(chunk.len());
            let _ = ctx.protocol.on_unmap(core_id, buffer);
            if let Some(vt) = ctx.values.as_deref_mut() {
                vt.note_put(c, buffer, chunk);
            }
            (completion, [TraceKind::DmaPut, TraceKind::Unmap])
        };
        if let Some(tr) = ctx.tracer.as_deref_mut() {
            let at = now.as_u64();
            tr.record(c, at, kinds[0], [completion.as_u64(), chunk.len()]);
            tr.record(c, at, kinds[1], [buffer as u64, chunk.start().raw()]);
        }
        Some(())
    }

    fn loop_end(&mut self) -> Option<()> {
        self.admit(|_| false)?;
        let c = self.core.index();
        self.ctx.protocol.on_loop_end(self.core);
        self.ctx.cores[c].drain_memory();
        if let Some(vt) = self.ctx.values.as_deref_mut() {
            vt.note_loop_end(c);
        }
        self.trace(TraceKind::LoopEnd, [0, 0]);
        Some(())
    }

    fn take_queue(&mut self) -> Cycle {
        if self.core().accounting_enabled() {
            self.ctx.memsys.take_attributed_queue()
        } else {
            Cycle::ZERO
        }
    }

    fn end_op(&mut self) {
        // Fetch misses are charged wholesale to `IFetch`; drop their queue
        // component so it cannot leak into the next data access's split.
        let _ = self.take_queue();

        // Periodic stat sampling, keyed off the stepping core's clock (under
        // the interleaved engine that clock is global simulation time).
        let ctx = &mut *self.ctx;
        if let Some(tr) = ctx.tracer.as_deref_mut() {
            let now = ctx.cores[self.core.index()].now();
            if tr.sample_due(now.as_u64()) {
                sample_stats(
                    tr,
                    ctx.memsys,
                    ctx.dmacs,
                    ctx.cores,
                    now,
                    &mut ctx.depth_scratch,
                );
            }
        }
    }

    fn values(&mut self) -> Option<Values<'_>> {
        let ctx = &mut *self.ctx;
        let vt = ctx.values.as_deref_mut()?;
        Some(Values {
            core_id: self.core,
            core: &mut ctx.cores[self.core.index()],
            vt,
            memsys: ctx.memsys,
            protocol: &*ctx.protocol,
        })
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.ctx.tracer.as_deref_mut()
    }

    // Always inlined, so the common no-tracer case costs one branch at each
    // of the interpreter's trace points (guarded accesses among them).
    #[inline(always)]
    fn trace(&mut self, kind: TraceKind, payload: [u64; 2]) {
        let c = self.core.index();
        if let Some(tr) = self.ctx.tracer.as_deref_mut() {
            tr.record(c, self.ctx.cores[c].now().as_u64(), kind, payload);
        }
    }
}

/// Snapshots the live counters into the tracer's time-series: `mem.*`
/// interned deltas, per-home-node instantaneous queue depth and per-link
/// busy-cycle deltas from the discrete-event NoC, DMA in-flight counts and,
/// when cycle accounting is on, the machine-wide `cycles.*` category totals
/// (so attribution renders as counter tracks on the trace timelines).
///
/// Reads only `&self` state — sampling can never perturb the simulation.
/// `depth_scratch` is a caller-owned buffer reused across samples so the
/// queue-depth snapshot allocates nothing on the hot path.
pub(crate) fn sample_stats(
    tracer: &mut Tracer,
    memsys: &MemorySystem,
    dmacs: &[Dmac],
    cores: &[CoreTimingModel],
    now: Cycle,
    depth_scratch: &mut Vec<u64>,
) {
    let mut sample = tracer.begin_sample(now.as_u64());
    for (name, value) in memsys.interned_stats().iter() {
        sample.counter(name, value as f64);
    }
    sample.gauge(
        "dmac.in_flight",
        dmacs.iter().map(|d| d.in_flight_at(now)).sum::<usize>() as f64,
    );
    if cores.first().is_some_and(|c| c.accounting_enabled()) {
        for category in CycleCategory::ALL {
            let total: u64 = cores
                .iter()
                .filter_map(|c| c.cycle_account())
                .map(|a| a.get(category))
                .sum();
            sample.counter(&format!("cycles.{}", category.id()), total as f64);
        }
    }
    if let Some(des) = memsys.noc().des() {
        des.home_queue_depths(now, depth_scratch);
        for (node, &depth) in depth_scratch.iter().enumerate() {
            sample.gauge(&format!("noc.des.home_queue.{node}"), depth as f64);
        }
        for (link, busy) in des.link_busy_cycles().into_iter().enumerate() {
            sample.counter(&format!("noc.des.link_busy.{link}"), busy as f64);
        }
        sample.counter("noc.des.packets.delivered", des.delivered() as f64);
    }
}

/// Replays one kernel segment-serialized: every core's prologue, then each
/// tile round-robin across the cores, then every core's epilogue.  A raw
/// kernel's explicit rounds play the role of tiles.
pub(crate) fn run_kernel_legacy(ctx: &mut KernelCtx<'_>, trace_seed: u64) {
    let cores = ctx.cores.len();
    match ctx.program {
        ProgramRef::Compiled(kernel) => {
            let mut execs: Vec<KernelExecution<'_>> = (0..cores)
                .map(|i| KernelExecution::new(kernel, CoreId::new(i), cores, trace_seed))
                .collect();

            // Prologue on every core.
            for (i, exec) in execs.iter_mut().enumerate() {
                execute_segment(ctx, i, Some(Segment::Prologue), &exec.prologue());
            }

            // Tiles are interleaved across cores so the shared L2 and the
            // NoC see the concurrent working set of the whole chip, as in
            // the fork-join execution the paper models.
            let tiles = execs.iter().map(|e| e.num_tiles()).max().unwrap_or(0);
            for tile in 0..tiles {
                for (i, exec) in execs.iter_mut().enumerate() {
                    if tile < exec.num_tiles() {
                        execute_segment(ctx, i, Some(Segment::Tile(tile)), &exec.tile(tile));
                    }
                }
            }

            // Epilogue on every core.
            for (i, exec) in execs.iter_mut().enumerate() {
                execute_segment(ctx, i, Some(Segment::Epilogue), &exec.epilogue());
            }
        }
        ProgramRef::Raw(raw) => {
            for round in 0..raw.max_rounds() {
                for core in 0..cores {
                    if let Some(ops) = raw.rounds[core].get(round) {
                        execute_segment(ctx, core, None, ops);
                    }
                }
            }
        }
    }
}

/// Steps `core` through `ops` in place, after recording the boundary of
/// `segment` (compiled kernels only).
fn execute_segment(
    ctx: &mut KernelCtx<'_>,
    core: usize,
    segment: Option<Segment>,
    ops: &[TraceOp],
) {
    let port = &mut Full::new(ctx, CoreId::new(core));
    if let Some(s) = segment {
        segment_begin(port, s);
    }
    for op in ops {
        let _ = step_op(op, port, SyncPolicy::StallInline);
    }
}

/// Records a segment-boundary event on the core's track at its clock.
fn segment_begin<P: Port>(port: &mut P, segment: Segment) {
    port.trace(
        TraceKind::SegmentBegin,
        [segment.code(), segment.tile_index().unwrap_or(0)],
    );
}

/// Records a segment-boundary event when `stream` has moved into a new
/// segment since `last` (tracing only; raw kernels carry no segments).
fn note_segment<P: Port>(port: &mut P, stream: &OpStream<'_>, last: &mut Option<Segment>) {
    if port.tracer().is_none() {
        return;
    }
    let segment = stream.segment();
    if segment != *last {
        *last = segment;
        if let Some(s) = segment {
            segment_begin(port, s);
        }
    }
}

/// Runs one kernel under the cycle-interleaved min-clock scheduler.
///
/// Each core is a streaming [`OpStream`]; the scheduler keeps one event per
/// live core in a [`EventQueue`], keyed by the cycle the core can next run
/// (its local clock, or its `dma-synch` wake time while parked).  Popping
/// the queue therefore always selects the earliest core; it executes ops
/// until its clock passes the next pending event, then yields.  The
/// insertion-order FIFO tie-break of the queue makes the whole interleaving
/// deterministic.
pub(crate) fn run_kernel_interleaved(ctx: &mut KernelCtx<'_>, trace_seed: u64) {
    let cores = ctx.cores.len();
    let program = ctx.program;
    let mut cursors: Vec<OpStream<'_>> = (0..cores)
        .map(|i| program.stream(CoreId::new(i), cores, trace_seed))
        .collect();

    let mut queue: EventQueue<usize> = EventQueue::with_capacity(cores);
    for c in 0..cores {
        queue.schedule(ctx.cores[c].now(), c);
    }

    // Global simulation time: events pop in non-decreasing cycle order
    // because every event scheduled below fires at or after the pop that
    // scheduled it (a yield fires at the core's advanced clock, a wake at a
    // completion in the future).
    // Last segment each core was seen in, for boundary events (compiled
    // kernels only — raw rounds carry no segment structure).
    let mut segments: Vec<Option<Segment>> = vec![None; cores];

    let mut global = Cycle::ZERO;
    while let Some((when, c)) = queue.pop() {
        debug_assert!(when >= global, "scheduler time ran backwards");
        global = global.max(when);
        let port = &mut Full::new(ctx, CoreId::new(c));
        if port.core().is_parked() {
            debug_assert!(port.core().runnable_at() <= when, "core woke early");
            port.core().resume();
            if let Some(tr) = port.tracer() {
                tr.record(c, when.as_u64(), TraceKind::Resume, [when.as_u64(), 0]);
            }
        }
        // A core that streams its last op simply leaves the scheduler and
        // waits at the kernel barrier (applied by the caller).
        while let Some(op) = cursors[c].next_op() {
            note_segment(port, &cursors[c], &mut segments[c]);
            if let StepOutcome::Parked { wake } = step_op(&op, port, SyncPolicy::Park) {
                port.core().park_until(wake);
                queue.schedule(wake, c);
                port.trace(TraceKind::Park, [wake.as_u64(), 0]);
                break;
            }
            if let Some(next) = queue.peek_time() {
                if port.core().now() > next {
                    // Another core is now the earliest: yield.
                    queue.schedule(port.core().now(), c);
                    break;
                }
            }
        }
    }
}

// ===================================================================
// The parallel engine: epoch-based conservative multicore simulation.
// ===================================================================

/// What a core is waiting on between the run-ahead and commit phases of the
/// parallel engine's rounds.
#[derive(Debug, Clone)]
enum Pend {
    /// The core may keep running ahead next round.
    Ready,
    /// The next op needs shared state; it executes at the commit phase, at
    /// the recorded core clock, through the [`Full`] port.
    Op(TraceOp, Cycle),
    /// The op itself ran ahead, but its implied instruction-fetch drain hit
    /// an L1I miss; the remaining fetches complete at the commit phase.
    /// `at` is the core clock after the op (the commit ordering key);
    /// `noc_at` the clock at the op's start — the interleaved engine
    /// advances the NoC once per op, before the body, so the fetch drain
    /// runs with the NoC there, and the commit must reproduce that.
    Ifetches { at: Cycle, noc_at: Cycle },
    /// The core streamed its last op and waits at the kernel barrier.
    Done,
}

/// One core's progress through the parallel engine's rounds.
struct Progress<'a> {
    stream: OpStream<'a>,
    pend: Pend,
    /// Last segment seen, for boundary events (tracing only).
    segment: Option<Segment>,
}

/// The lane port: one core's exclusive working set during a run-ahead
/// phase — its timing model, SPM and DMAC, plus its pointer lanes into the
/// shared hierarchy and protocol.  It defers whatever the lanes cannot
/// serve, never moves the NoC clock and carries no observer.
struct Lane<'b> {
    core: &'b mut CoreTimingModel,
    spm: &'b mut Scratchpad,
    dmac: &'b mut Dmac,
    mem: &'b mut CoreLane,
    prot: Option<&'b mut ProtocolLane>,
    code: (Addr, u64),
}

impl Port for Lane<'_> {
    fn core(&mut self) -> &mut CoreTimingModel {
        self.core
    }

    fn spm(&mut self) -> &mut Scratchpad {
        self.spm
    }

    fn dmac(&mut self) -> &mut Dmac {
        self.dmac
    }

    fn code(&self) -> (Addr, u64) {
        self.code
    }

    fn access(&mut self, addr: Addr, kind: AccessKind, id: u64) -> Option<MemAccessResult> {
        self.mem.try_access(addr, kind, id)
    }

    fn guarded(&mut self, addr: Addr, is_store: bool) -> Option<GuardedOutcome> {
        self.prot
            .as_deref_mut()?
            .try_guarded(addr, is_store, self.mem, self.spm)
    }

    // The attributed-queue drain keeps its zero default: a lane-local
    // access sends nothing, so the queue it would drain is provably empty.
}

/// One core's run-ahead state, owned by exactly one pool worker.
type LaneCell<'a, 'b> = (Lane<'b>, &'b mut Progress<'a>);

/// The round's lane cells, shared across pool workers.
///
/// SAFETY (of the `Sync` impl): `WorkerPool::dispatch` hands every index to
/// exactly one worker, so the `UnsafeCell`s are accessed disjointly — the
/// only reason a plain `&mut`-slice split does not work is that the pool's
/// job signature is `Fn(usize)` over a shared closure.
struct LaneCells<'c, 'a, 'b>(&'c [UnsafeCell<LaneCell<'a, 'b>>]);

unsafe impl Sync for LaneCells<'_, '_, '_> {}

impl<'a, 'b> LaneCells<'_, 'a, 'b> {
    /// Pointer to cell `i`.  A method (not a field access) so closures
    /// capture the `Sync` wrapper as a whole, never the raw slice.
    fn cell(&self, i: usize) -> *mut LaneCell<'a, 'b> {
        self.0[i].get()
    }
}

/// Runs one kernel under the epoch-based conservative parallel scheduler.
///
/// Each round, every live core runs ahead independently — executing ops that
/// touch only its own structures (its timing model, SPM, DMAC, private L1s,
/// prefetcher, SPMDir and filter) — until it reaches an op that needs shared
/// state, passes the epoch horizon (`min live clock + epoch_cycles`), or
/// ends its stream.  The deferred ops then execute serially, sorted by
/// `(core clock, core id)`, through the [`Full`] port; per-core scratch
/// counters merge in core order.  Both make the schedule — and therefore
/// the simulation — bit-identical for any worker count, including the
/// inline `pool: None` form.
///
/// The run-ahead steps through the [`Lane`] port, fanned out over the
/// worker pool (or inline, in core order, without one).  With an observer
/// attached (value tracking, tracing) it steps single-threaded through the
/// [`Probed`] port instead, which defers exactly what the lanes defer — so
/// observers stay timing-invisible here exactly as they are under the
/// other engines.
pub(crate) fn run_kernel_parallel(
    ctx: &mut KernelCtx<'_>,
    trace_seed: u64,
    pool: Option<&WorkerPool>,
    epoch_cycles: u64,
) {
    let epoch = Cycle::new(epoch_cycles.max(1));
    let cores = ctx.cores.len();
    let program = ctx.program;
    let code = (program.code_base(), program.code_size());
    let mut progress: Vec<Progress<'_>> = (0..cores)
        .map(|i| Progress {
            stream: program.stream(CoreId::new(i), cores, trace_seed),
            pend: Pend::Ready,
            segment: None,
        })
        .collect();
    let mut order: Vec<(Cycle, usize)> = Vec::with_capacity(cores);
    let observed = ctx.values.is_some() || ctx.tracer.is_some();
    // SAFETY: one lane per core; the lanes are dropped before the hierarchy
    // and protocol (this function returns after the merge loop below), and
    // their methods run only inside the run-ahead phase, which holds no
    // other borrow of either structure.
    let mut lanes: Vec<(CoreLane, Option<ProtocolLane>)> = if observed {
        Vec::new()
    } else {
        (0..cores)
            .map(|c| unsafe {
                let core = CoreId::new(c);
                (ctx.memsys.new_lane(core), ctx.protocol.new_core_lane(core))
            })
            .collect()
    };

    while let Some(epoch_start) = (0..cores)
        .filter(|&c| !matches!(progress[c].pend, Pend::Done))
        .map(|c| ctx.cores[c].now())
        .min()
    {
        let horizon = epoch_start + epoch;
        if observed {
            for (c, p) in progress.iter_mut().enumerate() {
                run_ahead(&mut Probed::new(ctx, CoreId::new(c)), p, horizon);
            }
        } else {
            // Each lane cell is owned by exactly one worker.
            let cells: Vec<UnsafeCell<LaneCell<'_, '_>>> = ctx
                .cores
                .iter_mut()
                .zip(ctx.spms.iter_mut())
                .zip(ctx.dmacs.iter_mut())
                .zip(lanes.iter_mut())
                .zip(progress.iter_mut())
                .map(|((((core, spm), dmac), (mem, prot)), p)| {
                    let prot = prot.as_mut();
                    UnsafeCell::new((
                        Lane {
                            core,
                            spm,
                            dmac,
                            mem,
                            prot,
                            code,
                        },
                        p,
                    ))
                })
                .collect();
            let cells = LaneCells(&cells);
            let worker = |i: usize| {
                // SAFETY: `dispatch` hands each index to one worker only.
                let (port, p) = unsafe { &mut *cells.cell(i) };
                run_ahead(port, p, horizon);
            };
            match pool {
                Some(pool) => pool.dispatch(cores, &worker),
                None => (0..cores).for_each(worker),
            }
        }
        commit_pends(ctx, &mut progress, &mut order);
    }

    // Fold the lanes' scratch counters into the shared stats, in core order.
    for (mem, prot) in &mut lanes {
        ctx.memsys.merge_lane_scratch(mem);
        if let Some(p) = prot {
            ctx.protocol.merge_lane_scratch(p);
        }
    }
}

/// One core's run-ahead, through either run-ahead port: steps ops until one
/// defers, the horizon passes, or the stream ends.  Leaves `pend`
/// describing why it stopped (`Ready` means the horizon).
fn run_ahead<P: Port>(port: &mut P, progress: &mut Progress<'_>, horizon: Cycle) {
    let Progress {
        stream,
        pend,
        segment,
    } = progress;
    if matches!(pend, Pend::Done) {
        return;
    }
    loop {
        let op_start = port.core().now();
        if op_start >= horizon {
            return;
        }
        let Some(op) = stream.next_op() else {
            *pend = Pend::Done;
            return;
        };
        note_segment(port, stream, segment);
        match step_op(&op, port, SyncPolicy::ParkInPlace) {
            StepOutcome::Ran => {}
            StepOutcome::Deferred => {
                *pend = Pend::Op(op, op_start);
                return;
            }
            StepOutcome::FetchDeferred => {
                *pend = Pend::Ifetches {
                    at: port.core().now(),
                    noc_at: op_start,
                };
                return;
            }
            StepOutcome::Parked { .. } => unreachable!("run-ahead parks in place"),
        }
    }
}

/// The serial commit phase: executes every pended deferred op through the
/// [`Full`] port in `(core clock, core id)` order.  Shared by both
/// run-ahead ports, which is what keeps them bit-identical.  `order` is
/// caller scratch, reused across rounds.
fn commit_pends(
    ctx: &mut KernelCtx<'_>,
    progress: &mut [Progress<'_>],
    order: &mut Vec<(Cycle, usize)>,
) {
    order.clear();
    order.extend(
        progress
            .iter()
            .enumerate()
            .filter_map(|(c, p)| match p.pend {
                Pend::Op(_, at) | Pend::Ifetches { at, .. } => Some((at, c)),
                Pend::Ready | Pend::Done => None,
            }),
    );
    order.sort_unstable();
    for &(_, c) in order.iter() {
        match std::mem::replace(&mut progress[c].pend, Pend::Ready) {
            Pend::Op(op, _) => {
                // Deferred ops are never `DmaSync` (it is lane-local), so
                // the inline stall policy can never actually stall here.
                let _ = step_op(
                    &op,
                    &mut Full::new(ctx, CoreId::new(c)),
                    SyncPolicy::StallInline,
                );
            }
            Pend::Ifetches { noc_at, .. } => {
                ctx.memsys.advance_noc(noc_at);
                let _ = finish_op(&mut Full::new(ctx, CoreId::new(c)));
            }
            Pend::Ready | Pend::Done => unreachable!("filtered above"),
        }
    }
}
