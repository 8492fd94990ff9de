//! The RTOS kernel: system image construction (loader), the
//! cross-compartment call facade, the shared-heap service, and the
//! priority scheduler.

use crate::compartment::{Compartment, CompartmentId, ExportPosture};
use crate::switcher::Switcher;
use crate::thread::{Frame, Thread, ThreadId, ThreadState};
use cheriot_alloc::{AllocError, HeapAllocator, TemporalPolicy};
use cheriot_cap::Capability;
use cheriot_core::trace::EventKind;
use cheriot_core::{layout, Machine, TrapCause};

/// Stack bytes the allocator compartment's entry points dirty per call
/// (drives the switcher's return-path zeroing for `malloc`/`free`).
pub const ALLOC_STACK_USE: u32 = 160;

/// Scheduler statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Cycles spent executing threads (including switcher and allocator).
    pub busy_cycles: u64,
    /// Cycles spent in the idle thread (`wfi`).
    pub idle_cycles: u64,
    /// Thread context switches performed.
    pub context_switches: u64,
}

impl SchedStats {
    /// Fraction of time the CPU was busy (the paper's §7.2.3 "CPU load").
    pub fn cpu_load(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// What a thread body does with its time slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slice {
    /// Runnable again immediately (preemption point).
    Yield,
    /// Sleep for the given number of cycles.
    Sleep(u64),
    /// The thread is finished.
    Done,
}

/// A native thread body: called with the RTOS at every scheduling slice,
/// runs until its next blocking point, and reports how it blocked.
///
/// (This cooperative slicing stands in for preemptive execution of guest
/// code; scheduling decisions and costs are modelled at slice boundaries.)
pub trait ThreadBody {
    /// Runs until the next blocking point.
    fn run_slice(&mut self, rtos: &mut Rtos, me: ThreadId) -> Slice;
}

/// The execution environment a compartment entry point receives.
#[derive(Debug)]
pub struct Env<'a> {
    /// The machine, for metered memory access.
    pub machine: &'a mut Machine,
    /// The shared heap (the allocator compartment's state).
    pub heap: &'a mut HeapAllocator,
    /// The calling thread.
    pub thread: &'a mut Thread,
    /// The compartment being executed.
    pub compartment: CompartmentId,
    /// The compartment's globals capability (no SL).
    pub cgp: Capability,
    /// The chopped stack capability (local, SL).
    pub stack_cap: Capability,
}

impl Env<'_> {
    /// Declares additional stack usage by the running entry point (drives
    /// the high-water mark).
    pub fn touch_stack(&mut self, bytes: u32) {
        self.thread.touch_stack(bytes);
    }
}

/// The RTOS: machine + allocator + compartments + threads + switcher.
#[derive(Debug)]
pub struct Rtos {
    /// The simulated SoC.
    pub machine: Machine,
    /// The shared heap allocator (runs in its own compartment).
    pub heap: HeapAllocator,
    /// The trusted switcher.
    pub switcher: Switcher,
    /// Scheduler statistics.
    pub sched: SchedStats,
    compartments: Vec<Compartment>,
    threads: Vec<Thread>,
    alloc_comp: CompartmentId,
    bump: u32,
    code_bump: u32,
    last_ran: Option<ThreadId>,
    rr_cursor: usize,
    import_edges: Vec<crate::audit::ImportEdge>,
    quotas: std::collections::HashMap<usize, Quota>,
    owners: std::collections::HashMap<u32, (usize, u32)>,
}

/// Per-compartment allocation quota state (the allocator-capability model:
/// each compartment's right to allocate is itself a capability with a
/// byte budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quota {
    /// Maximum bytes (chunk sizes, header included) this compartment may
    /// hold at once.
    pub limit: u32,
    /// Bytes currently held.
    pub used: u32,
}

impl Rtos {
    /// Boots an RTOS image on `machine` with the given heap policy.
    ///
    /// The loader reserves the region below the heap for compartment
    /// globals and thread stacks, and creates the allocator compartment.
    pub fn new(mut machine: Machine, policy: TemporalPolicy) -> Rtos {
        let heap = HeapAllocator::new(&mut machine, policy);
        let mut rtos = Rtos {
            machine,
            heap,
            switcher: Switcher::default(),
            sched: SchedStats::default(),
            compartments: Vec::new(),
            threads: Vec::new(),
            alloc_comp: CompartmentId(0),
            bump: layout::SRAM_BASE + 0x100,
            code_bump: layout::CODE_BASE + layout::CODE_SIZE / 2,
            last_ran: None,
            rr_cursor: 0,
            import_edges: Vec::new(),
            quotas: std::collections::HashMap::new(),
            owners: std::collections::HashMap::new(),
        };
        let alloc_comp = rtos.add_compartment("allocator", 512);
        rtos.alloc_comp = alloc_comp;
        rtos
    }

    /// Current machine time.
    pub fn now(&self) -> u64 {
        self.machine.cycles
    }

    // --- loader -----------------------------------------------------------

    fn bump_alloc(&mut self, size: u32, align: u32) -> u32 {
        let addr = self.bump.next_multiple_of(align);
        let end = addr + size;
        assert!(
            end <= self.machine.cfg().heap_base(),
            "loader: globals/stacks collide with the heap"
        );
        self.bump = end;
        addr
    }

    /// Adds a compartment with a globals region of `globals_size` bytes.
    /// Native compartments get an address-space slice of the code region
    /// for their PCC even though their code is modelled natively.
    pub fn add_compartment(&mut self, name: &str, globals_size: u32) -> CompartmentId {
        let gaddr = self.bump_alloc(globals_size.max(8).next_multiple_of(8), 8);
        let globals = Capability::root_mem_rw()
            .with_address(gaddr)
            .set_bounds(u64::from(globals_size.max(8).next_multiple_of(8)))
            .expect("globals representable");
        let code_size = 0x1000;
        let code = Capability::root_executable()
            .with_address(self.code_bump)
            .set_bounds(u64::from(code_size))
            .expect("code slice representable");
        self.code_bump += code_size;
        let mut comp = Compartment::new(name, code, globals);
        // Every compartment exports a default entry point.
        comp.export("entry", 0, ExportPosture::Enabled);
        self.compartments.push(comp);
        let id = CompartmentId(self.compartments.len() - 1);
        if let Some(t) = self.machine.tracer_mut() {
            t.metrics.set_comp_name(id.0 as u32, name);
        }
        id
    }

    /// Access to a compartment's image (exports, capabilities).
    pub fn compartment(&self, id: CompartmentId) -> &Compartment {
        &self.compartments[id.0]
    }

    /// Mutable access (for declaring exports).
    pub fn compartment_mut(&mut self, id: CompartmentId) -> &mut Compartment {
        &mut self.compartments[id.0]
    }

    /// Iterates over compartments (audit support).
    pub fn compartments_iter(&self) -> impl Iterator<Item = &Compartment> {
        self.compartments.iter()
    }

    /// Recorded import edges (audit support).
    pub fn import_edges(&self) -> &[crate::audit::ImportEdge] {
        &self.import_edges
    }

    pub(crate) fn record_import(&mut self, edge: crate::audit::ImportEdge) {
        self.import_edges.push(edge);
    }

    /// Creates a thread with its own stack, starting in `compartment`.
    pub fn spawn_thread(
        &mut self,
        priority: u8,
        stack_size: u32,
        compartment: CompartmentId,
    ) -> ThreadId {
        let size = stack_size.next_multiple_of(16).max(256);
        let base = self.bump_alloc(size, 16);
        let id = ThreadId(self.threads.len());
        self.threads
            .push(Thread::new(id, priority, base, base + size, compartment));
        if let Some(t) = self.machine.tracer_mut() {
            t.metrics
                .set_thread_name(id.0 as u32, &format!("thread{} (prio {priority})", id.0));
        }
        id
    }

    /// A thread's control block.
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id.0]
    }

    // --- cross-compartment calls -------------------------------------------

    /// Performs a cross-compartment call from `tid`'s current compartment
    /// into `to`, running `f` as the callee's entry point.
    ///
    /// The switcher seals the return state on the trusted stack, chops and
    /// zeroes the stack per the high-water mark, and on return destroys the
    /// callee's stack residue. `callee_stack_use` is the callee's frame
    /// footprint (drives return-path zeroing).
    ///
    /// # Errors
    ///
    /// Propagates switcher traps (corrupted thread state).
    pub fn cross_call<R>(
        &mut self,
        tid: ThreadId,
        to: CompartmentId,
        callee_stack_use: u32,
        f: impl FnOnce(&mut Env<'_>) -> R,
    ) -> Result<R, TrapCause> {
        // An unknown compartment or thread id means a forged/corrupted
        // export-table entry: the real switcher would take a seal fault on
        // the import sentry, so model that rather than panicking.
        if to.0 >= self.compartments.len() || tid.0 >= self.threads.len() {
            return Err(TrapCause::Cheri {
                fault: cheriot_cap::CapFault::SealViolation,
                reg: cheriot_core::trap::PCC_REG_INDEX,
            });
        }
        let hwm = self.machine.cfg().hwm_enabled;
        let t = &mut self.threads[tid.0];
        let frame = Frame {
            caller: t.compartment,
            sp_at_call: t.sp,
            interrupts_at_call: self.machine.cpu.interrupts_enabled,
        };
        self.machine.trace_emit(EventKind::CompartmentEnter {
            thread: tid.0 as u32,
            from: frame.caller.0 as u32,
            to: to.0 as u32,
        });
        self.switcher.on_call(&mut self.machine, t, hwm)?;
        t.frames.push(frame);
        t.compartment = to;
        t.touch_stack(callee_stack_use);
        let stack_cap = t.chopped_stack();
        let cgp = self.compartments[to.0].cgp;
        let result = {
            let mut env = Env {
                machine: &mut self.machine,
                heap: &mut self.heap,
                thread: t,
                compartment: to,
                cgp,
                stack_cap,
            };
            f(&mut env)
        };
        let fr = t.frames.pop().expect("frame pushed above");
        self.switcher.on_return(&mut self.machine, t, hwm)?;
        t.compartment = fr.caller;
        t.sp = fr.sp_at_call;
        self.machine.trace_emit(EventKind::CompartmentExit {
            thread: tid.0 as u32,
            from: fr.caller.0 as u32,
            to: to.0 as u32,
        });
        Ok(result)
    }

    /// A cross-compartment call whose callee may fault.
    ///
    /// This is the compartmentalization headline (paper §2.2): a CHERI trap
    /// inside the callee is caught by the switcher, which unwinds the
    /// trusted-stack frame, zeroes the callee's stack residue, and returns
    /// an error to the *caller* — the fault's blast radius is one
    /// compartment invocation, not the system.
    ///
    /// # Errors
    ///
    /// Returns the callee's fault; the calling thread and every other
    /// compartment remain fully operational.
    pub fn try_call<R>(
        &mut self,
        tid: ThreadId,
        to: CompartmentId,
        callee_stack_use: u32,
        f: impl FnOnce(&mut Env<'_>) -> Result<R, TrapCause>,
    ) -> Result<R, TrapCause> {
        match self.cross_call(tid, to, callee_stack_use, f) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(fault)) => {
                // The switcher's forced-unwind path: trap entry, error
                // handler dispatch, and the (already-performed by
                // cross_call's return path) stack zeroing. Charge the trap
                // round-trip.
                self.switcher.forced_unwinds += 1;
                let flush = self.machine.cfg().core.branch_taken_penalty + 1;
                self.machine.advance(40 + 2 * flush, 6);
                Err(fault)
            }
            Err(switcher_fault) => Err(switcher_fault),
        }
    }

    /// Grants `compartment` an allocation quota of `limit` bytes (counted
    /// in chunk sizes, header included). Compartments without a quota may
    /// allocate freely.
    pub fn set_allocation_quota(&mut self, compartment: CompartmentId, limit: u32) {
        self.quotas.insert(compartment.0, Quota { limit, used: 0 });
    }

    /// The quota state of a compartment, if one was set.
    pub fn quota(&self, compartment: CompartmentId) -> Option<Quota> {
        self.quotas.get(&compartment.0).copied()
    }

    /// `malloc` as seen by application compartments: a cross-compartment
    /// call into the allocator compartment. Enforces the calling
    /// compartment's allocation quota, when set.
    ///
    /// # Errors
    ///
    /// Allocator errors ([`AllocError::QuotaExceeded`] when over budget),
    /// or a wrapped trap if the switcher faulted.
    pub fn malloc(&mut self, tid: ThreadId, len: u32) -> Result<Capability, AllocError> {
        let comp = self.alloc_comp;
        let caller = self.threads[tid.0].compartment;
        let cap = self
            .cross_call(tid, comp, ALLOC_STACK_USE, |env| {
                env.heap.malloc(env.machine, len)
            })
            .map_err(AllocError::Trap)??;
        let chunk = self.heap.allocation_size(cap.base()).unwrap_or(len);
        if let Some(q) = self.quotas.get_mut(&caller.0) {
            if q.used + chunk > q.limit {
                // Over budget: the allocator service rolls the allocation
                // back and reports the quota failure.
                let comp = self.alloc_comp;
                self.cross_call(tid, comp, ALLOC_STACK_USE, |env| {
                    env.heap.free(env.machine, cap)
                })
                .map_err(AllocError::Trap)??;
                return Err(AllocError::QuotaExceeded);
            }
            q.used += chunk;
        }
        self.owners.insert(cap.base(), (caller.0, chunk));
        Ok(cap)
    }

    /// `free` as seen by application compartments.
    ///
    /// # Errors
    ///
    /// As [`Rtos::malloc`].
    pub fn free(&mut self, tid: ThreadId, cap: Capability) -> Result<(), AllocError> {
        let comp = self.alloc_comp;
        self.cross_call(tid, comp, ALLOC_STACK_USE, |env| {
            env.heap.free(env.machine, cap)
        })
        .map_err(AllocError::Trap)??;
        if let Some((owner, chunk)) = self.owners.remove(&cap.base()) {
            if let Some(q) = self.quotas.get_mut(&owner) {
                q.used = q.used.saturating_sub(chunk);
            }
        }
        Ok(())
    }

    // --- scheduler -----------------------------------------------------------

    fn pick_ready(&mut self) -> Option<ThreadId> {
        let best_prio = self
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::Ready)
            .map(|t| t.priority)
            .max()?;
        // Round-robin among equal-priority ready threads.
        let n = self.threads.len();
        for i in 0..n {
            let idx = (self.rr_cursor + i) % n;
            let t = &self.threads[idx];
            if t.state == ThreadState::Ready && t.priority == best_prio {
                self.rr_cursor = (idx + 1) % n;
                return Some(ThreadId(idx));
            }
        }
        None
    }

    fn wake_sleepers(&mut self) {
        let now = self.machine.cycles;
        for t in &mut self.threads {
            if let ThreadState::Sleeping { until } = t.state {
                if until <= now {
                    t.state = ThreadState::Ready;
                }
            }
        }
    }

    /// Runs the scheduler until `until_cycle`, slicing the given thread
    /// bodies. Idle time (no thread ready) is spent in `wfi`: the
    /// background revoker receives every idle load/store slot.
    pub fn run_threads(
        &mut self,
        bodies: &mut [(ThreadId, Box<dyn ThreadBody + '_>)],
        until_cycle: u64,
    ) {
        while self.machine.cycles < until_cycle {
            self.wake_sleepers();
            match self.pick_ready() {
                Some(tid) => {
                    if self.last_ran != Some(tid) {
                        self.sched.context_switches += 1;
                        let hwm = self.machine.cfg().hwm_enabled;
                        let t0 = self.machine.cycles;
                        self.switcher.context_switch(&mut self.machine, hwm);
                        self.sched.busy_cycles += self.machine.cycles - t0;
                        self.last_ran = Some(tid);
                        self.machine.trace_emit(EventKind::ThreadSwitch {
                            thread: tid.0 as u32,
                            compartment: self.threads[tid.0].compartment.0 as u32,
                        });
                    }
                    let body = bodies.iter_mut().find(|(id, _)| *id == tid);
                    let Some((_, body)) = body else {
                        // No body registered: park the thread.
                        self.threads[tid.0].state = ThreadState::Finished;
                        continue;
                    };
                    let t0 = self.machine.cycles;
                    let slice = body.run_slice(self, tid);
                    let spent = self.machine.cycles - t0;
                    self.sched.busy_cycles += spent;
                    self.threads[tid.0].busy_cycles += spent;
                    self.threads[tid.0].state = match slice {
                        Slice::Yield => ThreadState::Ready,
                        Slice::Sleep(d) => ThreadState::Sleeping {
                            until: self.machine.cycles + d,
                        },
                        Slice::Done => ThreadState::Finished,
                    };
                }
                None => {
                    // Idle: advance to the next wake-up (or the horizon).
                    let next_wake = self
                        .threads
                        .iter()
                        .filter_map(|t| match t.state {
                            ThreadState::Sleeping { until } => Some(until),
                            _ => None,
                        })
                        .min();
                    let Some(target) = next_wake else {
                        // Everything finished.
                        return;
                    };
                    let target = target.min(until_cycle);
                    let now = self.machine.cycles;
                    if target > now {
                        // The idle thread sits in wfi; all slots are idle.
                        self.machine.advance(target - now, 0);
                        self.sched.idle_cycles += target - now;
                    }
                }
            }
        }
    }
}
