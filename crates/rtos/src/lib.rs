//! # cheriot-rtos — the CHERIoT RTOS model
//!
//! The co-designed software half of the platform (paper §2.6, §5): mutually
//! distrusting **compartments** statically linked into one image,
//! **threads** orthogonal to compartments, a trusted **switcher** that is
//! the only fully-trusted code (stack chopping, zeroing, local/global
//! enforcement, trusted-stack activation frames), the shared **heap
//! allocator** exposed as a compartment service, and a priority scheduler
//! whose idle time feeds the background revoker.
//!
//! ## Example
//!
//! ```
//! use cheriot_rtos::{Rtos, ALLOC_STACK_USE};
//! use cheriot_alloc::{TemporalPolicy, RevokerKind};
//! use cheriot_core::{Machine, MachineConfig, CoreModel};
//!
//! let machine = Machine::new(MachineConfig::new(CoreModel::ibex()));
//! let mut rtos = Rtos::new(machine, TemporalPolicy::Quarantine(RevokerKind::Hardware));
//! let app = rtos.add_compartment("app", 256);
//! let t = rtos.spawn_thread(1, 4096, app);
//!
//! // Applications reach the heap through a cross-compartment call:
//! let buf = rtos.malloc(t, 128)?;
//! rtos.free(t, buf)?;
//! # Ok::<(), cheriot_alloc::AllocError>(())
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod compartment;
pub mod guest_boot;
pub mod guest_switcher;
pub mod kernel;
pub mod queue;
pub mod sealing;
pub mod semihost;
pub mod switcher;
pub mod thread;

pub use audit::{AuditReport, ImportEdge};
pub use compartment::{Compartment, CompartmentId, Export, ExportPosture};
pub use guest_boot::{assert_no_root_authority, build_boot, BootTarget};
pub use guest_switcher::{guest_compartment, GuestCompartment, GuestSwitcher};
pub use kernel::{Env, Quota, Rtos, SchedStats, Slice, ThreadBody, ALLOC_STACK_USE};
pub use queue::{BadBuffer, MessageQueue, QueueError};
pub use sealing::{SealError, SealingKey, SealingService};
pub use semihost::run_with_heap_service;
pub use switcher::{SwitchStats, Switcher};
pub use thread::{Thread, ThreadId, ThreadState};
