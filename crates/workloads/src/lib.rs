//! # cheriot-workloads — evaluation workloads
//!
//! The three workloads of the paper's evaluation (§7.2): the CoreMark-like
//! kernel mix ([`coremark`], Table 3), the allocation microbenchmark
//! ([`allocbench`], Table 4 / Figures 5–6), and the end-to-end
//! compartmentalized IoT application ([`iot`], §7.2.3).

#![warn(missing_docs)]

pub mod allocbench;
pub mod coremark;
pub mod iot;
pub mod soc_demo;

pub use allocbench::{
    overhead_pct, run_alloc_bench, AllocBenchParams, AllocBenchResult, AllocConfig,
};
pub use coremark::{
    run_coremark, run_coremark_for_cycles_dispatch, CoreMarkConfig, CoreMarkResult, DispatchMode,
    PtrMode,
};
pub use iot::{run_iot_app, IotConfig, IotReport};
pub use soc_demo::{
    expected_checksum, run_soc_demo, soc_demo_program, SocDemoLayout, SocDemoReport,
};
