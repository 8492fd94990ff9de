//! The benchmark's only clock: every timing in this crate goes through
//! these functions.
//!
//! * [`thread_cpu_s`] — on-CPU seconds of the calling thread, from
//!   `/proc/thread-self/schedstat`. Single-threaded measured loops use
//!   it, so time stolen by other tenants of a shared host is not
//!   counted. Linux advances it at scheduler ticks, so it is only used
//!   around work that lasts much longer than a tick.
//! * [`process_cpu_s`] — on-CPU seconds of the whole process, all
//!   threads, from `/proc/self/stat` (clock-tick resolution). For
//!   anything multi-threaded.
//! * [`wall_ns`] / [`wall_s`] — monotonic wall time since the first
//!   call in this process. Spans and set-up times use it.
//!
//! Where `/proc` is unavailable both CPU clocks fall back to wall time.
//!
//! [`host_speed`] turns on-CPU seconds into reference seconds. On a
//! shared host the same code runs several percent faster or slower from
//! one minute to the next as other tenants load the caches and cores;
//! measured throughput is divided by the speed of a fixed probe loop
//! timed right beside it, which cancels most of that drift.

use std::sync::OnceLock;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since this process first asked for the time.
pub fn wall_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`wall_ns`] in seconds.
pub fn wall_s() -> f64 {
    wall_ns() as f64 / 1e9
}

/// On-CPU seconds consumed by the calling thread.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or_else(wall_s, |ns| ns as f64 / 1e9)
}

/// On-CPU seconds (user + system) consumed by every thread of this
/// process, live or exited.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may contain spaces; the fields
            // after its closing parenthesis start at field 3 (state), so
            // utime (14) and stime (15) sit at offsets 11 and 12.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) as f64 / USER_HZ)
        })
        .unwrap_or_else(wall_s)
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Probe operations per call of [`host_speed`] (about 40 ms).
const PROBE_OPS: u32 = 4_000_000;

/// Probe operations per second that define one reference second: the
/// probe's rate on an unloaded 2.1 GHz Xeon core.
const PROBE_REF_OPS_PER_S: f64 = 1e8;

/// The host's speed right now relative to the reference, from a fixed
/// interpreter-shaped probe: table-driven dispatch over a 4096-entry
/// program with 16 registers and 64 KiB of memory, timed in wall time.
/// One on-CPU second at speed `s` counts as `s` reference seconds.
#[inline(never)]
pub fn host_speed() -> f64 {
    static PROGRAM: OnceLock<Vec<(u8, u8, u8)>> = OnceLock::new();
    let program = PROGRAM.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x & 7) as u8, (x >> 8 & 15) as u8, (x >> 16 & 15) as u8)
            })
            .collect()
    });
    let mut regs = [1u64; 16];
    let mut mem = vec![0u64; 8192];
    let t0 = wall_ns();
    let mut pc = 0usize;
    for _ in 0..PROBE_OPS {
        let (op, a, b) = program[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b].rotate_left(7),
            2 => regs[a] = mem[regs[b] as usize & 8191].wrapping_add(1),
            3 => mem[regs[a] as usize & 8191] = regs[b],
            4 => {
                if regs[a] & 1 == 0 {
                    pc = (pc + b) & 4095;
                }
            }
            5 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            6 => regs[a] = regs[b] >> (regs[a] & 31),
            _ => regs[a] = regs[a].wrapping_sub(regs[b]),
        }
        pc = (pc + 1) & 4095;
    }
    std::hint::black_box((&regs, &mem));
    let secs = (wall_ns() - t0) as f64 / 1e9;
    f64::from(PROBE_OPS) / secs / PROBE_REF_OPS_PER_S
}
