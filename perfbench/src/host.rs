//! Readings of the host and of the processes under test, straight from
//! `/proc` and `getrusage(2)` (hand-declared: the workspace takes no libc
//! crate).

use std::time::Instant;

extern "C" {
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;
const SIGKILL: i32 = 9;

/// CPU time and peak RSS of every waited-for child process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    pub cpu_s: f64,
    /// Largest `ru_maxrss` of any child, in KiB.
    pub maxrss_kib: i64,
}

pub fn children_usage() -> ChildUsage {
    // struct rusage on LP64 Linux: two timevals, then 14 longs.
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is exactly the size of `struct rusage` on LP64 Linux.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        return ChildUsage::default();
    }
    ChildUsage {
        cpu_s: ru[0] as f64 + ru[1] as f64 * 1e-6 + ru[2] as f64 + ru[3] as f64 * 1e-6,
        maxrss_kib: ru[4],
    }
}

/// Send SIGKILL to `pid` (a child that overran its deadline).
pub fn kill_pid(pid: u32) {
    // SAFETY: plain syscall wrapper; a stale pid fails harmlessly.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// CPU seconds of process `pid`, summed over its live threads from
/// `/proc/<pid>/task/*/schedstat` (nanosecond resolution); falls back to the
/// tick-resolution user + system time of `/proc/<pid>/stat`.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let from_schedstat = || -> Option<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
            let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(ns as f64 * 1e-9)
    };
    from_schedstat().or_else(|| process_stat_cpu_s(pid))
}

fn process_stat_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12th and 13th after `comm`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some((utime + stime) / hz)
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn process_hwm_kib(pid: u32) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Hypervisor steal ticks summed over all CPUs (`/proc/stat`, `cpu` line).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Milliseconds taken by a fixed integer loop in this process: a probe of
/// how fast the host runs right now, independent of the program under test.
fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// One host-condition reading, taken before and after a workload.
#[derive(Debug, Clone, Copy)]
pub struct HostReading {
    pub steal_ticks: u64,
    pub calibration_ms: f64,
}

pub fn reading() -> HostReading {
    HostReading {
        steal_ticks: steal_ticks(),
        calibration_ms: calibration_ms(),
    }
}
