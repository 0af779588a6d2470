//! The few operating-system facts the benchmark needs: CPU pinning, process
//! CPU time and peak resident memory (Linux).

use std::time::Duration;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// glibc's `mallopt` parameter for the arena count.
const M_ARENA_MAX: i32 = -8;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes every thread allocate from one malloc arena. With an arena per
/// thread, which arena each short-lived runtime thread lands in — and so the
/// process's peak resident memory — changed from run to run. Returns whether
/// the allocator accepted the setting.
pub fn single_malloc_arena() -> bool {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called before
    // the process starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Pins the calling thread — and so every thread it spawns afterwards — to
/// the lowest CPU it may run on. Returns that CPU, or `None` if the mask
/// could not be read or set (the run then continues unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// CPU time consumed so far by all threads of this process.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always available");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_time() > before);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb().expect("Linux reports VmHWM") > 0.0);
    }
}
