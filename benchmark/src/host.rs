//! Facts about the host and the build: cores, peak memory, commit,
//! toolchain; and pinning a thread to CPUs.

use std::path::Path;

/// Cores the process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The compiler that built this binary.
pub fn toolchain() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// The checked-out commit, read from `.git` under `root` when there is
/// one; `"unknown"` otherwise (an exported source tree has no history).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => {
            if let Ok(id) = std::fs::read_to_string(git.join(name)) {
                return id.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
                .unwrap_or_else(|| "unknown".to_string())
        }
    }
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty when the
/// host does not say).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed,
    // and sched_getaffinity writes only into it (pid 0: this thread).
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..16 * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restrict the calling thread to `cpus`. Returns whether it took; an
/// empty list changes nothing.
#[cfg(target_os = "linux")]
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask == [0; 16] {
        return false;
    }
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed, which
    // sched_setaffinity only reads (pid 0: this thread).
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// CPU affinity is only read on Linux.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// CPU affinity is only set on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_cpus: &[usize]) -> bool {
    false
}

/// Peak resident set size of this process so far, in MB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (user and
    // system time) followed by fourteen longs, the first of which is
    // `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Peak resident set size is only read on Linux.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_grows_with_allocation() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        let after = peak_rss_mb();
        assert!(after >= before + 32.0, "{before} -> {after}");
        assert_eq!(block.iter().map(|&b| usize::from(b)).sum::<usize>(), 64 << 20);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_thread_can_be_pinned_to_each_allowed_cpu_and_back() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            for &cpu in &cpus {
                assert!(pin_thread(&[cpu]));
                assert_eq!(allowed_cpus(), vec![cpu]);
            }
            assert!(pin_thread(&cpus));
            assert_eq!(allowed_cpus(), cpus);
            assert!(!pin_thread(&[]));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn commit_is_unknown_outside_a_repository() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(commit(&dir), "unknown");
    }
}
