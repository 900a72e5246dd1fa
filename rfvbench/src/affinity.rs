//! CPU affinity of the calling thread, for the one workload with two
//! client threads.
//!
//! On the two-vCPU hosts this benchmark runs on, the kernel sometimes
//! leaves both client threads of `ingest_storm` on one CPU for minutes
//! while the other idles, and then spreads them again: the writer's
//! latency reads 34 ms in one state and 60 ms in the other, on the same
//! code. Each client thread is therefore pinned to a CPU of its own, so
//! what the workload measures is contention for the table, not the
//! scheduler's placement.

/// The 1024-bit `cpu_set_t` of the C library std already links.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; empty where that cannot be
/// read.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`; threads it spawns afterwards
/// inherit the restriction. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) } == 0
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_and_restores_the_calling_thread() {
        std::thread::spawn(|| {
            let before = allowed();
            assert!(!before.is_empty());
            let last = *before.last().unwrap();
            assert!(pin(&[last]));
            assert_eq!(allowed(), vec![last]);
            assert!(pin(&before));
            assert_eq!(allowed(), before);
            assert!(!pin(&[]));
        })
        .join()
        .unwrap();
    }
}
