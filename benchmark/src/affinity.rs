//! Restricting the process to one CPU, for the workloads whose requests are a
//! single chain of thread hand-offs.
//!
//! With nothing to overlap, a second CPU buys such a workload only the cost
//! of waking a thread on it, and on a small VM that cost is not a property of
//! the program: it flipped between about 5 and 25 µs a hop with where the
//! hypervisor had last put the vCPUs (after a two-core load, `wire_bound`'s
//! p50 read 0.22 ms; a few idle minutes later, 0.11 ms; on one CPU, 0.11 ms
//! both times). One CPU makes every hand-off a context switch.

/// Linux's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts this process — the calling thread, and every thread it spawns
/// from here on — to the lowest-numbered CPU it is allowed, and returns that
/// CPU's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes,
    // which is all sched_getaffinity requires; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find_map(|(word, bits)| (*bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize))
        .ok_or("sched_getaffinity returned an empty set")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the call
    // only reads.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
