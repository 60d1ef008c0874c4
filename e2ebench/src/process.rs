//! Settings of the benchmark's own process that keep `wire_kv` steady.
//!
//! `wire_kv` runs seven threads (two clients, the server's acceptor, two
//! connection readers and one worker, and the main thread), more than a
//! small machine has CPUs. Left to float, each statement's four hand-offs
//! between threads wake threads on another CPU or on the same one by
//! chance, and a whole run settles into a fast or a slow placement:
//! throughput and tail latency then measure the scheduler, not the
//! program. On one CPU every hand-off is a context switch on the same run
//! queue, so a run measures the cost of the statement path itself.
//!
//! With one heap per thread, as the C library's allocator gives threads
//! by default, the workload's peak memory depends on which heaps its
//! threads happen to share, and varied by 9% between runs; with one heap
//! for all threads it repeats within 0.3%.

/// Restricts the calling thread, and so every thread it starts
/// afterwards, to the last CPU it may run on. Where the affinity cannot
/// be read or set, the workload runs unpinned.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() {
    // A `cpu_set_t` of 1,024 bits, as glibc defines it.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) };
}

/// Elsewhere the workload runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() {}

/// Makes every thread started afterwards allocate from the main heap
/// (glibc's `M_ARENA_MAX` of 1). Call it before the first thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
pub fn one_heap() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

/// Elsewhere threads keep the allocator's default heaps.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_heap() {}
