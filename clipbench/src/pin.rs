//! Pin the benchmark process to one CPU.
//!
//! On a small VM that shares its host, a thread that hands work to another
//! on a second virtual CPU waits for the hypervisor to run that CPU, and
//! how long depends on the neighbours' load. On a 2-vCPU KVM guest the
//! two-thread paths (`fleet`'s execute fan-out, the Oracle's candidate
//! sweep) swung up to two-fold between runs for that reason alone, and ran
//! slower than on one CPU. Pinned, the program's threads time-share one
//! CPU: thread start-up and hand-off costs still count, the neighbours'
//! wake-up latency does not, and no parallel speed-up can show.

/// glibc's `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread, and every thread it starts later, to the CPU
/// it runs on now. Returns that CPU, or `None` if pinning failed. Call
/// before starting any thread.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU
    // number; a negative return reports failure and is handled below.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut set = CpuSet([0; 16]);
    *set.0.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `set` is an initialised buffer of exactly `cpusetsize` bytes
    // that outlives the call, which only reads it; pid 0 is the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}
