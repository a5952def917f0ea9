//! The two clocks the benchmark reads.
//!
//! Pump workloads are timed on the measuring thread's **CPU clock**:
//! the pump is one thread that never waits for anything but the disk,
//! so CPU time is wall time minus what the machine took away
//! (preemption by neighbours, the shared disk's fsync latency) — the
//! part of a run that is a property of the program. Wall-clock values
//! are kept beside them as `loadgen.wall_*` layer metrics.
//!
//! The **pump clock** is the CPU clock minus what [`set_aside`] was
//! given: the CPU the kernel spends inside a `flush_durable()` that
//! does nothing but `fdatasync`. That cost follows the virtual disk
//! (46 µs per sync on a quiet one, 250–330 µs in a busy spell), not
//! the program; what the program decides is how often it syncs, and
//! that is the exact count `store.fsyncs_per_req`.

use std::cell::Cell;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far, ns.
#[inline]
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux, the only target) and the
    // call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

thread_local! {
    static SET_ASIDE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Takes `ns` of this thread's CPU time out of the pump clock.
pub fn set_aside(ns: u64) {
    SET_ASIDE_NS.with(|total| total.set(total.get() + ns));
}

/// The calling thread's CPU time minus everything set aside, ns.
#[inline]
pub fn pump_ns() -> u64 {
    thread_cpu_ns() - SET_ASIDE_NS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_clock_skips_what_is_set_aside() {
        let (cpu, pump) = (thread_cpu_ns(), pump_ns());
        let mut x = 1u64;
        while thread_cpu_ns() - cpu < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        set_aside(1_000_000);
        let (pump_spent, cpu_spent) = (pump_ns() - pump, thread_cpu_ns() - cpu);
        // The pump clock was read inside the CPU clock's interval, so
        // the two differ by the set-aside time plus two clock reads.
        let reads = cpu_spent - pump_spent - 1_000_000;
        assert!(reads < 1_000_000, "clock reads took {reads} ns");
    }

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let start = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - start;
        assert!(slept < 10_000_000, "sleeping 30 ms cost {slept} ns of CPU");
        let start = thread_cpu_ns();
        let mut x = 1u64;
        while thread_cpu_ns() - start < 5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(thread_cpu_ns() - start >= 5_000_000);
    }
}
