//! Moving the calling thread from CPU to CPU between timed rounds.
//!
//! On a shared virtual machine each CPU is slowed by its own neighbours, in
//! phases of seconds: timed side by side for 90 s, a fixed loop ran at
//! about 60 % speed on one of two CPUs two thirds of the time and on the
//! other a third of the time, but on both at once only a sixth. The single-SoC workloads rotate their rounds over
//! the CPUs the process may use, so one slow CPU cannot set every lap of a
//! run. Where the affinity calls are missing or fail, nothing is pinned.

/// Pins the calling thread to each allowed CPU in turn; restores the
/// thread's original affinity when dropped.
pub struct Rotation {
    original: Option<sys::Mask>,
    cpus: Vec<usize>,
}

impl Rotation {
    /// Reads the CPUs the calling thread may run on.
    #[must_use]
    pub fn new() -> Rotation {
        let original = sys::get();
        let cpus = original.as_ref().map_or_else(Vec::new, sys::cpus);
        Rotation { original, cpus }
    }

    /// The CPUs rounds rotate over (empty or one: no rotation).
    #[must_use]
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Pins the calling thread to the CPU for `turn` (`turn` modulo the
    /// number of allowed CPUs). A no-op with fewer than two CPUs.
    pub fn pin(&self, turn: u64) {
        if self.cpus.len() >= 2 {
            let cpu = self.cpus[(turn % self.cpus.len() as u64) as usize];
            sys::set(&sys::only(cpu));
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if let (Some(m), true) = (&self.original, self.cpus.len() >= 2) {
            sys::set(m);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// A CPU set of 1024 bits, as glibc's `cpu_set_t`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's affinity mask.
    pub fn get() -> Option<Mask> {
        let mut m: Mask = [0; 16];
        // SAFETY: `m` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
        (rc == 0).then_some(m)
    }

    /// Sets the calling thread's affinity mask; false when refused.
    pub fn set(m: &Mask) -> bool {
        // SAFETY: `m` is a readable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(m), m.as_ptr()) == 0 }
    }

    /// The CPUs set in `m`, ascending.
    pub fn cpus(m: &Mask) -> Vec<usize> {
        (0..m.len() * 64)
            .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The mask holding only `cpu`.
    pub fn only(cpu: usize) -> Mask {
        let mut m: Mask = [0; 16];
        m[cpu / 64] |= 1 << (cpu % 64);
        m
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type Mask = ();
    pub fn get() -> Option<Mask> {
        None
    }
    pub fn set(_: &Mask) -> bool {
        false
    }
    pub fn cpus(_: &Mask) -> Vec<usize> {
        Vec::new()
    }
    pub fn only(_: usize) -> Mask {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip() {
        assert_eq!(sys::cpus(&sys::only(0)), vec![0]);
        assert_eq!(sys::cpus(&sys::only(70)), vec![70]);
    }

    #[test]
    fn rotation_pins_and_restores() {
        let before = sys::get().expect("affinity readable");
        {
            let r = Rotation::new();
            assert!(!r.cpus().is_empty());
            r.pin(1);
            if r.cpus().len() >= 2 {
                assert_eq!(sys::cpus(&sys::get().unwrap()), vec![r.cpus()[1]]);
            }
        }
        assert_eq!(sys::get().unwrap(), before);
    }
}
