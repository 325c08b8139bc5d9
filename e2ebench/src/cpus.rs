//! Spreads a closed-loop reader over every CPU the process may use.
//!
//! On a shared host the CPUs of one machine need not run at one speed:
//! a CPU whose sibling hyperthread is busy runs slower. A reader left
//! where the scheduler placed it measures that one CPU for the whole
//! run, so runs differ by the CPU they drew. Moving the reader
//! round-robin at fixed query counts makes every measured group of
//! queries the same mix of CPUs.

/// A `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size
        // passed; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// Round-robin placement of the calling thread over the CPUs it was
/// allowed when created: one CPU per `per / CPUs` ticks, so that every
/// `per` consecutive ticks run the same share on each CPU. Dropping it
/// restores the thread's mask.
///
/// A thread that spawns threads does so inside [`Spread::unpinned`]: a
/// spawned thread inherits the one-CPU mask (a commit's per-shard
/// threads would then share one CPU).
pub struct Spread {
    original: Option<Mask>,
    cpus: Vec<usize>,
    stride: usize,
    ticks: usize,
    next: usize,
}

impl Spread {
    pub fn new(per: usize) -> Spread {
        let original = sys::get();
        let cpus: Vec<usize> = original.map_or(Vec::new(), |mask| {
            (0..mask.len() * 64)
                .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
                .collect()
        });
        let mut spread = Spread {
            original,
            stride: (per / cpus.len().max(1)).max(1),
            cpus,
            ticks: 0,
            next: 0,
        };
        spread.step();
        spread
    }

    /// Counts one unit of work, moving on at every stride.
    pub fn tick(&mut self) {
        self.ticks += 1;
        if self.ticks.is_multiple_of(self.stride) {
            self.step();
        }
    }

    /// Runs `f` with the thread's original mask, so that the threads `f`
    /// spawns (a commit's per-shard threads) may use every CPU, then
    /// returns the thread to the CPU it was on.
    pub fn unpinned<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let Some(mask) = self.original.filter(|_| self.cpus.len() >= 2) else {
            return f();
        };
        sys::set(&mask);
        let result = f();
        self.next -= 1;
        self.step();
        result
    }

    /// Moves the calling thread to the next CPU in turn.
    fn step(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        sys::set(&mask);
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        if let (Some(mask), true) = (self.original, self.cpus.len() >= 2) {
            sys::set(&mask);
        }
    }
}
