//! Core pinning by inheritance.
//!
//! The server and the load generator must not share a core, or every sample
//! carries scheduler noise (closed-loop p50 is bimodal 109 / 170 µs unpinned
//! on the 2-core reference box). `Server::spawn` takes no affinity argument
//! and must not grow one for the benchmark's sake, so the main thread pins
//! *itself* to the server cores around each spawn — acceptor, coalescer and
//! the per-connection readers the acceptor starts all inherit that mask —
//! and sits on the generator core the rest of the time.
//!
//! Each server core also gets an *idle-priority spinner*: a thread under
//! `SCHED_IDLE` that runs only when nothing else on the core can, so the
//! virtual CPU never halts. On the reference box (a KVM guest with adaptive
//! halt polling) a halted core wakes through the hypervisor, and whether it
//! halts flips with the polling window on a scale of seconds to minutes:
//! without the spinner the same closed loop reads a p50 of 122 µs or 145 µs,
//! the saturation probe 300k or 210k req/s, in about half of all runs. With
//! it the slow reading is left to the episodes in which the host is really
//! busy. It is the guest-side equivalent of booting with `idle=poll`.
//!
//! Linux only: the syscalls are declared by hand (`std` already links
//! libc), same style as `cdrib_tensor::mmap`. Anywhere else, with one
//! allowed core, or when a call fails, the run is unpinned and says so.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bits in the kernel's `cpu_set_t`.
#[cfg(target_os = "linux")]
const CPU_SET_BITS: usize = 1024;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE`: below every nice level, preempted on any wake-up.
#[cfg(target_os = "linux")]
const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to the idle scheduling class; false when that
/// failed (or cannot be asked for here).
fn demote_current_thread_to_idle() -> bool {
    #[cfg(target_os = "linux")]
    {
        // `struct sched_param` is one int, and `SCHED_IDLE` wants it zero.
        let priority = 0i32;
        // SAFETY: `priority` outlives the call and has the layout of
        // `struct sched_param`; pid 0 names the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Idle-priority spinners, one per server core, stopped and joined on drop.
#[derive(Debug)]
struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts one spinner per core of `cores`; `None` when any of them could
    /// not be pinned and demoted (a spinner at normal priority would take the
    /// core from the server).
    fn start(cores: &[usize]) -> Option<Spinners> {
        let mut spinners = Spinners {
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::with_capacity(cores.len()),
        };
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        for &core in cores {
            let (stop, ready) = (spinners.stop.clone(), ready_tx.clone());
            spinners.threads.push(std::thread::spawn(move || {
                let ok = pin_current_thread(&[core]) && demote_current_thread_to_idle();
                let _ = ready.send(ok);
                // `stop` publishes nothing but itself.
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
        }
        let all_ok = (0..cores.len()).all(|_| ready_rx.recv() == Ok(true));
        all_ok.then_some(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The cores this thread may run on, ascending; empty when unknown.
fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_BITS / 64];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..CPU_SET_BITS)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread to `cpus`; false when that failed.
fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_BITS / 64];
        for &c in cpus.iter().filter(|&&c| c < CPU_SET_BITS) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        !cpus.is_empty() && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Which cores the server threads and the generator thread own.
#[derive(Debug)]
pub struct Pinning {
    server: Vec<usize>,
    generator: Vec<usize>,
    /// Keeps the server cores from halting while the run lasts.
    spinners: Option<Spinners>,
    /// Cores the process may use.
    pub nproc: usize,
    /// Whether the split is in force. When false the generator yields
    /// between polls instead of spinning against the server.
    pub pinned: bool,
}

impl Pinning {
    /// Splits the allowed cores — every core but the last for the server,
    /// the last for the generator — and moves the calling (main) thread to
    /// the generator core.
    pub fn establish() -> Pinning {
        let cpus = allowed_cpus();
        let nproc = cpus
            .len()
            .max(std::thread::available_parallelism().map_or(1, |n| n.get()));
        if cpus.len() < 2 {
            return Pinning {
                server: cpus.clone(),
                generator: cpus,
                spinners: None,
                nproc,
                pinned: false,
            };
        }
        let (server, generator) = cpus.split_at(cpus.len() - 1);
        let mut pinning = Pinning {
            server: server.to_vec(),
            generator: generator.to_vec(),
            spinners: None,
            nproc,
            pinned: true,
        };
        pinning.pinned = pin_current_thread(&pinning.generator);
        if pinning.pinned {
            pinning.spinners = Spinners::start(&pinning.server);
        }
        pinning
    }

    /// Whether every server core has its idle-priority spinner.
    pub fn spinning(&self) -> bool {
        self.spinners.is_some()
    }

    /// Runs `spawn` with the calling thread on the server cores, so every
    /// thread it starts (and every thread those start) inherits them, then
    /// returns the caller to the generator core.
    pub fn on_server_cores<T>(&mut self, spawn: impl FnOnce() -> T) -> T {
        if !self.pinned {
            return spawn();
        }
        if !pin_current_thread(&self.server) {
            self.pinned = false;
            return spawn();
        }
        let out = spawn();
        if !pin_current_thread(&self.generator) {
            // Could not get back: undo the restriction rather than generate
            // load from the server's cores while claiming otherwise.
            let all: Vec<usize> = self.server.iter().chain(&self.generator).copied().collect();
            pin_current_thread(&all);
            self.pinned = false;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_threads_inherit_the_server_mask() {
        let before = allowed_cpus();
        let mut pinning = Pinning::establish();
        if pinning.pinned {
            assert_eq!(allowed_cpus(), pinning.generator);
            let seen = pinning.on_server_cores(|| std::thread::spawn(allowed_cpus).join().unwrap());
            assert_eq!(seen, pinning.server);
            assert_eq!(allowed_cpus(), pinning.generator);
        }
        // Leave the test thread as it was found.
        pin_current_thread(&before);
    }
}
