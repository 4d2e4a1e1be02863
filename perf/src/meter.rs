//! Host-speed-scaled timing.
//!
//! The reference host is a small VM on a shared machine. Its speed
//! drifts by a third over minutes, and measurement shows why: a fixed
//! kernel of binary-heap scheduling and random table reads slows with
//! the simulator, in step, while a pure integer-arithmetic loop does not
//! slow at all. The cause is contention for the shared caches and memory
//! from other tenants, which also slows process CPU time, so neither
//! wall time nor CPU time holds still.
//!
//! A [`Meter`] therefore runs that kernel around every piece of work it
//! times and scales the work's wall time by `NOMINAL_REF_MS` over the
//! kernel's mean time before and after it. The kernel runs on the
//! calling thread, so it only tracks work on one thread: work spread
//! over both cores of the host also depends on how the host shares its
//! cores out, which one kernel does not see (the workloads' sweeps run
//! on one job for that reason). The kernel is the benchmark's own code,
//! not the system's, so no change to the repository moves it; a change
//! that makes the system faster shrinks the scaled time exactly as it
//! shrinks the wall time. On a quiet host the scale is close to 1.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on a quiet reference host, in ms. Scaled
/// times are wall times on a host of that speed.
pub const NOMINAL_REF_MS: f64 = 65.0;

/// Events the reference kernel schedules and pops.
const REF_EVENTS: u32 = 600_000;
/// Events pending in the kernel's heap.
const REF_PENDING: u64 = 4096;
/// Words in the kernel's table (4 MiB, larger than a core's L2).
const REF_TABLE: usize = 1 << 19;

/// One timed piece of work.
#[derive(Debug)]
pub struct Timed<R> {
    pub value: R,
    pub wall_ms: f64,
    /// Factor from wall time to scaled time (1 when not scaling).
    pub scale: f64,
}

impl<R> Timed<R> {
    /// Scaled time in ms.
    pub fn ms(&self) -> f64 {
        self.wall_ms * self.scale
    }
}

/// Times sequential work, scaled by the host's speed around it.
pub struct Meter {
    /// The kernel's table; `None` when not scaling.
    table: Option<Vec<u64>>,
    /// Kernel time measured after the last timed work, which is the
    /// next work's "before".
    last_ref_ms: Option<f64>,
    /// Every kernel time measured, in ms.
    pub ref_ms: Vec<f64>,
    /// Sums over all work timed so far: scaled ms and wall ms.
    pub total_ms: f64,
    pub total_wall_ms: f64,
}

impl Meter {
    /// A meter that scales by the host's speed, or, with `scaled` false,
    /// reports plain wall time and never runs the kernel.
    pub fn new(scaled: bool) -> Meter {
        let mut table = scaled.then(|| vec![0; REF_TABLE]);
        if let Some(t) = &mut table {
            // Untimed: the first pass faults the table's pages in.
            black_box(reference_kernel(t));
        }
        Meter {
            table,
            last_ref_ms: None,
            ref_ms: Vec::new(),
            total_ms: 0.0,
            total_wall_ms: 0.0,
        }
    }

    pub fn scaled(&self) -> bool {
        self.table.is_some()
    }

    /// Run `f` and time it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> Timed<R> {
        let before = match self.last_ref_ms {
            Some(ms) => Some(ms),
            None if self.scaled() => Some(self.reference()),
            None => None,
        };
        let t0 = Instant::now();
        let value = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let scale = match before {
            Some(before) => {
                let after = self.reference();
                self.last_ref_ms = Some(after);
                NOMINAL_REF_MS / ((before + after) / 2.0)
            }
            None => 1.0,
        };
        self.total_ms += wall_ms * scale;
        self.total_wall_ms += wall_ms;
        Timed {
            value,
            wall_ms,
            scale,
        }
    }

    /// Run the kernel once; its wall time in ms.
    fn reference(&mut self) -> f64 {
        let table = self
            .table
            .as_mut()
            .expect("only a scaling meter runs the kernel");
        let t0 = Instant::now();
        black_box(reference_kernel(table));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ref_ms.push(ms);
        ms
    }
}

/// A fixed discrete-event loop like the simulator's hot loop: pop the
/// earliest of `REF_PENDING` timed events from a binary heap, update one
/// table word and read another at random, and schedule the event again.
fn reference_kernel(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mask = table.len() as u64 - 1;
    let mut heap = BinaryHeap::with_capacity(REF_PENDING as usize);
    for i in 0..REF_PENDING {
        heap.push(Reverse((rnd() % 10_000, i)));
    }
    let mut sum = 0u64;
    for _ in 0..REF_EVENTS {
        let Reverse((t, i)) = heap.pop().expect("the heap holds REF_PENDING events");
        let k = ((t ^ i.wrapping_mul(0x9E37)) & mask) as usize;
        table[k] = table[k].wrapping_add(t);
        sum = sum.wrapping_add(table[(rnd() & mask) as usize]);
        heap.push(Reverse((t + 1 + rnd() % 5_000, i)));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_meter_reports_wall_time_and_runs_no_kernel() {
        let mut m = Meter::new(false);
        let t = m.time(|| 7);
        assert_eq!((t.value, t.scale), (7, 1.0));
        assert!(m.ref_ms.is_empty());
        assert_eq!(m.total_ms, m.total_wall_ms);
    }

    #[test]
    fn scaled_meter_brackets_each_work_with_one_shared_kernel_run() {
        let mut m = Meter::new(true);
        let a = m.time(|| ());
        let b = m.time(|| ());
        // before a, between a and b, after b
        assert_eq!(m.ref_ms.len(), 3);
        let r = &m.ref_ms;
        assert_eq!(a.scale, NOMINAL_REF_MS / ((r[0] + r[1]) / 2.0));
        assert_eq!(b.scale, NOMINAL_REF_MS / ((r[1] + r[2]) / 2.0));
        assert!((m.total_ms - (a.ms() + b.ms())).abs() < 1e-9);
    }
}
