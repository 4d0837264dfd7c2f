//! A fixed host-speed probe for reporting host time in nominal seconds.
//!
//! The benchmark shares its host with other tenants, whose load moves the
//! host's speed by tens of percent over minutes; ten runs of the same code
//! spread by 15–40% between quartiles in wall-clock terms. Host times are
//! therefore scaled by how fast a fixed kernel ran right beside them,
//! relative to its nominal duration. The kernel does scattered
//! read-modify-writes over a 4 MiB table: of the kernels tried (this one,
//! a binary-heap churn, 32 and 64 MiB tables, a streaming copy, and sums
//! of them) it tracked the simulator's speed drift best. It allocates
//! nothing after construction and uses no repository code, so a change to
//! the simulator (or to an allocator it registers) moves the simulator's
//! time and not the probe's.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds one probe takes on the machine that defines the nominal
/// second (a 2-vCPU VM in a quiet period).
const NOMINAL_S: f64 = 0.010;
/// Table entries (4 MiB of `u64`).
const TABLE: usize = 1 << 19;
/// Read-modify-writes per probe.
const STEPS: usize = 1_500_000;

/// The probe's preallocated table.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Allocates the probe and runs it once, so later runs time no page
    /// faults.
    pub fn new() -> Probe {
        let mut p = Probe {
            table: vec![0; TABLE],
        };
        p.time();
        p
    }

    /// Nominal seconds per host second right now.
    pub fn scale(&mut self) -> f64 {
        NOMINAL_S / self.time()
    }

    /// Host seconds one run of the kernel takes.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x1234_5678;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % TABLE;
            self.table[i] = self.table[i].wrapping_add(x);
            acc = acc.wrapping_add(self.table[i.wrapping_mul(7) % TABLE]);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}
