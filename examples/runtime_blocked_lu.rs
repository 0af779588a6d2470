//! Using the *live* runtime (`nexus-rt`, one node) — not the simulator — to
//! execute a blocked LU factorization on the current machine's threads, with
//! the same task graph the sparselu benchmark models (lu0 / fwd / bdiv / bmod
//! tasks and their in/out/inout footprints), then verifying the result
//! against a sequential factorization.
//!
//! Run with: `cargo run --release --example runtime_blocked_lu`

use nexus::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const NB: usize = 8; // blocks per dimension
const BS: usize = 24; // block size (elements per dimension)
const N: usize = NB * BS;

/// Dense matrix stored as a flat Vec with interior mutability per run.
/// The runtime guarantees exclusive access per declared block footprint, so the
/// unsafe cell access below never races (same contract as the OmpSs pragmas).
struct Matrix {
    data: std::cell::UnsafeCell<Vec<f64>>,
}
unsafe impl Sync for Matrix {}

impl Matrix {
    fn new(data: Vec<f64>) -> Self {
        Matrix {
            data: std::cell::UnsafeCell::new(data),
        }
    }
    #[allow(clippy::mut_from_ref)]
    fn slice(&self) -> &mut Vec<f64> {
        unsafe { &mut *self.data.get() }
    }
    fn at(&self, r: usize, c: usize) -> f64 {
        self.slice()[r * N + c]
    }
}

fn block_key(bi: usize, bj: usize) -> u64 {
    (bi * NB + bj) as u64 * 64
}

/// Submits `body` as the next task, reading the blocks `inputs` and updating
/// the block `inout` in place.
fn spawn(
    handle: &RuntimeHandle,
    id: &mut u64,
    inputs: &[u64],
    inout: u64,
    body: impl FnOnce() + Send + 'static,
) {
    let mut task = TaskDescriptor::builder(*id);
    *id += 1;
    for &key in inputs {
        task = task.input(key);
    }
    handle
        .submit(RtTask::new(task.inout(inout).build()).with_body(body))
        .expect("runtime is running");
}

/// Sequential LU (no pivoting) used as the reference.
fn lu_sequential(a: &mut [f64]) {
    for k in 0..N {
        for i in (k + 1)..N {
            a[i * N + k] /= a[k * N + k];
            for j in (k + 1)..N {
                a[i * N + j] -= a[i * N + k] * a[k * N + j];
            }
        }
    }
}

/// The blocked kernels (operating on the global matrix through block indices).
fn lu0(m: &Matrix, kb: usize) {
    let a = m.slice();
    let base = kb * BS;
    for k in 0..BS {
        for i in (k + 1)..BS {
            a[(base + i) * N + base + k] /= a[(base + k) * N + base + k];
            for j in (k + 1)..BS {
                a[(base + i) * N + base + j] -=
                    a[(base + i) * N + base + k] * a[(base + k) * N + base + j];
            }
        }
    }
}

fn fwd(m: &Matrix, kb: usize, jb: usize) {
    let a = m.slice();
    let (kb0, jb0) = (kb * BS, jb * BS);
    for k in 0..BS {
        for i in (k + 1)..BS {
            let l = a[(kb0 + i) * N + kb0 + k];
            for j in 0..BS {
                a[(kb0 + i) * N + jb0 + j] -= l * a[(kb0 + k) * N + jb0 + j];
            }
        }
    }
}

fn bdiv(m: &Matrix, kb: usize, ib: usize) {
    let a = m.slice();
    let (kb0, ib0) = (kb * BS, ib * BS);
    for k in 0..BS {
        for i in 0..BS {
            a[(ib0 + i) * N + kb0 + k] /= a[(kb0 + k) * N + kb0 + k];
            for j in (k + 1)..BS {
                a[(ib0 + i) * N + kb0 + j] -=
                    a[(ib0 + i) * N + kb0 + k] * a[(kb0 + k) * N + kb0 + j];
            }
        }
    }
}

fn bmod(m: &Matrix, ib: usize, kb: usize, jb: usize) {
    let a = m.slice();
    let (ib0, kb0, jb0) = (ib * BS, kb * BS, jb * BS);
    for i in 0..BS {
        for k in 0..BS {
            let l = a[(ib0 + i) * N + kb0 + k];
            for j in 0..BS {
                a[(ib0 + i) * N + jb0 + j] -= l * a[(kb0 + k) * N + jb0 + j];
            }
        }
    }
}

fn main() {
    // A diagonally dominant matrix so LU without pivoting is stable.
    let mut seed = 1u64;
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    let mut original = vec![0.0f64; N * N];
    for r in 0..N {
        for c in 0..N {
            original[r * N + c] = if r == c { N as f64 } else { next() };
        }
    }

    // Reference factorization.
    let mut reference = original.clone();
    lu_sequential(&mut reference);

    // Task-parallel factorization on one node of the live runtime.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut rt = ClusterRuntime::new(RtConfig::new(1, workers));
    let handle = rt.start();
    let matrix = Arc::new(Matrix::new(original));
    let mut id = 0;

    let t0 = std::time::Instant::now();
    for kb in 0..NB {
        let m = Arc::clone(&matrix);
        spawn(&handle, &mut id, &[], block_key(kb, kb), move || {
            lu0(&m, kb)
        });
        for jb in (kb + 1)..NB {
            let m = Arc::clone(&matrix);
            let (diag, block) = (block_key(kb, kb), block_key(kb, jb));
            spawn(&handle, &mut id, &[diag], block, move || fwd(&m, kb, jb));
        }
        for ib in (kb + 1)..NB {
            let m = Arc::clone(&matrix);
            let (diag, block) = (block_key(kb, kb), block_key(ib, kb));
            spawn(&handle, &mut id, &[diag], block, move || bdiv(&m, kb, ib));
        }
        for ib in (kb + 1)..NB {
            for jb in (kb + 1)..NB {
                let m = Arc::clone(&matrix);
                let inputs = [block_key(ib, kb), block_key(kb, jb)];
                let block = block_key(ib, jb);
                spawn(&handle, &mut id, &inputs, block, move || {
                    bmod(&m, ib, kb, jb)
                });
            }
        }
    }
    handle.taskwait();
    let elapsed = t0.elapsed();
    let report = rt.shutdown_timeout(Duration::from_secs(10));

    // Verify against the sequential reference.
    let mut max_err = 0.0f64;
    for r in 0..N {
        for c in 0..N {
            max_err = max_err.max((matrix.at(r, c) - reference[r * N + c]).abs());
        }
    }
    println!("blocked LU of a {N}x{N} matrix ({NB}x{NB} blocks of {BS}x{BS}) on {workers} threads");
    println!(
        "tasks executed: {}",
        report.metrics.counter("task.executed")
    );
    println!("wall time: {elapsed:?}");
    println!("max |parallel - sequential| = {max_err:.3e}");
    assert!(
        max_err < 1e-8,
        "parallel factorization diverged from the reference"
    );
    println!("OK — task-parallel result matches the sequential factorization");
}
