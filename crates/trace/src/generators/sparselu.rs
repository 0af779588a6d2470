//! sparselu: blocked sparse LU matrix factorization (the OmpSs developers'
//! benchmark).
//!
//! "sparselu is a sparse matrix LU factorization kernel from the developers of
//! OmpSs. It scales well, as the granularity is designed to match Nanos
//! overheads." (§V-A). Table II: 54814 tasks, 38128 ms total work, 696 µs
//! average task, 1–3 deps.
//!
//! The task graph is the classic blocked right-looking LU factorization over an
//! `NB × NB` grid of blocks:
//!
//! * `lu0(k)`      — factorize diagonal block `(k,k)`              (`inout B[k][k]`)
//! * `fwd(k,j)`    — forward-substitute row-panel block `(k,j)`    (`in B[k][k]`, `inout B[k][j]`)
//! * `bdiv(k,i)`   — divide column-panel block `(i,k)`             (`in B[k][k]`, `inout B[i][k]`)
//! * `bmod(k,i,j)` — trailing-matrix update of block `(i,j)`       (`in B[i][k]`, `in B[k][j]`, `inout B[i][j]`)
//!
//! With `NB = 54` the dense graph has 53 955 tasks, within 1.6 % of the paper's
//! 54 814 (the real benchmark skips empty blocks but also factorizes a slightly
//! larger matrix; `EXPERIMENTS.md` compares the two under Table II).

use crate::addr::{addr_2d, AddrRegion};
use crate::task::TaskDescriptor;
use crate::trace::{Trace, TraceBuilder};
use nexus_sim::SimRng;

/// Number of blocks per matrix dimension in the full-size trace.
pub const BLOCKS: u64 = 54;
/// Average task duration in microseconds (Table II).
pub const AVG_TASK_US: f64 = 696.0;

/// Task kinds of the blocked LU factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lu0,
    Fwd,
    Bdiv,
    Bmod,
}

fn duration_us(kind: Kind, rng: &mut SimRng) -> f64 {
    // The update kernels (bmod) dominate; calibrated so the overall average
    // lands on the paper's 696 us.
    let (base, jitter) = match kind {
        Kind::Lu0 => (760.0, 0.10),
        Kind::Fwd => (640.0, 0.10),
        Kind::Bdiv => (640.0, 0.10),
        Kind::Bmod => (700.0, 0.08),
    };
    base * rng.uniform(1.0 - jitter, 1.0 + jitter)
}

/// Generates the sparselu trace. `scale` shrinks the number of blocks per
/// dimension (task count shrinks roughly with the cube).
pub fn generate(seed: u64, scale: f64) -> Trace {
    let nb = ((BLOCKS as f64 * scale.cbrt()).round() as u64).clamp(3, BLOCKS);
    let mut rng = SimRng::new(seed ^ 0x5AA5_E100);
    let mut b = TraceBuilder::new("sparselu");
    let blocks = AddrRegion::benchmark_array(2);
    let baddr = |i: u64, j: u64| addr_2d(&blocks, i, j, nb);

    for k in 0..nb {
        b.submit_with(|id| {
            TaskDescriptor::builder(id.0)
                .function(0)
                .inout(baddr(k, k))
                .duration_us(duration_us(Kind::Lu0, &mut rng))
                .build()
        });
        for j in (k + 1)..nb {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .function(1)
                    .input(baddr(k, k))
                    .inout(baddr(k, j))
                    .duration_us(duration_us(Kind::Fwd, &mut rng))
                    .build()
            });
        }
        for i in (k + 1)..nb {
            b.submit_with(|id| {
                TaskDescriptor::builder(id.0)
                    .function(2)
                    .input(baddr(k, k))
                    .inout(baddr(i, k))
                    .duration_us(duration_us(Kind::Bdiv, &mut rng))
                    .build()
            });
        }
        for i in (k + 1)..nb {
            for j in (k + 1)..nb {
                b.submit_with(|id| {
                    TaskDescriptor::builder(id.0)
                        .function(3)
                        .input(baddr(i, k))
                        .input(baddr(k, j))
                        .inout(baddr(i, j))
                        .duration_us(duration_us(Kind::Bmod, &mut rng))
                        .build()
                });
            }
        }
    }
    b.taskwait();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    /// Expected dense task count for `nb` blocks.
    fn expected_tasks(nb: u64) -> u64 {
        let mut total = 0;
        for k in 0..nb {
            let m = nb - k - 1;
            total += 1 + 2 * m + m * m;
        }
        total
    }

    #[test]
    fn full_trace_is_close_to_table2_row() {
        let t = generate(11, 1.0);
        let s = TraceStats::of(&t);
        assert_eq!(s.tasks, expected_tasks(BLOCKS));
        // Within 2% of the paper's 54814 tasks.
        assert!(
            (s.tasks as f64 - 54814.0).abs() / 54814.0 < 0.02,
            "{}",
            s.tasks
        );
        assert_eq!(s.deps_column(), "1-3");
        assert!(
            (s.avg_task_us - AVG_TASK_US).abs() / AVG_TASK_US < 0.05,
            "{}",
            s.avg_task_us
        );
        assert!(
            (s.total_work_ms - 38128.0).abs() / 38128.0 < 0.10,
            "{}",
            s.total_work_ms
        );
        t.validate().unwrap();
    }

    #[test]
    fn small_instance_has_expected_structure() {
        let nb = 4u64;
        let t = generate(1, ((nb as f64) / (BLOCKS as f64)).powi(3));
        assert_eq!(t.task_count() as u64, expected_tasks(nb));
        // First task is the lu0 of block (0,0) and the only single-parameter task
        // of the first wave; bmod tasks have exactly 3 parameters.
        let tasks: Vec<_> = t.tasks().collect();
        assert_eq!(tasks[0].num_params(), 1);
        let max_params = tasks.iter().map(|t| t.num_params()).max().unwrap();
        assert_eq!(max_params, 3);
    }

    #[test]
    fn deterministic() {
        let a = generate(5, 0.02);
        let b = generate(5, 0.02);
        assert_eq!(a.ops, b.ops);
    }
}
