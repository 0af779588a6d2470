//! Lifecycle edge cases of the owner/handle pair: rejected configurations,
//! double-start, timed-out shutdown with work still pending, and submissions
//! after shutdown.

use nexus_rt::{ClusterRuntime, RtConfig, RtTask, SubmitError};
use nexus_trace::TaskDescriptor;
use std::time::Duration;

fn task_us(id: u64, addr: u64, us: u64) -> RtTask {
    RtTask::new(
        TaskDescriptor::builder(id)
            .inout(addr)
            .duration(nexus_sim::SimDuration::from_us(us))
            .build(),
    )
}

#[test]
#[should_panic(expected = "need at least one node")]
fn zero_nodes_are_rejected() {
    ClusterRuntime::new(RtConfig::new(0, 1));
}

#[test]
#[should_panic(expected = "need at least one worker per node")]
fn zero_workers_are_rejected() {
    ClusterRuntime::new(RtConfig::new(1, 0));
}

#[test]
#[should_panic(expected = "start called twice")]
fn start_spawns_exactly_once() {
    let mut rt = ClusterRuntime::new(RtConfig::new(1, 1));
    let _first = rt.start();
    let _second = rt.start();
}

#[test]
fn shutdown_timeout_reports_unfinished_work() {
    // One worker at 50 µs of real time per simulated µs: six 1000 µs tasks
    // in one chain are ~50 ms each, 300 ms total — far beyond the 5 ms
    // budget, so the shutdown must time out with work still pending.
    let mut rt = ClusterRuntime::new(RtConfig::new(1, 1).with_time_scale(50_000));
    let handle = rt.start();
    for id in 0..6u64 {
        handle.submit(task_us(id, 0xCAFE, 1000)).unwrap();
    }
    let report = rt.shutdown_timeout(Duration::from_millis(5));
    assert_eq!(report.submitted, 6);
    assert!(
        report.pending >= 1,
        "a 5ms budget cannot drain ~300ms of work: {report:?}"
    );
    assert_eq!(report.pending, report.submitted - report.retired);
    // The handle outlives the owner but can no longer submit.
    assert_eq!(
        handle.submit(task_us(9, 0xCAFE, 1)).unwrap_err(),
        SubmitError::ShutDown
    );
}

#[test]
fn submit_after_shutdown_is_a_clean_error() {
    let mut rt = ClusterRuntime::new(RtConfig::new(2, 2));
    let handle = rt.start();
    let clone = handle.clone();
    handle.submit(task_us(0, 0x10, 1)).unwrap();
    handle.taskwait();
    let report = rt.shutdown_timeout(Duration::from_secs(5));
    assert_eq!(report.pending, 0);
    // Both the original handle and a clone observe the shutdown.
    assert_eq!(
        handle.submit(task_us(1, 0x10, 1)).unwrap_err(),
        SubmitError::ShutDown
    );
    assert_eq!(
        clone.submit(task_us(2, 0x10, 1)).unwrap_err(),
        SubmitError::ShutDown
    );
    // Waits after shutdown return instead of hanging.
    clone.taskwait();
    clone.taskwait_on(0x10);
}

#[test]
fn shutdown_before_any_submission_is_clean() {
    let mut rt = ClusterRuntime::new(RtConfig::new(4, 2));
    let _handle = rt.start();
    let report = rt.shutdown_timeout(Duration::from_secs(5));
    assert_eq!(report.submitted, 0);
    assert_eq!(report.pending, 0);
    assert_eq!(report.per_node.len(), 4);
}
