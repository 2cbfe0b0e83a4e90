//! Property test: the `CommStats` counters and the `fci-obs` trace are two
//! views of the same run and must agree exactly — every remote message the
//! counters charge corresponds to one trace event of the matching kind,
//! and the byte totals match the per-event `bytes` arguments.

use fci_ddi::{Backend, CommStats, Ddi, DistMatrix};
use fci_obs::Tracer;

/// Drive a representative communication pattern: every rank reads every
/// column (one at a time, then one aggregated gather of them all),
/// accumulates into every column, and claims tasks off the shared counter.
fn traced_run(nproc: usize, ncols: usize) -> (Vec<CommStats>, Vec<fci_obs::Event>) {
    let nrows = 16;
    let ddi = Ddi::new(nproc, Backend::Serial);
    let tracer = Tracer::in_memory();
    ddi.attach_tracer(tracer.clone());
    let c = DistMatrix::zeros(nrows, ncols, nproc);
    let sigma = DistMatrix::zeros(nrows, ncols, nproc);
    ddi.adopt(&c);
    ddi.adopt(&sigma);
    let stats = ddi.run(|rank, st| {
        let mut buf = vec![0.0; nrows];
        for col in 0..ncols {
            c.get_cols(rank, &[col], &mut buf, st);
            sigma.acc_col(rank, col, &buf, st);
        }
        let all: Vec<usize> = (0..ncols).collect();
        c.get_cols(rank, &all, &mut vec![0.0; nrows * ncols], st);
        // Task claims through the shared counter (manager/worker pattern).
        loop {
            let t = ddi.nxtval_rank(rank, st);
            if t >= 3 * nproc {
                break;
            }
        }
    });
    let events = tracer.events().expect("in-memory tracer records events");
    (stats, events)
}

fn count(events: &[fci_obs::Event], name: &str) -> u64 {
    events.iter().filter(|e| e.name == name).count() as u64
}

fn bytes(events: &[fci_obs::Event], name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.arg("bytes").unwrap_or(0.0) as u64)
        .sum()
}

#[test]
fn comm_stats_agree_with_trace_events() {
    for (nproc, ncols) in [(1, 4), (2, 7), (4, 12), (5, 9)] {
        let (stats, events) = traced_run(nproc, ncols);
        let mut total = CommStats::default();
        for s in &stats {
            total.merge(s);
        }
        // One trace event per charged remote message, kind by kind.
        assert_eq!(
            total.get_msgs,
            count(&events, "ddi_get_cols"),
            "nproc={nproc}"
        );
        assert_eq!(total.acc_msgs, count(&events, "ddi_acc"), "nproc={nproc}");
        assert_eq!(
            total.nxtval_msgs,
            count(&events, "ddi_nxtval"),
            "nproc={nproc}"
        );
        // Byte totals agree with the per-event payload arguments.
        assert_eq!(
            total.get_bytes,
            bytes(&events, "ddi_get_cols"),
            "nproc={nproc}"
        );
        assert_eq!(total.acc_bytes, bytes(&events, "ddi_acc"), "nproc={nproc}");
        assert_eq!(
            total.total_bytes(),
            bytes(&events, "ddi_get_cols") + bytes(&events, "ddi_acc")
        );
    }
}

#[test]
fn local_operations_are_invisible_to_both_views() {
    // A single-rank world does everything locally: the counters charge no
    // remote traffic and the trace carries no remote events — the two
    // views agree on "nothing happened on the wire".
    let (stats, events) = traced_run(1, 6);
    assert_eq!(stats[0].get_msgs + stats[0].acc_msgs, 0);
    assert_eq!(stats[0].total_bytes(), 0);
    assert_eq!(
        count(&events, "ddi_get_cols") + count(&events, "ddi_acc"),
        0
    );
    // The shared counter is still charged and still traced.
    assert!(stats[0].nxtval_msgs > 0);
    assert_eq!(stats[0].nxtval_msgs, count(&events, "ddi_nxtval"));
}
