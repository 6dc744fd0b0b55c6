//! The one worker harness both join runtimes run their node threads on.
//!
//! A QES instance per cluster node is an OS thread. What the threaded
//! runtime needs around each of them is the same everywhere: spawn them
//! scoped (so bodies may borrow the execution's state), contain a panic
//! instead of unwinding into the coordinator, and join **every** handle
//! before deciding the outcome — a dead worker must never leave the
//! coordinator blocked on a thread nobody harvested. [`run_workers`] does
//! exactly that and reports how each worker ended as a typed
//! [`WorkerEnd`]; [`all_done`] is the fail-fast policy over those ends.
//!
//! A body's captured state is dropped when the body ends, panic included,
//! so a worker that owns one end of a channel releases its peers by dying.

use orv_types::{Error, Result};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How one worker thread ended.
#[derive(Debug)]
pub enum WorkerEnd<T> {
    /// Ran to completion.
    Done(T),
    /// Returned a typed error.
    Failed(Error),
    /// Panicked; the payload rendered as a message.
    Panicked(String),
}

/// One worker's body. Boxed so a coordinator can run differently shaped
/// workers (storage and compute nodes) in one harness.
pub type WorkerBody<'a, T> = Box<dyn FnOnce() -> Result<T> + Send + 'a>;

/// Run every body on its own scoped thread and return how each ended, in
/// input order. Panics are contained per worker and every handle is
/// joined before this returns.
pub fn run_workers<L: Send, T: Send>(
    workers: Vec<(L, WorkerBody<'_, T>)>,
) -> Vec<(L, WorkerEnd<T>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|(label, body)| {
                let handle = scope.spawn(move || match catch_unwind(AssertUnwindSafe(body)) {
                    Ok(Ok(v)) => WorkerEnd::Done(v),
                    Ok(Err(e)) => WorkerEnd::Failed(e),
                    Err(p) => WorkerEnd::Panicked(panic_message(p.as_ref())),
                });
                (label, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(label, handle)| {
                let end = handle
                    .join()
                    .unwrap_or_else(|p| WorkerEnd::Panicked(panic_message(p.as_ref())));
                (label, end)
            })
            .collect()
    })
}

/// Every worker's value, or the root cause of the failure: a panic
/// (`Error::Cluster("<label> panicked: <msg>")`) outranks a cancellation,
/// which outranks the first other error — the secondary errors a dead or
/// cancelled worker causes in its peers ("hung up") never mask it.
pub fn all_done<L: Display, T>(ends: Vec<(L, WorkerEnd<T>)>) -> Result<Vec<T>> {
    let mut done = Vec::with_capacity(ends.len());
    let (mut panicked, mut cancelled, mut failed) = (None, None, None);
    for (label, end) in ends {
        match end {
            WorkerEnd::Done(v) => done.push(v),
            WorkerEnd::Panicked(msg) => {
                panicked.get_or_insert(Error::Cluster(format!("{label} panicked: {msg}")));
            }
            WorkerEnd::Failed(e) if e.is_cancellation() => {
                cancelled.get_or_insert(e);
            }
            WorkerEnd::Failed(e) => {
                failed.get_or_insert(e);
            }
        }
    }
    match panicked.or(cancelled).or(failed) {
        Some(e) => Err(e),
        None => Ok(done),
    }
}

/// Render a panic payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{silence_injected_panics, INJECTED_PANIC_MARKER};
    use std::sync::mpsc;

    fn boom() -> ! {
        silence_injected_panics();
        panic!("{INJECTED_PANIC_MARKER}: boom");
    }

    #[test]
    fn every_handle_is_joined_when_a_channel_owner_panics() {
        // The consumer blocks on a channel whose only sender the producer
        // owns. The producer's panic drops it, which is what releases the
        // consumer — `run_workers` returning at all proves both joined.
        let (tx, rx) = mpsc::channel::<u32>();
        let ends = run_workers::<&str, u32>(vec![
            (
                "consumer",
                Box::new(move || {
                    rx.recv()
                        .map_err(|_| Error::Cluster("producer hung up".into()))
                }),
            ),
            (
                "producer",
                Box::new(move || {
                    let _owned = tx;
                    boom()
                }),
            ),
        ]);
        assert_eq!(ends.len(), 2);
        assert!(
            matches!(&ends[0], ("consumer", WorkerEnd::Failed(Error::Cluster(m))) if m.contains("hung up")),
            "{ends:?}"
        );
        assert!(
            matches!(&ends[1], ("producer", WorkerEnd::Panicked(m)) if m.contains("boom")),
            "{ends:?}"
        );
        let want = format!("producer panicked: {INJECTED_PANIC_MARKER}: boom");
        assert!(
            matches!(all_done(ends), Err(Error::Cluster(m)) if m == want),
            "the root cause, not the peer's 'hung up'"
        );
    }

    #[test]
    fn ends_come_back_in_input_order() {
        // Worker `i` finishes only after worker `i + 1` has, so completion
        // order is the reverse of input order.
        let n = 4usize;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel::<()>()).unzip();
        let mut next: Vec<Option<mpsc::Sender<()>>> = txs.into_iter().map(Some).collect();
        let workers = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let wake_prev = i.checked_sub(1).and_then(|p| next[p].take());
                let last = i + 1 == n;
                let body: WorkerBody<'_, usize> = Box::new(move || {
                    if !last {
                        rx.recv().map_err(|_| Error::Cluster("hung up".into()))?;
                    }
                    if let Some(tx) = wake_prev {
                        tx.send(()).map_err(|_| Error::Cluster("hung up".into()))?;
                    }
                    Ok(i * 10)
                });
                (i, body)
            })
            .collect();
        let ends = run_workers(workers);
        let labels: Vec<usize> = ends.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec![0, 1, 2, 3]);
        assert_eq!(all_done(ends).unwrap(), vec![0, 10, 20, 30]);
    }

    #[test]
    fn all_done_ranks_panic_over_cancellation_over_first_error_by_variant() {
        let ends = |order: [usize; 4]| -> Vec<(String, WorkerEnd<u8>)> {
            order
                .into_iter()
                .map(|k| {
                    let end = match k {
                        // An ordinary error whose *text* says "panicked":
                        // ranking must key on the variant, not the string.
                        0 => WorkerEnd::Failed(Error::Cluster("peer panicked: hung up".into())),
                        1 => WorkerEnd::Failed(Error::Cancelled),
                        2 => WorkerEnd::Panicked("boom".into()),
                        _ => WorkerEnd::Done(7),
                    };
                    (format!("node {k}"), end)
                })
                .collect()
        };
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2]] {
            let got = all_done(ends(order));
            assert!(
                matches!(&got, Err(Error::Cluster(m)) if m == "node 2 panicked: boom"),
                "{got:?}"
            );
        }
        // Without the panic the cancellation wins, wherever it sits.
        assert!(matches!(
            all_done(ends([0, 1, 3, 3])),
            Err(Error::Cancelled)
        ));
        // Without either, the first error in input order.
        let two: Vec<(&str, WorkerEnd<u8>)> = vec![
            ("a", WorkerEnd::Failed(Error::Cluster("first".into()))),
            ("b", WorkerEnd::Failed(Error::Format("second".into()))),
        ];
        assert!(matches!(all_done(two), Err(Error::Cluster(m)) if m == "first"));
        let ok: Vec<(&str, WorkerEnd<u8>)> =
            vec![("a", WorkerEnd::Done(1)), ("b", WorkerEnd::Done(2))];
        assert_eq!(all_done(ok).unwrap(), vec![1, 2]);
    }
}
