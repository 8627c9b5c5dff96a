//! The work scheduler, in its two faces.
//!
//! - `run_scoped_streamed`: the batch face. Borrows the source, the
//!   processing closure and the sink, runs `jobs` scoped workers, and
//!   hands every result to the sink in submission order while the run is
//!   still in flight. This is what [`Engine::run`] and
//!   [`Engine::run_streamed`] use.
//! - [`WorkerPool`]: the resident face. `'static` workers pull boxed
//!   jobs for the life of the process; callers must hold an
//!   [`AdmitTicket`] (bounded capacity — the admission-control layer of
//!   the serve daemon) before submitting. Full capacity is an
//!   *immediate, non-blocking* rejection through [`WorkerPool::try_admit`],
//!   which is what turns into an HTTP 429; bulk transports use
//!   [`WorkerPool::admit_blocking`] and get classic backpressure instead.
//!
//! [`Engine::run`]: crate::Engine::run
//! [`Engine::run_streamed`]: crate::Engine::run_streamed

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Runs `process` over every item of `items` on `jobs` scoped workers
/// and hands each result to `sink` in submission order, as soon as every
/// earlier result has been handed over.
///
/// There is no producer or collector thread: the workers do all of it.
/// Each worker takes the next `(index, item)` from the source under one
/// mutex, but only while fewer than `jobs + depth` items sit between the
/// source and the sink — otherwise it waits for the sink to catch up, so
/// memory stays constant no matter how long the stream is. It then runs
/// `process` and parks the result in a reorder ring. The worker that
/// parks the next index in line drains the run of ready results into
/// `sink`; only one worker drains at a time, and the others keep taking
/// work, so a slow sink never holds up a worker that only parks a result.
///
/// The sink runs on whichever worker drains, hence `S: Send`. A panic in
/// the source, in `process` or in `sink` stops every worker from taking
/// more work and is re-raised on the calling thread once all have exited.
pub(crate) fn run_scoped_streamed<I, R, F, S>(
    items: I,
    jobs: usize,
    depth: usize,
    process: F,
    sink: S,
) where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    let window = jobs + depth.max(1);
    let run = Run {
        feed: Mutex::new(Feed { source: items.into_iter(), taken: 0, emitted: 0, closed: false }),
        room: Condvar::new(),
        ready: Mutex::new(Reorder {
            slots: (0..window).map(|_| None).collect(),
            next: 0,
            draining: false,
        }),
        sink: Mutex::new(sink),
        window,
    };
    let outcomes: Vec<thread::Result<()>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                let (run, process) = (&run, &process);
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| run.work(process)));
                    if outcome.is_err() {
                        run.close();
                    }
                    outcome
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panics are caught")).collect()
    });
    if let Some(panic) = outcomes.into_iter().find_map(Result::err) {
        resume_unwind(panic);
    }
}

/// State shared by the workers of one `run_scoped_streamed` call.
struct Run<It, R, S> {
    feed: Mutex<Feed<It>>,
    /// Signalled when the window gains room or the feed closes.
    room: Condvar,
    ready: Mutex<Reorder<R>>,
    sink: Mutex<S>,
    /// Most items taken from the source and not yet emitted.
    window: usize,
}

struct Feed<It> {
    source: It,
    /// Items taken from the source; the next item's index.
    taken: usize,
    /// Results the sink has returned from.
    emitted: usize,
    /// The source is exhausted or a worker panicked: take nothing more.
    closed: bool,
}

struct Reorder<R> {
    /// Parked results; index `i` lives in slot `i % window`. Every index
    /// in flight lies in `next..next + window`, so slots never collide.
    slots: Vec<Option<R>>,
    /// The next index the sink expects.
    next: usize,
    /// A worker is draining; invariant: when none is, slot `next` is empty.
    draining: bool,
}

impl<It: Iterator, R, S: FnMut(usize, R)> Run<It, R, S> {
    fn work<F: Fn(usize, It::Item) -> R>(&self, process: &F) {
        let mut batch = Vec::new();
        while let Some((index, item)) = self.take() {
            let result = process(index, item);
            let mut ready = lock(&self.ready);
            ready.slots[index % self.window] = Some(result);
            if ready.draining || index != ready.next {
                continue;
            }
            ready.draining = true;
            ready.take_run(&mut batch);
            drop(ready);
            self.drain(&mut batch);
        }
    }

    /// The next `(index, item)` once the window has room, or `None` when
    /// the feed is closed.
    fn take(&self) -> Option<(usize, It::Item)> {
        let wait = ppchecker_obs::span!("engine.queue_wait");
        let mut feed = lock(&self.feed);
        while !feed.closed && feed.taken - feed.emitted >= self.window {
            feed = self.room.wait(feed).unwrap_or_else(PoisonError::into_inner);
        }
        drop(wait);
        if feed.closed {
            return None;
        }
        match feed.source.next() {
            Some(item) => {
                feed.taken += 1;
                Some((feed.taken - 1, item))
            }
            None => {
                drop(feed);
                self.close();
                None
            }
        }
    }

    /// Emits `batch`, then every run that was parked meanwhile, and gives
    /// up the drainer role once the next index is still in flight.
    fn drain(&self, batch: &mut Vec<(usize, R)>) {
        let mut sink = lock(&self.sink);
        loop {
            let emitted = batch.len();
            for (index, result) in batch.drain(..) {
                (*sink)(index, result);
            }
            lock(&self.feed).emitted += emitted;
            self.room.notify_all();
            let mut ready = lock(&self.ready);
            ready.take_run(batch);
            if batch.is_empty() {
                ready.draining = false;
                return;
            }
        }
    }

    /// Stops every worker from taking more work.
    fn close(&self) {
        lock(&self.feed).closed = true;
        self.room.notify_all();
    }
}

impl<R> Reorder<R> {
    /// Moves the run of consecutive ready results starting at `next` into
    /// `batch`.
    fn take_run(&mut self, batch: &mut Vec<(usize, R)>) {
        let window = self.slots.len();
        while let Some(result) = self.slots[self.next % window].take() {
            batch.push((self.next, result));
            self.next += 1;
        }
    }
}

/// Locks `mutex` even if a panicking worker poisoned it: a panic closes
/// the feed, and the state each lock guards stays consistent across it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of resident work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why an admission attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Every queue slot is taken; retry later or shed the request.
    Overloaded,
    /// The pool is draining and admits nothing new.
    Draining,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded => f.write_str("overloaded"),
            AdmitError::Draining => f.write_str("draining"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Debug, Default)]
struct Occupancy {
    inflight: usize,
    draining: bool,
}

/// Capacity accounting shared between the pool and outstanding tickets.
#[derive(Debug)]
struct Gate {
    occupancy: Mutex<Occupancy>,
    freed: Condvar,
    capacity: usize,
}

impl Gate {
    fn acquire(&self, slots: usize, block: bool) -> Result<(), AdmitError> {
        let mut occ = self.occupancy.lock().expect("gate lock");
        loop {
            if occ.draining {
                return Err(AdmitError::Draining);
            }
            if occ.inflight + slots <= self.capacity {
                occ.inflight += slots;
                return Ok(());
            }
            if !block {
                return Err(AdmitError::Overloaded);
            }
            occ = self.freed.wait(occ).expect("gate lock");
        }
    }

    fn release(&self, slots: usize) {
        let mut occ = self.occupancy.lock().expect("gate lock");
        occ.inflight -= slots;
        drop(occ);
        self.freed.notify_all();
    }
}

/// An admitted capacity reservation: proof that the pool has room for
/// `slots` more jobs. Submitting consumes the ticket slot by slot; slots
/// never submitted are released when the ticket drops, and submitted
/// slots are released when their job *finishes* — capacity tracks work
/// in flight, not work enqueued.
#[derive(Debug)]
pub struct AdmitTicket {
    gate: Arc<Gate>,
    remaining: usize,
}

impl AdmitTicket {
    /// Slots still available on this ticket.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Drop for AdmitTicket {
    fn drop(&mut self) {
        if self.remaining > 0 {
            self.gate.release(self.remaining);
        }
    }
}

/// Queue-occupancy counters for a metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Total admission capacity (in-flight job bound).
    pub capacity: usize,
    /// Jobs admitted and not yet finished.
    pub inflight: usize,
    /// Whether the pool has begun draining.
    pub draining: bool,
}

/// The resident worker pool: the engine scheduler's long-lived face,
/// used by the serve daemon for per-request admission control.
///
/// ```
/// use ppchecker_engine::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2, 8);
/// let (tx, rx) = mpsc::channel();
/// let mut ticket = pool.try_admit(1).unwrap();
/// pool.submit(&mut ticket, move || tx.send(21 * 2).unwrap());
/// assert_eq!(rx.recv().unwrap(), 42);
/// pool.drain();
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    job_tx: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    gate: Arc<Gate>,
}

impl WorkerPool {
    /// Spawns `workers` resident threads with room for
    /// `workers + queue_depth` admitted jobs (running + queued).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = workers.max(1);
        let capacity = workers + queue_depth.max(1);
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                thread::Builder::new()
                    .name(format!("ppchecker-worker-{i}"))
                    .spawn(move || loop {
                        let wait = ppchecker_obs::span!("serve.queue_wait");
                        let job = job_rx.lock().expect("job queue lock").recv();
                        drop(wait);
                        match job {
                            // A panicking job must not kill its resident
                            // worker (the batch face gets the same
                            // isolation from `Engine::process_one`). The
                            // capacity slot still releases: the wrapper's
                            // guard drops during the unwind.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped; queue drained
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            job_tx: Some(job_tx),
            workers: handles,
            gate: Arc::new(Gate {
                occupancy: Mutex::new(Occupancy::default()),
                freed: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Reserves `slots` queue slots without blocking.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Overloaded`] when the reservation does not fit, or
    /// [`AdmitError::Draining`] once [`WorkerPool::start_drain`] ran.
    pub fn try_admit(&self, slots: usize) -> Result<AdmitTicket, AdmitError> {
        self.gate.acquire(slots, false)?;
        Ok(AdmitTicket { gate: Arc::clone(&self.gate), remaining: slots })
    }

    /// Reserves `slots` queue slots, waiting for capacity (backpressure
    /// for bulk transports).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once [`WorkerPool::start_drain`] ran.
    pub fn admit_blocking(&self, slots: usize) -> Result<AdmitTicket, AdmitError> {
        self.gate.acquire(slots, true)?;
        Ok(AdmitTicket { gate: Arc::clone(&self.gate), remaining: slots })
    }

    /// Submits one job against a slot of `ticket`. The slot is released
    /// when the job finishes (even if it panics).
    ///
    /// # Panics
    ///
    /// Panics when the ticket has no remaining slots — a ticket is a
    /// counted reservation, not a blanket permission.
    pub fn submit(&self, ticket: &mut AdmitTicket, job: impl FnOnce() + Send + 'static) {
        assert!(ticket.remaining > 0, "submit without an admitted slot");
        ticket.remaining -= 1;
        let gate = Arc::clone(&self.gate);
        let wrapped: Job = Box::new(move || {
            // Release on every exit path: a panicking job must not leak
            // its capacity slot or the pool wedges at full queue.
            struct Release(Arc<Gate>);
            impl Drop for Release {
                fn drop(&mut self) {
                    self.0.release(1);
                }
            }
            let _release = Release(gate);
            job();
        });
        self.job_tx.as_ref().expect("pool not drained").send(wrapped).expect("workers alive");
    }

    /// Marks the pool as draining: every subsequent admission fails with
    /// [`AdmitError::Draining`] while already-admitted jobs keep running.
    pub fn start_drain(&self) {
        self.gate.occupancy.lock().expect("gate lock").draining = true;
        self.gate.freed.notify_all();
    }

    /// Waits until every admitted job has finished. Does not by itself
    /// stop new admissions — call [`WorkerPool::start_drain`] first for a
    /// graceful shutdown.
    pub fn wait_idle(&self) {
        let mut occ = self.gate.occupancy.lock().expect("gate lock");
        while occ.inflight > 0 {
            occ = self.gate.freed.wait(occ).expect("gate lock");
        }
    }

    /// Graceful shutdown: stop admissions, finish in-flight jobs, join
    /// the workers.
    pub fn drain(mut self) {
        self.start_drain();
        self.wait_idle();
        drop(self.job_tx.take()); // workers see Err(disconnect) and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> PoolStats {
        let occ = self.gate.occupancy.lock().expect("gate lock");
        PoolStats {
            workers: self.workers.len(),
            capacity: self.gate.capacity,
            inflight: occ.inflight,
            draining: occ.draining,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn streamed_emits_in_submission_order() {
        let mut seen = Vec::new();
        run_scoped_streamed(
            0..1000usize,
            4,
            8,
            |index, item| {
                assert_eq!(index, item);
                item * 3
            },
            |index, result| seen.push((index, result)),
        );
        assert_eq!(seen.len(), 1000);
        for (i, (index, result)) in seen.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*result, i * 3);
        }
    }

    #[test]
    fn streamed_survives_a_lazy_unsized_source() {
        // An iterator with no usable size hint and many times more items
        // than the window; the run must still complete in order.
        let source = (0..500usize).filter(|i| i % 2 == 0);
        let mut count = 0usize;
        let mut last = None;
        run_scoped_streamed(
            source,
            3,
            2,
            |_, item| item,
            |index, item| {
                assert_eq!(index * 2, item);
                last = Some(item);
                count += 1;
            },
        );
        assert_eq!(count, 250);
        assert_eq!(last, Some(498));
    }

    #[test]
    fn streamed_source_never_runs_more_than_the_window_ahead_of_the_sink() {
        for (jobs, depth) in [(2, 4), (8, 16)] {
            let taken = AtomicUsize::new(0);
            let emitted = AtomicUsize::new(0);
            let most_ahead = AtomicUsize::new(0);
            let source = (0..2000usize).inspect(|_| {
                let ahead =
                    taken.fetch_add(1, Ordering::SeqCst) + 1 - emitted.load(Ordering::SeqCst);
                most_ahead.fetch_max(ahead, Ordering::SeqCst);
            });
            // Uneven work so results complete out of order.
            let process = |index: usize, item: usize| {
                if index.is_multiple_of(7) {
                    thread::sleep(Duration::from_micros(200));
                }
                item
            };
            let mut count = 0;
            run_scoped_streamed(source, jobs, depth, process, |index, item| {
                assert_eq!((index, item), (count, count));
                count += 1;
                emitted.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(count, 2000);
            let most_ahead = most_ahead.load(Ordering::SeqCst);
            assert!(most_ahead <= jobs + depth, "jobs {jobs}: source ran {most_ahead} ahead");
        }
    }

    /// Runs `body` on a fresh thread and returns whether it panicked,
    /// failing the test if it has not finished within five seconds.
    fn panics_within_timeout(body: impl FnOnce() + Send + 'static) -> bool {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            let _ = done_tx.send(outcome.is_err());
        });
        let panicked =
            done_rx.recv_timeout(Duration::from_secs(5)).expect("scheduler wedged after a panic");
        runner.join().expect("the runner catches the panic");
        panicked
    }

    #[test]
    fn streamed_panic_in_process_comes_out_of_the_scheduler() {
        let panicked = panics_within_timeout(|| {
            run_scoped_streamed(
                0..10_000usize,
                4,
                2,
                |index, item| {
                    assert_ne!(index, 37, "process blew up");
                    item
                },
                |_, _| {},
            );
        });
        assert!(panicked);
    }

    #[test]
    fn streamed_panic_in_sink_comes_out_of_the_scheduler() {
        let panicked = panics_within_timeout(|| {
            run_scoped_streamed(
                0..10_000usize,
                4,
                2,
                |_, item| item,
                |index, _| {
                    assert_ne!(index, 37, "sink blew up");
                },
            );
        });
        assert!(panicked);
    }

    #[test]
    fn streamed_slow_sink_sees_every_record_once_in_order() {
        let mut seen = Vec::new();
        run_scoped_streamed(
            0..200usize,
            4,
            2,
            |_, item| item * 5,
            |index, result| {
                thread::sleep(Duration::from_millis(1));
                seen.push((index, result));
            },
        );
        assert_eq!(seen, (0..200).map(|i| (i, i * 5)).collect::<Vec<_>>());
    }

    #[test]
    fn pool_runs_jobs_and_reports_occupancy() {
        let pool = WorkerPool::new(2, 4);
        assert_eq!(pool.stats().capacity, 6);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let mut ticket = pool.try_admit(1).unwrap();
            let counter = Arc::clone(&counter);
            pool.submit(&mut ticket, move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(pool.stats().inflight, 0);
        pool.drain();
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        // Fill both slots with jobs that wait for permission to finish.
        let mut tickets = Vec::new();
        for _ in 0..2 {
            let mut ticket = pool.try_admit(1).unwrap();
            let release_rx = Arc::clone(&release_rx);
            pool.submit(&mut ticket, move || {
                let _ = release_rx.lock().unwrap().recv();
            });
            tickets.push(ticket);
        }
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Overloaded);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        pool.wait_idle();
        assert!(pool.try_admit(1).is_ok());
    }

    #[test]
    fn unused_ticket_slots_release_on_drop() {
        let pool = WorkerPool::new(1, 3);
        let ticket = pool.try_admit(4).unwrap();
        assert_eq!(pool.stats().inflight, 4);
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Overloaded);
        drop(ticket);
        assert_eq!(pool.stats().inflight, 0);
    }

    #[test]
    fn draining_pool_rejects_new_admissions_but_finishes_work() {
        let pool = WorkerPool::new(1, 2);
        let mut ticket = pool.try_admit(1).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&done);
        pool.submit(&mut ticket, move || {
            thread::sleep(Duration::from_millis(20));
            flag.fetch_add(1, Ordering::SeqCst);
        });
        pool.start_drain();
        assert_eq!(pool.try_admit(1).unwrap_err(), AdmitError::Draining);
        assert_eq!(pool.admit_blocking(1).unwrap_err(), AdmitError::Draining);
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_job_releases_its_slot() {
        let pool = WorkerPool::new(1, 1);
        let mut ticket = pool.try_admit(1).unwrap();
        pool.submit(&mut ticket, || panic!("job blew up"));
        // If the slot leaked, this would deadlock; a timeout-free pass
        // proves release-on-panic.
        pool.wait_idle();
        assert_eq!(pool.stats().inflight, 0);
        assert!(pool.try_admit(2).is_ok());
    }

    #[test]
    fn blocking_admission_waits_for_capacity() {
        let pool = Arc::new(WorkerPool::new(1, 1));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..2 {
            let mut ticket = pool.try_admit(1).unwrap();
            let release_rx = Arc::clone(&release_rx);
            pool.submit(&mut ticket, move || {
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        let waiter = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.admit_blocking(1).map(|t| t.remaining()))
        };
        // Unblock one job; the waiter's reservation must then succeed.
        release_tx.send(()).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
        release_tx.send(()).unwrap();
        pool.wait_idle();
    }
}
