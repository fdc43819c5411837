//! The parallel two-pass cell-major build, shared by the materialized
//! ([`crate::Dbscout::detect`]) and streaming
//! ([`crate::Dbscout::detect_source`]) entry points.
//!
//! Both passes run on long-lived scoped worker threads that the calling
//! thread feeds batch by batch through bounded channels while it reads
//! the input, so at most a few batches are in flight and the read
//! overlaps the work:
//!
//! * **pass 1** ([`count_parallel`]) — batch `i` goes to worker
//!   `i % workers`, which counts it into its own [`CellMajorBuilder`];
//!   the per-worker tallies are merged at the end (counting is additive,
//!   so the split cannot change the totals);
//! * **pass 2** ([`scatter_parallel`]) — one worker per
//!   [`ScatterShard`]. For each group of up to `workers` batches, worker
//!   `j` resolves the cell indices of batch `j` (the one hash lookup per
//!   point), the calling thread gathers them, and every worker then
//!   places its own cells' points from every batch of the group, in
//!   arrival order. A point's slot is a pure function of its
//!   `(cell, arrival id)`, so the layout is byte-identical to the
//!   sequential build for any worker count.
//!
//! Workers live for a whole pass rather than one batch group: on a
//! 2-core host, fresh threads per 16k-point group ran no faster than one
//! thread, because each short-lived pair tended to share one CPU.
//!
//! A failure is tagged with the arrival index of the batch it came
//! from, and the earliest batch's failure is reported. When pass 2 hits
//! a read or locate failure it still places every point that arrived
//! before it, so a cell overflowing earlier in the stream is reported
//! first. The error a bad input produces is therefore the sequential
//! build's (the first failing point's) at every thread count.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use dbscout_spatial::{
    CellLocator, CellMajorBuilder, CellMajorScatter, ScatterShard, SpatialError,
};

use crate::error::{DbscoutError, Result};

/// A failure, keyed by the arrival index of the batch that caused it
/// and then by its stage within that batch ([`PLACE`] before [`READ`]).
type Tagged = ((usize, u8), DbscoutError);

/// Stage of a place failure. Within a batch it sorts first: the points
/// placed from a batch that then failed to locate all precede the
/// failing point.
const PLACE: u8 = 0;

/// Stage of a read, count or locate failure.
const READ: u8 = 1;

/// Joins a worker, re-raising its panic on the calling thread.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The failure of the earliest batch, if any.
fn earliest(errors: Vec<Tagged>) -> Result<()> {
    match errors.into_iter().min_by_key(|&(i, _)| i) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Pass 1 on `workers` threads over the batches `next` yields, for
/// `dims`-dimensional points at radius `eps`.
pub(crate) fn count_parallel<B: AsRef<[f64]> + Send>(
    dims: usize,
    eps: f64,
    workers: usize,
    mut next: impl FnMut() -> Result<Option<B>>,
) -> Result<CellMajorBuilder> {
    let workers = workers.max(1);
    // Validates `dims` and `eps` before any batch is split into points.
    let mut merged = CellMajorBuilder::new(dims, eps)?;
    std::thread::scope(|scope| {
        let mut feeds: Vec<SyncSender<(usize, usize, B)>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (feed, batches) = sync_channel::<(usize, usize, B)>(1);
            feeds.push(feed);
            handles.push(scope.spawn(move || -> std::result::Result<_, Tagged> {
                let mut sub =
                    CellMajorBuilder::new(dims, eps).map_err(|e| ((0, READ), e.into()))?;
                for (i, first_id, batch) in batches {
                    let before = sub.len();
                    sub.count_batch(batch.as_ref())
                        .map_err(|e| ((i, READ), rebase(e, before, first_id).into()))?;
                }
                Ok(sub)
            }));
        }
        let mut errors = Vec::new();
        let mut next_id = 0usize;
        for i in 0.. {
            match next() {
                Ok(Some(batch)) => {
                    let points = batch.as_ref().len() / dims;
                    // A closed feed means that worker failed; its error
                    // is collected below.
                    let sent = feeds.get(i % workers).map(|f| f.send((i, next_id, batch)));
                    if !matches!(sent, Some(Ok(()))) {
                        break;
                    }
                    next_id += points;
                }
                Ok(None) => break,
                Err(e) => {
                    errors.push(((i, READ), e));
                    break;
                }
            }
        }
        drop(feeds);
        for handle in handles {
            match join(handle) {
                Ok(sub) => merged.merge(sub)?,
                Err(tagged) => errors.push(tagged),
            }
        }
        earliest(errors)?;
        Ok(merged)
    })
}

/// Renumbers a point id in `e` from a worker's private count (which
/// stood at `local` when the batch began) to the whole stream's (the
/// batch's first point has arrival id `global`), so the error names the
/// same point at every thread count.
fn rebase(e: SpatialError, local: usize, global: usize) -> SpatialError {
    match e {
        SpatialError::NonFiniteCoordinate { point, dim } => SpatialError::NonFiniteCoordinate {
            point: point - local + global,
            dim,
        },
        other => other,
    }
}

/// One group of pass-2 batches: `(arrival id of the first point,
/// coordinates)` per batch.
type Group<B> = Arc<Vec<(usize, B)>>;

/// Work for one pass-2 worker.
enum Job<B> {
    /// Resolve the cell indices of batch `.1` of the group.
    Locate(Group<B>, usize),
    /// Place the worker's own points of the group, given per-batch cell
    /// indices. Only the points that have one are placed: after a failure
    /// the indices stop at the failing point.
    Place(Group<B>, Arc<Vec<Vec<u32>>>, usize),
}

/// A located batch: the cell index of every point before the first
/// failing one, and that failure, if any.
type Located = (Vec<u32>, Option<DbscoutError>);

/// Pass 2 on one thread per shard of `scatter` (at most `workers`),
/// over the batches `next` yields, which must replay pass 1's stream in
/// order. Finish with [`CellMajorScatter::finish_sharded`].
pub(crate) fn scatter_parallel<B: AsRef<[f64]> + Send + Sync>(
    scatter: &mut CellMajorScatter,
    workers: usize,
    mut next: impl FnMut() -> Result<Option<B>>,
) -> Result<()> {
    let (locator, shards) = scatter.shards(workers);
    if shards.is_empty() {
        // Pass 1 counted no cells: any replayed point is a mismatch.
        let mut cells = Vec::new();
        while let Some(batch) = next()? {
            locator.locate_batch(batch.as_ref(), 0, &mut cells)?;
        }
        return Ok(());
    }
    let workers = shards.len();
    std::thread::scope(|scope| {
        let mut jobs: Vec<SyncSender<Job<B>>> = Vec::with_capacity(workers);
        let mut located: Vec<Receiver<Located>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in shards {
            let (job_tx, job_rx) = sync_channel::<Job<B>>(2);
            let (cells_tx, cells_rx) = sync_channel(1);
            jobs.push(job_tx);
            located.push(cells_rx);
            handles.push(scope.spawn(move || shard_worker(locator, shard, &job_rx, &cells_tx)));
        }
        let errors = feed_groups(locator.dims(), &jobs, &located, &mut next);
        drop(jobs);
        let mut errors = errors.err().into_iter().collect::<Vec<_>>();
        for handle in handles {
            if let Err(tagged) = join(handle) {
                errors.push(tagged);
            }
        }
        earliest(errors)
    })
}

/// The calling thread's side of pass 2: reads groups of one batch per
/// worker, has each batch located by its worker, then hands every
/// worker the group with its cell indices. At the first read or locate
/// failure it still hands out the points located before it, then stops;
/// it also stops when a worker has gone.
fn feed_groups<B: AsRef<[f64]>>(
    dims: usize,
    jobs: &[SyncSender<Job<B>>],
    located: &[Receiver<Located>],
    next: &mut impl FnMut() -> Result<Option<B>>,
) -> std::result::Result<(), Tagged> {
    let mut batch_index = 0usize;
    let mut next_id = 0usize;
    loop {
        let mut group = Vec::with_capacity(jobs.len());
        let mut failed = None;
        while group.len() < jobs.len() {
            match next() {
                Ok(Some(batch)) => {
                    let points = batch.as_ref().len() / dims;
                    group.push((next_id, batch));
                    next_id += points;
                }
                Ok(None) => break,
                Err(e) => {
                    failed = Some(((batch_index + group.len(), READ), e));
                    break;
                }
            }
        }
        if group.is_empty() {
            return failed.map_or(Ok(()), Err);
        }
        let group = Arc::new(group);
        for (j, job) in jobs.iter().enumerate().take(group.len()) {
            if job.send(Job::Locate(Arc::clone(&group), j)).is_err() {
                return Ok(());
            }
        }
        // Every located batch is received, even past a locate failure,
        // so no worker is left holding a result; only the indices before
        // the first failing point are kept. A locate failure precedes
        // any read failure of this group.
        let mut cells = Vec::with_capacity(group.len());
        let mut located_all = true;
        for (j, rx) in located.iter().enumerate().take(group.len()) {
            let Ok((c, err)) = rx.recv() else {
                return Ok(());
            };
            if located_all {
                cells.push(c);
                if let Some(e) = err {
                    failed = Some(((batch_index + j, READ), e));
                    located_all = false;
                }
            }
        }
        let cells = Arc::new(cells);
        for job in jobs {
            let placed = Job::Place(Arc::clone(&group), Arc::clone(&cells), batch_index);
            if job.send(placed).is_err() {
                return Ok(());
            }
        }
        if let Some(tagged) = failed {
            return Err(tagged);
        }
        batch_index += group.len();
    }
}

/// One pass-2 worker: serves locate and place jobs until the feed
/// closes. After a place failure it stops placing (its shard is no
/// longer consistent) but keeps serving locate jobs, so the feeding
/// thread never waits on it.
fn shard_worker<B: AsRef<[f64]>>(
    locator: CellLocator<'_>,
    mut shard: ScatterShard<'_>,
    jobs: &Receiver<Job<B>>,
    located: &SyncSender<Located>,
) -> std::result::Result<(), Tagged> {
    let dims = locator.dims();
    let mut failed = None;
    for job in jobs {
        match job {
            Job::Locate(group, j) => {
                let mut cells = Vec::new();
                let err = group.get(j).and_then(|(first, batch)| {
                    locator
                        .locate_batch(batch.as_ref(), *first, &mut cells)
                        .err()
                        .map(DbscoutError::from)
                });
                if located.send((cells, err)).is_err() {
                    break;
                }
            }
            Job::Place(group, cells, first_index) if failed.is_none() => {
                for (b, ((_, batch), c)) in group.iter().zip(cells.iter()).enumerate() {
                    let coords = batch.as_ref();
                    let coords = coords.get(..c.len() * dims).unwrap_or(coords);
                    if let Err(e) = shard.place_batch(coords, c) {
                        failed = Some(((first_index + b, PLACE), e.into()));
                        break;
                    }
                }
            }
            Job::Place(..) => {}
        }
    }
    failed.map_or(Ok(()), Err)
}
