//! The host-timed layer pass: calls each layer's public functions on a
//! workload's own inputs, one at a time, and reports the median host time
//! per call. Everything runs on the calling thread, timed in thread CPU
//! time, except the `Comm` collectives and the two-phase exchange: they
//! need their P rank threads, and rank 0's wall time, waits for partners
//! included, is their cost.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use atomio::collective::two_phase_write;
use atomio::core::{higher_union_strided, surviving_pieces_strided};
use atomio::dtype::ViewSegment;
use atomio::pfs::LockMode;
use atomio::prelude::*;

use crate::measure::cpu_timed;
use crate::{Metric, PIPELINED};

/// Samples per layer call, and the host-time cap on each.
const SAMPLES: usize = 41;
const CAP: Duration = Duration::from_millis(400);
/// Iterations of each P-rank loop (collectives and two-phase writes).
const RANK_ITERS: usize = 9;

/// The rank whose inputs the single-threaded calls use: an interior rank
/// on the column-wise array.
const PROBE: usize = 1;

/// One workload's inputs as the layers see them.
pub struct LayerInputs {
    /// Per rank: its file view and the logical offset and length of its
    /// request.
    pub views: Vec<(FileView, u64, u64)>,
    /// Per rank: the buffer it writes.
    pub bufs: Vec<Vec<u8>>,
    pub profile: PlatformProfile,
    /// Whether the workload writes under rank ordering, whose surviving
    /// pieces (not the whole view) then make up a rank's server batch.
    pub rank_ordered: bool,
}

impl LayerInputs {
    fn segments(&self, rank: usize) -> Vec<ViewSegment> {
        let (view, off, len) = &self.views[rank];
        view.segments(*off, *len)
    }

    fn footprints(&self) -> Vec<StridedSet> {
        self.views
            .iter()
            .map(|(v, off, len)| v.strided_file_ranges(*off, *len))
            .collect()
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Thread CPU time of a single-threaded call.
fn cpu(f: impl FnOnce()) -> Duration {
    Duration::from_nanos(cpu_timed(f).1)
}

/// Wall time of one rank's share of a collective call.
fn wall(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

pub fn measure(inp: &LayerInputs, out: &mut Vec<Metric>) {
    let p = inp.views.len();
    let (view, off, len) = &inp.views[PROBE];
    let segs = inp.segments(PROBE);
    let all = inp.footprints();

    let d = host_median(|| cpu(|| drop(black_box(view.segments(*off, *len)))));
    out.push(Metric::new("dtype.segments_host_us", us(d), "us"));

    let d = host_median(|| {
        cpu(|| {
            let mine = view.strided_file_ranges(*off, *len);
            let surrendered = higher_union_strided(&all, PROBE);
            black_box((mine, surviving_pieces_strided(&segs, &surrendered)));
        })
    });
    out.push(Metric::new("core.negotiate_host_us", us(d), "us"));

    let net = inp.profile.net.clone();
    let d = per_rank_call(p, &net, |comm| wall(|| comm.barrier()));
    out.push(Metric::new("msg.barrier_host_us", us(d), "us"));
    let d = per_rank_call(p, &net, |comm| {
        let mine = all[comm.rank()].clone();
        wall(|| drop(black_box(comm.allgather(mine))))
    });
    out.push(Metric::new("msg.allgather_host_us", us(d), "us"));
    let d = per_rank_call(p, &net, |comm| {
        let buf = &inp.bufs[comm.rank()];
        let buckets: Vec<Vec<u8>> = buf
            .chunks(buf.len().div_ceil(p).max(1))
            .map(<[u8]>::to_vec)
            .chain(std::iter::repeat_with(Vec::new))
            .take(p)
            .collect();
        wall(|| drop(black_box(comm.alltoallv(buckets))))
    });
    out.push(Metric::new("msg.alltoallv_host_us", us(d), "us"));

    // A rank's server batch: rank ordering's surviving pieces, else its
    // whole view.
    let batch = if inp.rank_ordered {
        surviving_pieces_strided(&segs, &higher_union_strided(&all, PROBE))
    } else {
        segs.clone()
    };
    let buf = &inp.bufs[PROBE];
    let d = host_median(|| {
        let fs = FileSystem::new(inp.profile.clone());
        let file = fs.open(PROBE, Clock::new(), "batch");
        let writes: Vec<(u64, &[u8])> = batch
            .iter()
            .map(|s| {
                let at = (s.logical_off - off) as usize;
                (s.file_off, &buf[at..at + s.len as usize])
            })
            .collect();
        cpu(|| {
            let ticket = file.pwrite_batch(&writes);
            file.complete_writes(ticket);
        })
    });
    out.push(Metric::new("pfs.batch_write_host_us", us(d), "us"));

    let fs = FileSystem::new(inp.profile.clone());
    let file = fs.open(PROBE, Clock::new(), "locks");
    let set = all[PROBE].clone();
    let d = host_median(|| {
        cpu(|| {
            let guard = file.lock_set(&set, LockMode::Exclusive).expect("lock_set");
            guard.release();
        })
    });
    out.push(Metric::new("pfs.lock_host_us", us(d), "us"));

    let fs = FileSystem::new(inp.profile.clone());
    let d = per_rank_call(p, &net, |comm| {
        let rank = comm.rank();
        let file = fs.open(rank, comm.clock().clone(), "two-phase");
        let segs = inp.segments(rank);
        let base = inp.views[rank].1;
        wall(|| {
            two_phase_write(comm, &file, &segs, &inp.bufs[rank], base, &PIPELINED);
        })
    });
    out.push(Metric::new(
        "collective.two_phase_write_host_ms",
        d.as_nanos() as f64 / 1e6,
        "ms",
    ));
}

fn host_median(f: impl FnMut() -> Duration) -> Duration {
    crate::measure::host_median(SAMPLES, CAP, f)
}

/// Median over [`RANK_ITERS`] calls of `call` on a P-rank job, as rank 0
/// times them; every iteration starts from a barrier, so rank 0's time is
/// the collective's, not its wait for late ranks.
fn per_rank_call<F>(p: usize, net: &NetCost, call: F) -> Duration
where
    F: Fn(&Comm) -> Duration + Send + Sync,
{
    let samples = Mutex::new(Vec::new());
    run(p, net.clone(), |comm| {
        for _ in 0..RANK_ITERS {
            comm.barrier();
            let d = call(&comm);
            if comm.rank() == 0 {
                samples.lock().unwrap().push(d.as_nanos() as f64);
            }
        }
    });
    let samples = samples.into_inner().unwrap();
    Duration::from_nanos(crate::measure::quantile(samples, 0.5) as u64)
}
