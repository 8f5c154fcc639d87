//! The two collective workloads: every rank writes its rectangle of a
//! shared 2-D array with one atomic `write_at_all`, and optionally reads
//! it back with `read_at_all`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atomio::core::verify::check_mpi_atomicity;
use atomio::interval::{ByteRange, IntervalSet};
use atomio::pfs::StatsSnapshot;
use atomio::prelude::*;

use crate::measure::{
    cpu_timed, peak_rss_mib, process_cpu_ns, Budget, Gate, Kind, Op, Phase, RankOp,
};
use crate::oracle::{self, Grid};

const FILE: &str = "grid";

/// One collective workload: geometry (as the oracle sees it), the views
/// the program's workload generator builds for the same geometry, and how
/// the file is driven.
#[derive(Clone)]
pub struct GridSpec {
    pub grid: Grid,
    pub filetypes: Vec<Arc<Datatype>>,
    pub profile: PlatformProfile,
    pub strategy: Strategy,
    pub two_phase: TwoPhaseConfig,
    /// Follow every write with a collective read-back of the same view.
    pub read_back: bool,
}

/// What one rank brings back from the job.
struct RankLog {
    /// Per timed iteration: its ops, and this rank's vtime at its start
    /// and end.
    iters: Vec<(Vec<RankOp>, VNanos, VNanos)>,
    stats: StatsSnapshot,
}

/// What only the leader records.
#[derive(Default)]
struct LeaderLog {
    setup: Duration,
    setup_rss_mib: f64,
    /// Per timed iteration: the file image matched the oracle.
    image_ok: Vec<bool>,
    second_opinion: bool,
}

/// Set up (file system, inputs, open/view/atomicity, one warm-up
/// iteration) and run the closed loop for `budget`. `origin` is the
/// process CPU time ([`process_cpu_ns`]) when the set-up began. With a
/// `sink`, the file system and every rank's communicator record into it.
pub fn measure(
    spec: &GridSpec,
    seed: u64,
    budget: Budget,
    sink: Option<&Arc<MemorySink>>,
    origin: u64,
) -> Phase {
    let grid = &spec.grid;
    let p = grid.ranks();
    let fs = FileSystem::new(spec.profile.clone());
    if let Some(s) = sink {
        fs.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
    }
    let bases = oracle::bases(seed, 0, grid.file_bytes());
    // Data generation `e` alternates between iterations, so every op
    // changes every byte and a write that did not land shows.
    let images = [grid.image(&bases, 0), grid.image(&bases, 1)];
    let gate = Gate::new(p, budget);
    let leader = Mutex::new(LeaderLog::default());

    let logs = run(p, spec.profile.net.clone(), |comm| {
        let rank = comm.rank();
        if let Some(s) = sink {
            comm.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
        }
        let bufs = [
            grid.rank_buffer(&bases, 0, rank),
            grid.rank_buffer(&bases, 1, rank),
        ];
        let want_read = spec.read_back.then(|| {
            [
                grid.through_rect(&images[0], rank),
                grid.through_rect(&images[1], rank),
            ]
        });
        let mut rbuf = vec![0u8; bufs[0].len()];
        let mut file = MpiFile::open(&comm, &fs, FILE, OpenMode::ReadWrite).expect("open");
        file.set_view(0, Arc::clone(&spec.filetypes[rank]))
            .expect("view");
        file.set_io_path(IoPath::Direct);
        file.set_two_phase_config(spec.two_phase);
        file.set_atomicity(Atomicity::Atomic(spec.strategy))
            .expect("atomicity");

        let iteration = |file: &mut MpiFile, epoch: usize, rbuf: &mut [u8]| {
            let mut ops = Vec::with_capacity(2);
            let (w, cpu_ns) = cpu_timed(|| file.write_at_all(0, &bufs[epoch]));
            let w = w.expect("write_at_all");
            ops.push(RankOp {
                kind: Kind::Write,
                vt_start: w.start,
                vt_end: w.end,
                cpu_ns,
                bytes: w.bytes_written,
                pieces: w.segments as u64,
                ok: true,
            });
            if spec.read_back {
                let (r, cpu_ns) = cpu_timed(|| file.read_at_all(0, rbuf));
                let r = r.expect("read_at_all");
                ops.push(RankOp {
                    kind: Kind::Read,
                    vt_start: r.start,
                    vt_end: r.end,
                    cpu_ns,
                    bytes: r.bytes_read,
                    pieces: 0,
                    ok: true,
                });
            }
            ops
        };

        // Warm-up: the last step of set-up.
        iteration(&mut file, 0, &mut rbuf);
        gate.leave();
        if rank == 0 {
            let mut l = leader.lock().unwrap();
            l.setup = Duration::from_nanos(process_cpu_ns() - origin);
            l.setup_rss_mib = peak_rss_mib();
        }

        let stats0 = file.posix().stats().snapshot();
        let first = Instant::now();
        let mut iters = Vec::new();
        loop {
            if rank == 0 {
                gate.decide(iters.len() as u64, first);
            }
            if !gate.enter() {
                break;
            }
            let epoch = (iters.len() + 1) % 2;
            let vt0 = comm.clock().now();
            let mut ops = iteration(&mut file, epoch, &mut rbuf);
            let vt1 = comm.clock().now();
            gate.leave();
            // Checks run while the next iteration waits at the gate.
            if let (Some(want), Some(read)) = (&want_read, ops.get_mut(1)) {
                read.ok = oracle::mismatches(&rbuf, &want[epoch]) == 0;
            }
            if rank == 0 {
                let image = fs.snapshot(FILE).unwrap_or_default();
                let ok = oracle::mismatches(&image, &images[epoch]) == 0;
                leader.lock().unwrap().image_ok.push(ok);
            }
            iters.push((ops, vt0, vt1));
        }
        let stats = file.posix().stats().snapshot().delta(&stats0);
        if rank == 0 && !iters.is_empty() {
            let epoch = iters.len() % 2;
            let image = fs.snapshot(FILE).unwrap_or_default();
            leader.lock().unwrap().second_opinion = second_opinion(grid, &bases, epoch, &image);
        }
        file.close().expect("close");
        RankLog { iters, stats }
    });

    let leader = leader.into_inner().unwrap();
    let mut phase = Phase {
        setup: leader.setup,
        setup_rss_mib: leader.setup_rss_mib,
        iterations: leader.image_ok.len() as u64,
        stats: logs.iter().map(|l| l.stats).collect(),
        latency: fs.latency_snapshot(),
        second_opinion: leader.second_opinion,
        reference_ns: gate.reference_ns(),
        repeats: vec![Vec::new(), Vec::new()],
        ..Phase::default()
    };
    let read_bytes: u64 = (0..p).map(|r| grid.rect_bytes(r)).sum();
    for i in 0..leader.image_ok.len() {
        let start = logs.iter().map(|l| l.iters[i].1).min().unwrap_or(0);
        let end = logs.iter().map(|l| l.iters[i].2).max().unwrap_or(0);
        phase.makespan_vt += end - start;
        for j in 0..logs[0].iters[i].0.len() {
            let parts: Vec<RankOp> = logs.iter().map(|l| l.iters[i].0[j]).collect();
            let mut op = Op::collective(&parts);
            // Byte conservation: the union is written exactly once (rank
            // ordering surrenders every overlap, two-phase writes each
            // domain once), and a read-back returns every rank's rectangle.
            op.ok &= match op.kind {
                Kind::Write => op.bytes == grid.file_bytes() && leader.image_ok[i],
                Kind::Read => op.bytes == read_bytes,
            };
            phase.repeats[(op.kind == Kind::Read) as usize].push(op.vt_ns);
            phase.ops.push(op);
        }
    }
    if !phase.second_opinion {
        if let Some(last) = phase.ops.iter_mut().rev().find(|o| o.kind == Kind::Write) {
            last.ok = false;
        }
    }
    phase
}

/// `check_mpi_atomicity` on the final image, with the oracle's geometry
/// and stamps: the program's verifier as a second opinion.
fn second_opinion(grid: &Grid, bases: &[u8], epoch: usize, image: &[u8]) -> bool {
    let p = grid.ranks() as u64;
    let views: Vec<IntervalSet> = grid
        .rects
        .iter()
        .map(|&(r0, r1, c0, c1)| {
            IntervalSet::from_ranges(
                (r0..r1).map(|row| ByteRange::new(row * grid.cols + c0, row * grid.cols + c1)),
            )
        })
        .collect();
    let patterns: Vec<_> = (0..p)
        .map(|rank| {
            let key = epoch as u64 * p + rank;
            move |off: u64| oracle::stamp(bases[off as usize], key)
        })
        .collect();
    check_mpi_atomicity(image, &views, &patterns).is_atomic()
}
