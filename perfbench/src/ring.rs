//! The token workload: the producer–consumer ring under exact-footprint
//! locking through the client cache, with lock-driven coherence. Each
//! iteration of the closed loop is one whole ring on a fresh file.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atomio::core::verify::check_mpi_atomicity;
use atomio::interval::{ByteRange, IntervalSet};
use atomio::pfs::StatsSnapshot;
use atomio::prelude::*;

use crate::measure::{
    cpu_timed, peak_rss_mib, process_cpu_ns, Budget, Gate, Kind, Op, Phase, RankOp,
};
use crate::oracle::{self, Ring};

#[derive(Clone)]
pub struct RingSpec {
    pub ring: Ring,
    pub profile: PlatformProfile,
}

struct RankLog {
    /// Per timed ring: its ops, this rank's vtime at its start and end,
    /// and the counters of its file handle.
    rings: Vec<(Vec<RankOp>, VNanos, VNanos, StatsSnapshot)>,
}

#[derive(Default)]
struct LeaderLog {
    setup: Duration,
    setup_rss_mib: f64,
    /// Per timed ring: its final image matched the oracle.
    image_ok: Vec<bool>,
    second_opinion: bool,
}

/// One ring on file `name`: open, `rounds` × (write own block, barrier,
/// `rereads` reads of the left block, barrier), close. Every read is
/// checked against the left neighbour's data of the current round.
fn one_ring(
    spec: &RingSpec,
    comm: &Comm,
    fs: &FileSystem,
    name: &str,
    bases: &[u8],
) -> (Vec<RankOp>, StatsSnapshot) {
    let ring = spec.ring;
    let rank = comm.rank();
    let left = ring.left(rank);
    let mut file = MpiFile::open(comm, fs, name, OpenMode::ReadWrite).expect("open");
    file.set_atomicity(Atomicity::Atomic(Strategy::FileLocking(
        LockGranularity::Exact,
    )))
    .expect("atomicity");
    file.set_io_path(IoPath::Cached);
    let mut ops = Vec::with_capacity((ring.rounds * (1 + ring.rereads)) as usize);
    let mut buf = vec![0u8; ring.block as usize];
    for round in 0..ring.rounds {
        let data = ring.block_data(bases, rank, round);
        let want = ring.block_data(bases, left, round);
        let (w, cpu_ns) = cpu_timed(|| file.write_at(rank as u64 * ring.block, &data));
        let w = w.expect("write_at");
        ops.push(RankOp {
            kind: Kind::Write,
            vt_start: w.start,
            vt_end: w.end,
            cpu_ns,
            bytes: w.bytes_written,
            pieces: w.segments as u64,
            ok: w.bytes_written == ring.block,
        });
        // Every block of this round is written once the barrier passes:
        // a read that still returns an older round is stale.
        comm.barrier();
        for _ in 0..ring.rereads {
            let (r, cpu_ns) = cpu_timed(|| file.read_at(left as u64 * ring.block, &mut buf));
            let r = r.expect("read_at");
            ops.push(RankOp {
                kind: Kind::Read,
                vt_start: r.start,
                vt_end: r.end,
                cpu_ns,
                bytes: r.bytes_read,
                pieces: 0,
                ok: r.bytes_read == ring.block && oracle::mismatches(&buf, &want) == 0,
            });
        }
        comm.barrier();
    }
    let close = file.close().expect("close");
    (ops, close.stats)
}

/// Set up (file system, one warm-up ring) and run rings for `budget`;
/// see [`crate::grid::measure`] for the arguments.
pub fn measure(
    spec: &RingSpec,
    seed: u64,
    budget: Budget,
    sink: Option<&Arc<MemorySink>>,
    origin: u64,
) -> Phase {
    let ring = spec.ring;
    let p = ring.p;
    let fs = FileSystem::new(spec.profile.clone());
    if let Some(s) = sink {
        fs.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
    }
    let gate = Gate::new(p, budget);
    let leader = Mutex::new(LeaderLog::default());

    let logs = run(p, spec.profile.net.clone(), |comm| {
        let rank = comm.rank();
        if let Some(s) = sink {
            comm.bind_tracer(Arc::clone(s) as Arc<dyn TraceSink>);
        }
        // Ring k writes file `ring-k` with bytes salted by k.
        let name = |k: u64| format!("ring-{k}");
        let warm = oracle::bases(seed, 0, ring.file_bytes());
        one_ring(spec, &comm, &fs, &name(0), &warm);
        gate.leave();
        if rank == 0 {
            fs.delete(&name(0));
            let mut l = leader.lock().unwrap();
            l.setup = Duration::from_nanos(process_cpu_ns() - origin);
            l.setup_rss_mib = peak_rss_mib();
        }

        let first = Instant::now();
        let mut rings = Vec::new();
        loop {
            if rank == 0 {
                gate.decide(rings.len() as u64, first);
            }
            let k = rings.len() as u64 + 1;
            let bases = oracle::bases(seed, k, ring.file_bytes());
            if !gate.enter() {
                break;
            }
            let vt0 = comm.clock().now();
            let (ops, stats) = one_ring(spec, &comm, &fs, &name(k), &bases);
            let vt1 = comm.clock().now();
            gate.leave();
            if rank == 0 {
                let image = fs.snapshot(&name(k)).unwrap_or_default();
                let ok = oracle::mismatches(&image, &ring.final_image(&bases)) == 0;
                let mut l = leader.lock().unwrap();
                l.image_ok.push(ok);
                if k == 1 {
                    l.second_opinion = second_opinion(&ring, &bases, &image);
                }
                fs.delete(&name(k));
            }
            rings.push((ops, vt0, vt1, stats));
        }
        RankLog { rings }
    });

    let leader = leader.into_inner().unwrap();
    let mut phase = Phase {
        setup: leader.setup,
        setup_rss_mib: leader.setup_rss_mib,
        iterations: leader.image_ok.len() as u64,
        stats: logs
            .iter()
            .flat_map(|l| l.rings.iter().map(|r| r.3))
            .collect(),
        latency: fs.latency_snapshot(),
        second_opinion: leader.second_opinion,
        reference_ns: gate.reference_ns(),
        repeats: vec![Vec::new()],
        ..Phase::default()
    };
    let last_write = (ring.rounds - 1) * (1 + ring.rereads);
    for i in 0..leader.image_ok.len() {
        let start = logs.iter().map(|l| l.rings[i].1).min().unwrap_or(0);
        let end = logs.iter().map(|l| l.rings[i].2).max().unwrap_or(0);
        phase.makespan_vt += end - start;
        phase.repeats[0].push(end - start);
        for l in &logs {
            for (j, part) in l.rings[i].0.iter().enumerate() {
                let mut op = Op::independent(part);
                // The final image is what the last round's writes left.
                if j as u64 == last_write {
                    op.ok &= leader.image_ok[i] && (i > 0 || leader.second_opinion);
                }
                phase.ops.push(op);
            }
        }
    }
    phase
}

/// `check_mpi_atomicity` on a ring's final image: every block must hold
/// exactly one writer's last-round data.
fn second_opinion(ring: &Ring, bases: &[u8], image: &[u8]) -> bool {
    let p = ring.p as u64;
    let views: Vec<IntervalSet> = (0..p)
        .map(|w| IntervalSet::from_range(ByteRange::at(w * ring.block, ring.block)))
        .collect();
    let patterns: Vec<_> = (0..p)
        .map(|w| {
            let key = (ring.rounds - 1) * p + w;
            move |off: u64| oracle::stamp(bases[off as usize], key)
        })
        .collect();
    check_mpi_atomicity(image, &views, &patterns).is_atomic()
}
