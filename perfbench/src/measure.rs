//! The closed loop's pacing, what one measured phase records, and the
//! order statistics the metrics are made of.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use atomio::pfs::StatsSnapshot;
use atomio::prelude::*;

/// How long a phase runs: for a host-time budget, or a fixed number of
/// iterations (0 stops right after the warm-up, for a set-up-only pass).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    For(Duration),
    Iters(u64),
}

/// Host-side pacing of the rank threads. Every iteration of the closed
/// loop is bracketed by two host barriers: they cost no virtual time, so
/// the modeled timeline is the program's alone, and the checks the leader
/// runs between iterations stay out of both the modeled and the host
/// figures. The leader (rank 0) decides whether another iteration starts;
/// the barrier publishes its decision to every rank, so all ranks stop
/// after the same iteration and no collective is left half-entered.
/// Before each decision the leader also runs one pass of the reference
/// kernel, while the other ranks wait at the barrier.
pub struct Gate {
    barrier: Barrier,
    stop: AtomicBool,
    budget: Budget,
    reference_ns: Mutex<Vec<u64>>,
}

impl Gate {
    pub fn new(p: usize, budget: Budget) -> Arc<Gate> {
        Arc::new(Gate {
            barrier: Barrier::new(p),
            stop: AtomicBool::new(false),
            budget,
            reference_ns: Mutex::new(Vec::new()),
        })
    }

    /// Leader only, before each [`Gate::enter`]: stop once the budget is
    /// spent. `done` counts finished iterations, `since` is when the first
    /// one started.
    pub fn decide(&self, done: u64, since: Instant) {
        let pass = reference_pass();
        self.reference_ns.lock().unwrap().push(pass);
        let spent = match self.budget {
            Budget::For(d) => done > 0 && since.elapsed() >= d,
            Budget::Iters(n) => done >= n,
        };
        if spent {
            self.stop.store(true, Ordering::Release);
        }
    }

    /// All ranks: wait until every rank is ready; `false` once the leader
    /// has stopped the loop.
    pub fn enter(&self) -> bool {
        self.barrier.wait();
        !self.stop.load(Ordering::Acquire)
    }

    /// All ranks: wait until every rank has finished the iteration.
    pub fn leave(&self) {
        self.barrier.wait();
    }

    /// The reference passes the leader ran, in thread CPU ns.
    pub fn reference_ns(&self) -> Vec<u64> {
        self.reference_ns.lock().unwrap().clone()
    }
}

/// Thread CPU time of one pass of the reference kernel on this host when
/// the reference figures were taken (see README.md, "Host figures are
/// scaled to a reference speed"). The host metrics are scaled by this
/// over the median of the passes run around them, so they read as CPU
/// time on a host that runs the reference at this speed.
pub const REFERENCE_NOMINAL_NS: f64 = 1.4e6;

/// Iterations on each side of a timed iteration whose reference passes
/// set its scale factor.
const REFERENCE_WINDOW: usize = 4;

/// The reference kernel: a fixed piece of host work that uses nothing of
/// atomio, made of what the simulator's host time is made of — copying
/// MiB-sized buffers, byte loops with data-dependent branches, ordered
/// maps (allocation and pointer chasing) and sorting. Its CPU time tracks
/// how fast the host runs this kind of code right now.
struct Reference {
    src: Vec<u8>,
    dst: Vec<u8>,
    keys: Vec<u64>,
}

impl Reference {
    const BYTES: usize = 2 << 20;
    const KEYS: usize = 2048;

    fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Reference {
            src: (0..Self::BYTES).map(|_| next() as u8).collect(),
            dst: vec![0; Self::BYTES],
            keys: (0..Self::KEYS).map(|_| next() >> 16).collect(),
        }
    }

    fn pass(&mut self) {
        self.dst.copy_from_slice(&self.src);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.dst[..Self::BYTES / 16] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            if b & 1 == 0 {
                h = h.rotate_left(5);
            }
        }
        let map: BTreeMap<u64, usize> = self.keys.iter().map(|&k| (k, k as usize)).collect();
        let mut sum = 0usize;
        for &k in &self.keys {
            sum = sum.wrapping_add(map.range(k..).take(4).map(|(_, v)| v).sum::<usize>());
        }
        let mut sorted = self.keys.clone();
        sorted.sort_unstable_by_key(|&k| k.rotate_left(h as u32 & 63));
        black_box((h, sum, sorted));
    }
}

/// Run one pass of the reference kernel on the calling thread; its thread
/// CPU time in ns. The kernel's buffers are made once per process.
pub fn reference_pass() -> u64 {
    static KERNEL: Mutex<Option<Reference>> = Mutex::new(None);
    let mut kernel = KERNEL.lock().unwrap();
    let kernel = kernel.get_or_insert_with(Reference::new);
    cpu_timed(|| kernel.pass()).1
}

/// `REFERENCE_NOMINAL_NS` over the median of reference passes: the factor
/// that turns this run's host CPU times into reference-speed ones.
pub fn reference_scale(passes: &[u64]) -> f64 {
    let median = quantile(passes.iter().map(|&n| n as f64).collect(), 0.5);
    if median > 0.0 {
        REFERENCE_NOMINAL_NS / median
    } else {
        1.0
    }
}

/// One rank's view of one operation.
#[derive(Debug, Clone, Copy)]
pub struct RankOp {
    pub kind: Kind,
    pub vt_start: VNanos,
    pub vt_end: VNanos,
    /// CPU time the rank's thread spent in the call.
    pub cpu_ns: u64,
    pub bytes: u64,
    /// `WriteReport::segments` (0 for reads).
    pub pieces: u64,
    /// This rank's own checks of the operation passed.
    pub ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
}

/// One operation as the metrics count it: a collective call, its modeled
/// time that of its slowest rank and its host cost the CPU time of all its
/// ranks, or one rank's independent call.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub vt_ns: u64,
    pub cpu_ns: u64,
    pub bytes: u64,
    pub pieces: u64,
    pub ok: bool,
}

impl Op {
    /// Fold the ranks' shares of one collective call.
    pub fn collective(parts: &[RankOp]) -> Op {
        Op {
            kind: parts[0].kind,
            vt_ns: parts
                .iter()
                .map(|p| p.vt_end - p.vt_start)
                .max()
                .unwrap_or(0),
            cpu_ns: parts.iter().map(|p| p.cpu_ns).sum(),
            bytes: parts.iter().map(|p| p.bytes).sum(),
            pieces: parts.iter().map(|p| p.pieces).sum(),
            ok: parts.iter().all(|p| p.ok),
        }
    }

    pub fn independent(p: &RankOp) -> Op {
        Op::collective(std::slice::from_ref(p))
    }
}

/// Everything one set-up plus measured phase of a workload yields.
#[derive(Default)]
pub struct Phase {
    /// Host CPU time the process spent from the set-up's start to the end
    /// of its warm-up op.
    pub setup: Duration,
    /// Peak resident set (`VmHWM`) when set-up ended, in MiB.
    pub setup_rss_mib: f64,
    /// The timed ops, iteration by iteration; every iteration has as many.
    pub ops: Vec<Op>,
    /// Finished iterations of the closed loop (ops, pairs or rings).
    pub iterations: u64,
    /// Σ over iterations of the iteration's vtime span (max end − min
    /// start over ranks): the modeled makespan of the timed phase.
    pub makespan_vt: u64,
    /// Modeled durations of repeats of identical input, one group per
    /// kind of repeat (op kind, or whole rings).
    pub repeats: Vec<Vec<u64>>,
    /// Per-rank counter deltas over the timed phase.
    pub stats: Vec<StatsSnapshot>,
    /// File-system-wide latency histograms (warm-up included).
    pub latency: LatencySnapshot,
    /// `core::verify::check_mpi_atomicity` agreed with the oracle on the
    /// final image.
    pub second_opinion: bool,
    /// Thread CPU ns of the reference passes run between iterations.
    pub reference_ns: Vec<u64>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes).sum()
    }

    pub fn total(&self, f: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }

    pub fn per_op(&self, v: u64) -> f64 {
        v as f64 / self.ops.len().max(1) as f64
    }

    pub fn per_iter(&self, v: u64) -> f64 {
        v as f64 / self.iterations.max(1) as f64
    }

    /// Host CPU time of all timed ops at the reference speed.
    pub fn scaled_cpu_ns(&self) -> f64 {
        self.iteration_cpu_ns(true).iter().sum()
    }

    /// Median over iterations of an iteration's host CPU time per op.
    /// Per iteration, because the op kinds of a mixed iteration overlap
    /// in host time: over ops, the median of a write/read pair mix falls
    /// where the slowest reads meet the fastest writes, the least steady
    /// place of either distribution.
    pub fn cpu_op_p50_ns(&self) -> f64 {
        self.op_p50(false)
    }

    /// The same at the reference speed.
    pub fn scaled_cpu_op_p50_ns(&self) -> f64 {
        self.op_p50(true)
    }

    fn op_p50(&self, scaled: bool) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        let per_iter = (self.ops.len() / self.iterations as usize) as f64;
        let per_op = self
            .iteration_cpu_ns(scaled)
            .iter()
            .map(|c| c / per_iter)
            .collect();
        quantile(per_op, 0.5)
    }

    /// Per timed iteration, the host CPU time of its ops; `scaled`, each
    /// iteration's at the reference speed of the passes around it: pass k
    /// runs just before iteration k, and the median of the passes within
    /// `REFERENCE_WINDOW` iterations of it sets its factor, so a change of
    /// the host's speed within a run is followed and one slow pass is not.
    fn iteration_cpu_ns(&self, scaled: bool) -> Vec<f64> {
        if self.iterations == 0 {
            return Vec::new();
        }
        let per_iter = self.ops.len() / self.iterations as usize;
        self.ops
            .chunks(per_iter)
            .enumerate()
            .map(|(i, c)| {
                let cpu = c.iter().map(|o| o.cpu_ns).sum::<u64>() as f64;
                let hi = (i + REFERENCE_WINDOW + 1).min(self.reference_ns.len());
                let lo = i.saturating_sub(REFERENCE_WINDOW).min(hi);
                if scaled {
                    cpu * reference_scale(&self.reference_ns[lo..hi])
                } else {
                    cpu
                }
            })
            .collect()
    }

    pub fn vt_quantile_ns(&self, q: f64) -> f64 {
        quantile(self.ops.iter().map(|o| o.vt_ns as f64).collect(), q)
    }

    /// Largest max − min over the groups of identical repeats.
    pub fn repeat_spread_ns(&self) -> u64 {
        self.repeats
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| g.iter().max().unwrap() - g.iter().min().unwrap())
            .max()
            .unwrap_or(0)
    }
}

/// Upper q-quantile: the sample at 0-based position ⌊q·n⌋ of the sorted
/// samples. Always one of the samples, so a mix of two op kinds never
/// reports a value neither kind took; with equal counts of two kinds (a
/// write and a read per iteration) the median is the slower kind's
/// fastest op rather than the faster kind's slowest, a sample's least
/// steady statistic.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64) as usize).min(v.len() - 1)]
}

/// Median of host samples of a callable, timing `f` until `n` samples or
/// `cap` host time, whichever comes first (at least 3 samples).
pub fn host_median(n: usize, cap: Duration, mut f: impl FnMut() -> Duration) -> Duration {
    let begin = Instant::now();
    let mut samples = Vec::with_capacity(n);
    while samples.len() < n && (samples.len() < 3 || begin.elapsed() < cap) {
        samples.push(f().as_nanos() as f64);
    }
    Duration::from_nanos(quantile(samples, 0.5) as u64)
}

/// CPU time the calling thread has run so far, in ns. The host figures
/// are CPU time rather than wall time: on a small shared virtual machine
/// the hypervisor takes the CPUs away now and then (steal time), and wall
/// time counts those pauses as if the simulator had spent them.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have run since it started, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime only writes one timespec through the pointer,
    // which points at a live, properly laid out local.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Confine this process to the first CPU it may run on; threads started
/// later inherit the mask. With the four rank threads on one CPU, the
/// host cost of an op no longer depends on how the threads happen to
/// share two CPUs: cache lines bouncing between them, and lock waits
/// that spin on one CPU while the holder runs on the other.
pub fn pin_to_one_cpu() {
    const WORDS: usize = 16; // a 1024-bit cpu_set_t
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `size` bytes of `mask`, a
    // live local array of that size; pid 0 is this thread.
    let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
    let Some(first) = (0..WORDS * 64).find(|&c| got == 0 && mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; WORDS];
    one[first / 64] = 1 << (first % 64);
    // SAFETY: as above.
    unsafe {
        sched_setaffinity(0, size, one.as_ptr());
    }
}

/// Host CPU time of `f` on the calling thread.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = thread_cpu_ns();
    let r = f();
    (r, thread_cpu_ns() - t)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(v.clone(), 0.5), 6.0);
        assert_eq!(quantile(v.clone(), 0.9), 10.0);
        assert_eq!(quantile(v, 1.0), 10.0);
        assert_eq!(quantile(vec![7.0], 0.5), 7.0);
        assert_eq!(quantile(vec![], 0.5), 0.0);
        // Equal counts of two kinds: the median is the slower kind.
        assert_eq!(quantile(vec![3.0, 1.0, 3.0, 1.5], 0.5), 3.0);
    }

    #[test]
    fn gate_stops_every_rank_after_the_same_iteration() {
        let gate = Gate::new(3, Budget::Iters(4));
        let counts = std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|rank| {
                    let gate = Arc::clone(&gate);
                    s.spawn(move || {
                        let t = Instant::now();
                        let mut done = 0;
                        loop {
                            if rank == 0 {
                                gate.decide(done, t);
                            }
                            if !gate.enter() {
                                break done;
                            }
                            done += 1;
                            gate.leave();
                        }
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(counts, vec![4, 4, 4]);
    }
}
