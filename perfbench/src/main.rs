//! atomio's benchmark: one workload per process, through the public
//! `MpiFile` API, checked against independent oracles.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it holds every per-layer
//! metric instead. See README.md for the workloads, the metrics and what
//! each per-layer metric should move.

mod grid;
mod layers;
mod measure;
mod oracle;
mod ring;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use atomio::check::check_events;
use atomio::prelude::*;

use crate::grid::GridSpec;
use crate::layers::LayerInputs;
use crate::measure::{
    pin_to_one_cpu, process_cpu_ns, quantile, reference_scale, Budget, Kind, Phase,
};
use crate::oracle::{Grid, Ring};
use crate::ring::RingSpec;

/// The timed run is this many child processes of the program, one after
/// the other, each for an equal share of the time; every end-to-end figure
/// is the mean of theirs. Each process draws its own host cost on
/// `producer-consumer-tokens` (see README.md, "Measured spreads").
const PARTS: usize = 4;
/// Set-ups per child process: its `setup_s` is their median.
const SETUPS: usize = 3;
/// Ranks, the paper's smallest P.
const P: usize = 4;
const MIB: f64 = 1024.0 * 1024.0;

const USAGE: &str = "usage: perfbench --workload <colwise-rank-order|ghost-two-phase|\
producer-consumer-tokens> --seed <n> --seconds <s> --trace <0|1>";

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColwiseRankOrder,
    GhostTwoPhase,
    ProducerConsumerTokens,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "colwise-rank-order" => Some(Workload::ColwiseRankOrder),
            "ghost-two-phase" => Some(Workload::GhostTwoPhase),
            "producer-consumer-tokens" => Some(Workload::ProducerConsumerTokens),
            _ => None,
        }
    }
}

/// The pipelined multi-tier exchange: 2 ranks per node, so 2 nodes at
/// P = 4, double-buffered rounds of 4 stripes.
pub const PIPELINED: TwoPhaseConfig = TwoPhaseConfig {
    aggregators: None,
    ranks_per_node: 2,
    schedule: ExchangeSchedule::Pipelined {
        round_stripes: 4,
        depth: 2,
    },
};

/// A workload's geometry for one seed. The seed sets the bytes every rank
/// writes, and trims up to 1.6% off the geometry (0–64 rows off the
/// column-wise array and 0–64 columns off the ghost-cell array, in steps
/// of 16; 0–1 KiB off the ring's blocks, in steps of 256 bytes), so
/// modeled figures are a function of the seed's inputs rather than
/// constants of the program.
#[derive(Clone)]
enum Spec {
    Grid(GridSpec),
    Ring(RingSpec),
}

impl Spec {
    fn new(w: Workload, seed: u64, tiny: bool) -> Spec {
        let step = seed % 5;
        match w {
            Workload::ColwiseRankOrder => {
                let (m, n, r) = if tiny {
                    (32, 256, 8)
                } else {
                    (4096 - 16 * step, 8192, 16)
                };
                let spec = ColWise::new(m, n, P, r).expect("column-wise geometry");
                Spec::Grid(GridSpec {
                    grid: Grid::colwise(m, n, P, r),
                    filetypes: (0..P).map(|k| spec.partition(k).filetype).collect(),
                    profile: PlatformProfile::ibm_sp(),
                    strategy: Strategy::RankOrdering,
                    two_phase: TwoPhaseConfig::default(),
                    read_back: false,
                })
            }
            Workload::GhostTwoPhase => {
                let (rows, cols, g) = if tiny {
                    (64, 64, 4)
                } else {
                    (4096, 4096 - 16 * step, 8)
                };
                let spec = BlockBlock::new(rows, cols, 2, 2, g).expect("block-block geometry");
                Spec::Grid(GridSpec {
                    grid: Grid::ghost(rows, cols, 2, 2, g),
                    filetypes: (0..P).map(|k| spec.partition(k).filetype).collect(),
                    profile: PlatformProfile::ibm_sp(),
                    strategy: Strategy::TwoPhase,
                    two_phase: PIPELINED,
                    read_back: true,
                })
            }
            Workload::ProducerConsumerTokens => {
                let (block, rounds, rereads) = if tiny {
                    (4096, 2, 2)
                } else {
                    (65536 - 256 * step, 8, 4)
                };
                let profile = PlatformProfile {
                    lock_kind: LockKind::Distributed,
                    ..PlatformProfile::ibm_sp().with_coherence(CoherenceMode::LockDriven)
                };
                Spec::Ring(RingSpec {
                    ring: Ring {
                        p: P,
                        block,
                        rounds,
                        rereads,
                    },
                    profile,
                })
            }
        }
    }

    fn measure(
        &self,
        seed: u64,
        budget: Budget,
        sink: Option<&Arc<MemorySink>>,
        origin: u64,
    ) -> Phase {
        match self {
            Spec::Grid(g) => grid::measure(g, seed, budget, sink, origin),
            Spec::Ring(r) => ring::measure(r, seed, budget, sink, origin),
        }
    }

    /// Iterations of the traced run: enough to cover every op kind, few
    /// enough that the happens-before check stays quick.
    fn traced_iters(&self) -> u64 {
        match self {
            Spec::Grid(_) => 3,
            Spec::Ring(_) => 2,
        }
    }

    fn layer_inputs(&self, seed: u64) -> LayerInputs {
        match self {
            Spec::Grid(g) => {
                let bases = oracle::bases(seed, 0, g.grid.file_bytes());
                LayerInputs {
                    views: (0..P)
                        .map(|k| {
                            let view = FileView::new(0, Arc::clone(&g.filetypes[k])).expect("view");
                            (view, 0, g.grid.rect_bytes(k))
                        })
                        .collect(),
                    bufs: (0..P).map(|k| g.grid.rank_buffer(&bases, 0, k)).collect(),
                    profile: g.profile.clone(),
                    rank_ordered: g.strategy == Strategy::RankOrdering,
                }
            }
            Spec::Ring(r) => {
                let ring = r.ring;
                let bases = oracle::bases(seed, 0, ring.file_bytes());
                LayerInputs {
                    views: (0..P)
                        .map(|k| (FileView::contiguous(0), k as u64 * ring.block, ring.block))
                        .collect(),
                    bufs: (0..P).map(|k| ring.block_data(&bases, k, 0)).collect(),
                    profile: r.profile.clone(),
                    rank_ordered: false,
                }
            }
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child processes of a timed run.
    part: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?,
                    value,
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--part" => part = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, workload_name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        part,
    })
}

/// What one invocation prints.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// What a child process of a timed run hands its parent: one line of
    /// counts, then one line per metric.
    fn lines(&self) -> String {
        let mut out = format!("ops {} {} {}\n", self.attempted, self.failed, self.correct);
        for m in &self.metrics {
            out += &format!("metric {} {} {}\n", m.name, m.value, m.unit);
        }
        out
    }

    fn parse_lines(text: &str) -> Option<Report> {
        let mut lines = text.lines();
        let counts: Vec<&str> = lines.next()?.split(' ').collect();
        let ["ops", attempted, failed, correct] = counts[..] else {
            return None;
        };
        let metrics = lines
            .map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
                ["metric", name, value, unit] => Some(Metric::new(name, value.parse().ok()?, unit)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Report {
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            correct: correct.parse().ok()?,
            metrics,
        })
    }

    /// The children's reports as one: counts summed, metrics averaged.
    fn mean(parts: &[Report]) -> Report {
        let metrics = parts[0]
            .metrics
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let sum: f64 = parts.iter().map(|p| p.metrics[i].value).sum();
                Metric::new(&m.name, sum / parts.len() as f64, &m.unit)
            })
            .collect();
        Report {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            correct: parts.iter().all(|p| p.correct),
            metrics,
        }
    }
}

/// The timed run as [`PARTS`] child processes of this program, one after
/// the other; each runs [`end_to_end`] for its share of the time and is
/// waited for before the next starts.
fn in_parts(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut parts = Vec::with_capacity(PARTS);
    for k in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload_name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("part {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("part {k}: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let part = Report::parse_lines(&text)
            .filter(|p| {
                parts
                    .first()
                    .is_none_or(|q: &Report| q.metrics.len() == p.metrics.len())
            })
            .ok_or_else(|| format!("part {k}: unreadable report {text:?}"))?;
        parts.push(part);
    }
    Ok(Report::mean(&parts))
}

/// The timed run: set up (the first set-up counts from process start),
/// run the closed loop, set up again `SETUPS - 1` times, and report the
/// end-to-end metrics. Host figures are CPU time scaled to the reference
/// kernel's nominal speed: each timed iteration by the reference passes
/// around it, set-up by all of the run's passes.
fn end_to_end(spec: &Spec, seed: u64, secs: f64) -> Report {
    let phase = spec.measure(seed, Budget::For(Duration::from_secs_f64(secs)), None, 0);
    let mut setups = vec![phase.setup.as_secs_f64()];
    let mut passes = phase.reference_ns.clone();
    for _ in 1..SETUPS {
        let extra = spec.measure(seed, Budget::Iters(0), None, process_cpu_ns());
        setups.push(extra.setup.as_secs_f64());
        passes.extend(&extra.reference_ns);
    }
    let scale = reference_scale(&passes);
    let bytes = phase.bytes() as f64;
    let metrics = vec![
        Metric::new(
            "modeled_mibps",
            bytes / MIB / (phase.makespan_vt as f64 / 1e9),
            "MiB/s-modeled",
        ),
        Metric::new(
            "modeled_op_p50_us",
            phase.vt_quantile_ns(0.5) / 1e3,
            "us-modeled",
        ),
        Metric::new(
            "modeled_op_p90_us",
            phase.vt_quantile_ns(0.9) / 1e3,
            "us-modeled",
        ),
        Metric::new(
            "host_mibps",
            bytes / MIB / (phase.scaled_cpu_ns() / 1e9),
            "MiB/s-cpu-ref",
        ),
        Metric::new(
            "host_op_p50_ms",
            phase.scaled_cpu_op_p50_ns() / 1e6,
            "ms-cpu-ref",
        ),
        Metric::new("setup_s", quantile(setups, 0.5) * scale, "s"),
        // At the end of the first set-up: the timed iterations repeat its
        // warm-up iteration, and what grows after it is the benchmark's own
        // op records, whose size follows the host's speed.
        Metric::new("peak_rss_mib", phase.setup_rss_mib, "MiB"),
    ];
    report(&[&phase], metrics)
}

fn report(phases: &[&Phase], metrics: Vec<Metric>) -> Report {
    let attempted = phases.iter().map(|p| p.ops.len() as u64).sum();
    let failed = phases.iter().map(|p| p.failed()).sum();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    Report {
        attempted,
        failed,
        correct: failed == 0 && finite,
        metrics,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: an untraced closed loop for half the time (host and
/// counter figures), a short run with every layer recording into one
/// `MemorySink` (span vtime per category, happens-before check), then the
/// host-timed layer pass.
fn per_layer(spec: &Spec, seed: u64, secs: f64) -> Report {
    let plain = spec.measure(
        seed,
        Budget::For(Duration::from_secs_f64(secs / 2.0)),
        None,
        0,
    );
    let sink = Arc::new(MemorySink::new());
    let traced = spec.measure(
        seed,
        Budget::Iters(spec.traced_iters()),
        Some(&sink),
        process_cpu_ns(),
    );
    let events = sink.snapshot();
    let exported_ok = validate_chrome_trace(&export_chrome(&events)).is_ok();
    let hb = check_events(&events);
    // The sink also holds the warm-up iteration: count its ops too.
    let traced_ops =
        traced.ops.len() as f64 * (traced.iterations + 1) as f64 / traced.iterations.max(1) as f64;
    let span_us = |cat: Category| {
        let ns: u64 = events
            .iter()
            .filter(|e| e.cat == cat)
            .filter_map(|e| e.dur)
            .sum();
        ns as f64 / 1e3 / traced_ops
    };

    let s = &plain;
    let requests = s.total(|t| t.server_write_requests + t.server_read_requests);
    let writes: Vec<_> = s.ops.iter().filter(|o| o.kind == Kind::Write).collect();
    let pieces: u64 = writes.iter().map(|o| o.pieces).sum();
    let lat = &s.latency;
    let mut metrics = vec![
        Metric::new(
            "core.pieces_per_op",
            ratio(pieces, writes.len() as u64),
            "count",
        ),
        Metric::new("msg.comm_vtime_us_per_op", span_us(Category::Comm), "us"),
        Metric::new("pfs.server_requests_per_op", s.per_op(requests), "count"),
        Metric::new(
            "pfs.server_service_p50_ns",
            lat.server_service.p50() as f64,
            "ns",
        ),
        Metric::new(
            "pfs.server_service_p99_ns",
            lat.server_service.p99() as f64,
            "ns",
        ),
        Metric::new(
            "pfs.server_vtime_us_per_op",
            span_us(Category::Server),
            "us",
        ),
        Metric::new(
            "pfs.host_ns_per_request",
            if requests == 0 {
                0.0
            } else {
                s.cpu_op_p50_ns() / s.per_op(requests)
            },
            "ns",
        ),
        Metric::new(
            "pfs.lock_acquires_per_op",
            s.per_op(s.total(|t| t.lock_acquires)),
            "count",
        ),
        Metric::new(
            "pfs.serialized_grants_per_op",
            s.per_op(s.total(|t| t.lock_serialized_grants)),
            "count",
        ),
        Metric::new(
            "pfs.token_hit_ratio",
            ratio(s.total(|t| t.lock_token_hits), s.total(|t| t.lock_acquires)),
            "ratio",
        ),
        Metric::new("pfs.grant_wait_p50_ns", lat.grant_wait.p50() as f64, "ns"),
        Metric::new("pfs.grant_wait_p99_ns", lat.grant_wait.p99() as f64, "ns"),
        Metric::new(
            "pfs.revocations_per_ring",
            s.per_iter(s.total(|t| t.revocations_served)),
            "count",
        ),
        Metric::new(
            "pfs.revoke_flushed_bytes_per_ring",
            s.per_iter(s.total(|t| t.revoke_flushed_bytes)),
            "bytes",
        ),
        Metric::new(
            "pfs.coherence_invalidated_bytes_per_ring",
            s.per_iter(s.total(|t| t.coherence_invalidated_bytes)),
            "bytes",
        ),
        Metric::new(
            "pfs.revoke_flush_p50_ns",
            lat.revoke_flush.p50() as f64,
            "ns",
        ),
        Metric::new(
            "pfs.revoke_flush_p99_ns",
            lat.revoke_flush.p99() as f64,
            "ns",
        ),
        Metric::new(
            "pfs.cache_hit_ratio",
            ratio(
                s.total(|t| t.cache_hit_bytes),
                s.total(|t| t.cache_hit_bytes + t.cache_miss_bytes),
            ),
            "ratio",
        ),
        Metric::new(
            "pfs.server_reads_per_ring",
            s.per_iter(s.total(|t| t.server_read_requests)),
            "count",
        ),
        Metric::new(
            "collective.wire_inter_bytes_per_op",
            s.per_op(s.total(|t| t.wire_inter_bytes)),
            "bytes",
        ),
        Metric::new(
            "collective.wire_intra_bytes_per_op",
            s.per_op(s.total(|t| t.wire_intra_bytes)),
            "bytes",
        ),
        Metric::new(
            "collective.exchange_vtime_us_per_op",
            span_us(Category::Exchange),
            "us",
        ),
        Metric::new("vtime.repeat_spread_ns", s.repeat_spread_ns() as f64, "ns"),
        Metric::new(
            "trace.events_per_op",
            events.len() as f64 / traced_ops,
            "count",
        ),
        Metric::new(
            "trace.traced_host_op_p50_ms",
            traced.cpu_op_p50_ns() / 1e6,
            "ms",
        ),
        Metric::new("check.hb_conflicts", hb.findings.len() as f64, "count"),
        Metric::new("host.op_p50_cpu_ms", s.cpu_op_p50_ns() / 1e6, "ms"),
        Metric::new(
            "host.reference_pass_us",
            quantile(s.reference_ns.iter().map(|&n| n as f64).collect(), 0.5) / 1e3,
            "us",
        ),
    ];
    layers::measure(&spec.layer_inputs(seed), &mut metrics);
    let mut r = report(&[&plain, &traced], metrics);
    r.correct &= exported_ok;
    r
}

fn main() -> ExitCode {
    pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed, false);
    if args.part {
        print!("{}", end_to_end(&spec, args.seed, args.seconds).lines());
        return ExitCode::SUCCESS;
    }
    let report = if args.trace {
        per_layer(&spec, args.seed, args.seconds)
    } else {
        match in_parts(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::ColwiseRankOrder,
        Workload::GhostTwoPhase,
        Workload::ProducerConsumerTokens,
    ];

    #[test]
    fn tiny_geometries_run_clean() {
        for w in ALL {
            let spec = Spec::new(w, 3, true);
            let phase = spec.measure(3, Budget::Iters(3), None, process_cpu_ns());
            assert_eq!(phase.iterations, 3, "{w:?}");
            assert!(!phase.ops.is_empty(), "{w:?}");
            assert_eq!(phase.failed(), 0, "{w:?}: failed ops");
            assert!(phase.second_opinion, "{w:?}: verify disagrees");
            assert!(
                phase.makespan_vt > 0 && phase.scaled_cpu_ns() > 0.0,
                "{w:?}"
            );
        }
    }

    #[test]
    fn tiny_traced_runs_print_every_layer_metric() {
        for w in ALL {
            let spec = Spec::new(w, 5, true);
            let r = per_layer(&spec, 5, 0.05);
            assert!(r.correct, "{w:?}");
            assert_eq!(r.failed, 0, "{w:?}");
            assert_eq!(r.metrics.len(), 36, "{w:?}");
            let json = r.json();
            assert!(json.contains("\"check.hb_conflicts\""), "{json}");
        }
    }

    #[test]
    fn setup_only_pass_runs_no_timed_op() {
        let spec = Spec::new(Workload::GhostTwoPhase, 1, true);
        let phase = spec.measure(1, Budget::Iters(0), None, process_cpu_ns());
        assert!(phase.ops.is_empty());
        assert!(phase.setup > Duration::ZERO);
    }

    /// Each oracle must reject an output with one corrupted byte.
    #[test]
    fn oracles_reject_one_corrupted_byte() {
        let bases = oracle::bases(9, 0, 64 * 64);
        for grid in [Grid::colwise(16, 64, P, 8), Grid::ghost(64, 64, 2, 2, 4)] {
            let bases = &bases[..grid.file_bytes() as usize];
            let image = grid.image(bases, 1);
            let mut bad = image.clone();
            bad[grid.cols as usize + 5] ^= 0x40;
            assert_eq!(oracle::mismatches(&bad, &image), 1);
            // The read-back oracle: the image through a rank's rectangle.
            let want = grid.through_rect(&image, 0);
            let mut got = grid.through_rect(&image, 0);
            got[3] = got[3].wrapping_add(1);
            assert_eq!(oracle::mismatches(&got, &want), 1);
            // The previous data generation is wrong everywhere.
            assert_eq!(
                oracle::mismatches(&grid.image(bases, 0), &image),
                grid.file_bytes()
            );
        }
        let ring = Ring {
            p: P,
            block: 256,
            rounds: 3,
            rereads: 1,
        };
        let bases = oracle::bases(9, 1, ring.file_bytes());
        let want = ring.block_data(&bases, 2, 1);
        let mut got = want.clone();
        got[100] ^= 1;
        assert_eq!(oracle::mismatches(&got, &want), 1);
        // A stale read (the previous round's data) differs at every byte.
        let stale = ring.block_data(&bases, 2, 0);
        assert_eq!(oracle::mismatches(&stale, &want), ring.block);
        let image = ring.final_image(&bases);
        let mut bad = image.clone();
        bad[ring.block as usize * 3] ^= 0x80;
        assert_eq!(oracle::mismatches(&bad, &image), 1);
    }

    #[test]
    fn child_reports_round_trip_and_average() {
        let part = |v: f64, failed: u64| Report {
            attempted: 10,
            failed,
            correct: failed == 0,
            metrics: vec![
                Metric::new("host_mibps", v, "MiB/s-cpu-ref"),
                Metric::new("setup_s", v / 1e3, "s"),
            ],
        };
        let a = Report::parse_lines(&part(0.1 + 0.2, 0).lines()).unwrap();
        assert_eq!(a.metrics[0].value, 0.1 + 0.2, "values keep every digit");
        assert_eq!(a.metrics[1].unit, "s");
        let b = Report::parse_lines(&part(3.0, 2).lines()).unwrap();
        let m = Report::mean(&[a, b]);
        assert_eq!((m.attempted, m.failed, m.correct), (20, 2, false));
        assert!((m.metrics[0].value - 1.65).abs() < 1e-12);
        assert!(Report::parse_lines("ops 1 0 true\nmetric x nan-ish s\n").is_none());
        assert!(Report::parse_lines("").is_none());
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
