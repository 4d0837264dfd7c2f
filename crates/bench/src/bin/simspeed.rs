//! Simulator hot-loop speed harness: `BENCH_simspeed.json`.
//!
//! Measures the two loops the terabit-scale sweeps live in:
//!
//! * **events/sec** — steady-state event-queue churn (pop + re-arm with a
//!   cancellation mix, the RTO-timer workload) on the hierarchical timing
//!   wheel, at 10k / 100k / 1M concurrent flows. The same workload runs
//!   on the retained [`HeapQueue`] (the pre-wheel engine) at the 100k
//!   point, and the wheel/heap ratio is gated at [`MIN_SPEEDUP`].
//! * **packets/sec** — the fast-path receive loop ([`FastPath::rx_segment`]
//!   through flow lookup, payload pooling, and ring commit) at the same
//!   flow counts, timed after one untimed pass over every flow so that it
//!   measures steady state rather than first touch.
//!
//! ```text
//! simspeed             # generate + check
//! simspeed generate    # run the workloads, write BENCH_simspeed.json
//! simspeed check       # gate current file against baselines/ + MIN_SPEEDUP
//! simspeed pin         # copy current BENCH_simspeed.json into baselines/
//! simspeed fingerprint # deterministic dispatch-order hashes (no clocks)
//! ```
//!
//! Wall-clock rates are *not* byte-deterministic, so this report is kept
//! out of `bench-report`'s rerun-identity sweep; the `fingerprint` mode
//! carries the determinism proof instead (two fresh processes must print
//! identical bytes). Rates gate against the pinned baseline with a wide
//! tolerance (shared CI runners jitter); the speedup ratio is measured
//! wheel-vs-heap inside one process, so it is machine-independent and
//! gated absolutely.

use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::Instant;
use tas_bench::report::{self, compare, Metric, MetricData, Report};
use tas_bench::scaled;
use tas_cpusim::CycleAccount;
use tas_proto::{FlowKey, MacAddr, Segment, TcpFlags, TcpHeader};
use tas_shm::ByteRing;
use tas_sim::{EventId, EventQueue, HeapQueue, Rng, SimTime};
use tas::fastpath::FastPath;
use tas::flow::{
    FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
};
use tas::TasCosts;

/// Minimum wheel-over-heap events/sec ratio at the 100k-flow point.
const MIN_SPEEDUP: f64 = 3.0;

/// Relative tolerance for wall-clock rates vs the pinned baseline.
const RATE_TOL: f64 = 0.60;

const FLOW_POINTS: [(usize, &str); 3] = [(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")];

fn fnv(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The RTO-reset workload, the terabit-sim timer hot loop: a clock
/// advances one simulated packet arrival per op (aggregate packet rate
/// scales with the flow count, so every flow's timer is reset every
/// 10 ms regardless of scale), and each arrival re-arms that flow's
/// retransmission timer `g` reset-intervals out. Timers therefore almost
/// never fire live — the queue's job is absorbing constant re-arms.
///
/// With `USE_CANCEL = true` (the wheel engine) the superseded timer is
/// cancelled and reclaimed. With `USE_CANCEL = false` this reproduces the
/// pre-PR heap engine: no cancellation existed, so every reset leaves a
/// ghost entry that the queue must still pop at its deadline and the
/// caller must discard by generation check — the queue carries ~`g`
/// ghosts per live timer at steady state.
///
/// Returns (live-fire dispatch hash, best sustained ops/sec). The hash
/// covers only live (non-ghost) fires, so both engines must produce
/// identical bytes — ghost handling is invisible to the simulation by
/// construction, and the fingerprint proves it. The rate is the fastest
/// of 8 equal chunks of the measured ops: a scheduler burst on a shared
/// runner poisons at most a chunk or two, and the minimum-time chunk
/// reflects the engine's actual speed.
/// Per-flow timer record: cancel handle plus the generation token that
/// identifies ghosts. Padded to a 16-byte cell so a record never spans
/// two cache lines.
#[repr(align(16))]
#[derive(Clone, Copy)]
struct FlowTimer {
    id: EventId,
    token: u32,
}

macro_rules! churn_impl {
    ($name:ident, $queue:ty, $use_cancel:expr) => {
        fn $name(flows: usize, ops: u64, g: u64) -> (u64, f64) {
            const CHUNKS: u64 = 8;
            let chunk_ops = (ops / CHUNKS).max(1);
            let measured = chunk_ops * CHUNKS;
            // One full reset sweep per flow every 10 ms of simulated time.
            let step_ps = (10_000_000_000u64 / flows as u64).max(1);
            let rto_ps = g * 10_000_000_000;
            let warmup = (g + 1) * flows as u64;
            let mut q: $queue = <$queue>::new();
            let mut rng = Rng::new(0x5157_5545_5545 ^ flows as u64);
            // Per-flow timer state (handle + generation token), kept in one
            // record per flow the way FlowState keeps it — one cache line
            // per flow touch, for both engines alike. 16-byte alignment
            // keeps a record from straddling two lines.
            let mut timers: Vec<FlowTimer> = Vec::with_capacity(flows);
            for f in 0..flows as u64 {
                timers.push(FlowTimer {
                    id: q.push(SimTime::from_ps(1 + f * step_ps + rto_ps), f),
                    token: 0,
                });
            }
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut now = flows as u64 * step_ps;
            let mut resets = 0u64;
            let mut best_secs = f64::INFINITY;
            let mut chunk_t0 = Instant::now();
            let mut f_next = rng.below(flows as u64) as usize;
            while resets < warmup + measured {
                if resets >= warmup && (resets - warmup) % chunk_ops == 0 {
                    let t = Instant::now();
                    if resets > warmup {
                        best_secs = best_secs.min((t - chunk_t0).as_secs_f64());
                    }
                    chunk_t0 = t;
                }
                resets += 1;
                now += step_ps;
                // Arrivals are polled in bursts (the paper's fast path runs
                // DPDK-style), so the next packet's flow is known while the
                // current one is processed: touch its timer record now so
                // the fetch overlaps this op — for both engines alike.
                let f = f_next;
                f_next = rng.below(flows as u64) as usize;
                std::hint::black_box(timers[f_next].token);
                // Dispatch everything due; ghosts (stale tokens) are
                // discarded exactly as the pre-PR engine's handlers did.
                while q.peek_time().is_some_and(|pt| pt.as_ps() <= now) {
                    let Some((te, v)) = q.pop() else { break };
                    let (f, tok) = ((v & 0xffff_ffff) as usize, (v >> 32) as u32);
                    if tok != timers[f].token {
                        continue; // Ghost of a superseded timer.
                    }
                    // Live RTO expiry: hash it and back off.
                    fnv(&mut hash, te.as_ps());
                    fnv(&mut hash, v);
                    let tok = timers[f].token.wrapping_add(1);
                    timers[f].token = tok;
                    let nv = f as u64 | ((tok as u64) << 32);
                    timers[f].id = q.push(te + SimTime::from_ps(rto_ps), nv);
                }
                // The packet arrived for flow `f`: reset its timer.
                let tok = timers[f].token.wrapping_add(1);
                timers[f].token = tok;
                if $use_cancel {
                    q.cancel(timers[f].id);
                }
                let nv = f as u64 | ((tok as u64) << 32);
                timers[f].id = q.push(SimTime::from_ps(now + rto_ps), nv);
            }
            best_secs = best_secs.min(chunk_t0.elapsed().as_secs_f64());
            (hash, chunk_ops as f64 / best_secs.max(1e-9))
        }
    };
}

churn_impl!(churn_wheel, EventQueue<u64>, true);
churn_impl!(churn_heap, HeapQueue<u64>, false);

/// Reset-intervals of RTO for the timed runs (ghost depth on the heap).
/// Real stacks re-arm the RTO on every ACK, so an RTO period spans
/// hundreds of resets; 30 is a conservative stand-in that keeps the heap
/// variant's warmup and ghost memory bounded.
const TIMING_G: u64 = 30;

/// Timed trials per engine at the gated 100k point; the best rate of each
/// engine is used, which washes out shared-runner scheduler jitter.
const TRIALS: usize = 3;

/// Shorter RTO for fingerprints so live expiries are frequent enough to
/// exercise the dispatch path in a bounded run.
const FP_G: u64 = 3;

fn flow_key(i: usize) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        80,
        Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        7777,
    )
}

fn install(fp: &mut FastPath, i: usize) -> u32 {
    fp.install_flow(FlowState {
        conn: FpConnMgmt::new(i as u64, 0, flow_key(i), MacAddr::for_host(2), 0),
        snd: FpSendRel::new(ByteRing::new(16), 100),
        rcv: FpRecvRel::new(ByteRing::new(4096), 1_000),
        fc: FpFlowCtrl::new(65_535, 0),
        cc: FpCongCtrl::new(RateBucket::unlimited()),
    })
}

const PAYLOAD: usize = 512;

/// Fast-path receive loop: in-order data segments round-robin over
/// `flows` installed connections, each iteration covering 4-tuple lookup,
/// pooled payload construction, ring commit, and the app-side drain. The
/// first `warm` of the `ops` iterations are not timed. Returns
/// (rx-byte-count hash over all iterations, elapsed seconds, packets
/// timed).
fn packet_churn(flows: usize, warm: u64, ops: u64) -> (u64, f64, u64) {
    let mut fp = FastPath::new(
        Ipv4Addr::new(10, 0, 0, 1),
        MacAddr::for_host(1),
        1448,
        TasCosts::default(),
    );
    let fids: Vec<u32> = (0..flows).map(|i| install(&mut fp, i)).collect();
    let mut offs = vec![0u64; flows];
    let mut acct = CycleAccount::new();
    let data = [0xa5u8; PAYLOAD];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut done = 0u64;
    let mut start = Instant::now();
    for op in 0..ops {
        if op == warm {
            start = Instant::now();
        }
        let i = (op as usize) % flows;
        let key = flow_key(i);
        let seq = 1_001u32.wrapping_add(offs[i] as u32);
        let mut h = TcpHeader::new(7777, 80, seq, 101, TcpFlags::ACK | TcpFlags::PSH);
        h.window = 60_000;
        h.options.timestamp = Some((op as u32, 0));
        let seg = Segment::tcp(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            key.remote_ip,
            key.local_ip,
            h,
            &data[..],
            true,
        );
        fp.rx_segment(SimTime::from_us(op + 1), seg, &mut acct);
        offs[i] += PAYLOAD as u64;
        if op >= warm {
            done += 1;
        }
        fp.out.packets.clear();
        fp.out.notices.clear();
        fp.out.exceptions.clear();
        fp.out.tx_timers.clear();
        // The application reads everything committed so far, keeping the
        // ring in steady state (non-allocating consume, not `pop`).
        let Some(flow) = fp.flows.get_mut(fids[i]) else {
            continue;
        };
        let n = flow.rcv.rx().len() as u64;
        fnv(&mut hash, n);
        flow.rcv.consume(n);
    }
    (hash, start.elapsed().as_secs_f64().max(1e-9), done)
}

fn event_ops() -> u64 {
    scaled(1_000_000, 8_000_000)
}

/// Minimum timed fast-path receive ops per flow point.
fn packet_ops() -> u64 {
    scaled(300_000, 2_000_000)
}

/// Timed receive ops per flow at every flow point, on top of the untimed
/// warm pass: each flow's state is revisited several times, so the rate
/// reflects the steady-state loop at that flow count.
const PACKET_TOUCHES: u64 = 3;

fn generate() -> Result<Report, String> {
    let mut r = Report::new("simspeed", "Simulator hot-loop throughput", 0);
    r.param("event_ops", event_ops())
        .param("packet_ops", packet_ops())
        .param("packet_touches", PACKET_TOUCHES)
        .param("payload", PAYLOAD);
    let mut heap_rate_100k: f64 = 0.0;
    let mut wheel_rate_100k: f64 = 0.0;
    for (flows, tag) in FLOW_POINTS {
        eprintln!("simspeed: event churn, {flows} flows ...");
        let (_, mut rate) = churn_wheel(flows, event_ops(), TIMING_G);
        if flows == 100_000 {
            // The gated point: interleave repeated trials of both engines
            // and keep each one's best, so the in-process ratio reflects
            // engine speed rather than whichever trial a noisy neighbour
            // landed on.
            wheel_rate_100k = rate;
            for t in 0..TRIALS {
                eprintln!("simspeed: event churn (pre-PR heap engine), {flows} flows, trial {t} ...");
                let (_, hrate) = churn_heap(flows, event_ops(), TIMING_G);
                heap_rate_100k = heap_rate_100k.max(hrate);
                if t + 1 < TRIALS {
                    eprintln!("simspeed: event churn, {flows} flows, trial {} ...", t + 1);
                    let (_, wrate) = churn_wheel(flows, event_ops(), TIMING_G);
                    wheel_rate_100k = wheel_rate_100k.max(wrate);
                }
            }
            rate = wheel_rate_100k;
        }
        r.push(Metric::value(&format!("events_{tag}"), "ops", rate).with_tol(RATE_TOL));
    }
    r.push(Metric::value("events_heap_100k", "count", heap_rate_100k));
    let speedup = wheel_rate_100k / heap_rate_100k.max(1e-9);
    r.push(Metric::value("speedup_100k", "x", speedup));
    for (flows, tag) in FLOW_POINTS {
        eprintln!("simspeed: fastpath rx churn, {flows} flows ...");
        let warm = flows as u64;
        let timed = packet_ops().max(PACKET_TOUCHES * flows as u64);
        let (_, secs, done) = packet_churn(flows, warm, warm + timed);
        r.push(Metric::value(&format!("packets_{tag}"), "ops", done as f64 / secs)
            .with_tol(RATE_TOL));
    }
    eprintln!(
        "simspeed: 100k-flow events/sec: heap {heap_rate_100k:.0} -> wheel {wheel_rate_100k:.0} \
         ({speedup:.2}x)"
    );
    let path = r.write().map_err(|e| format!("write report: {e}"))?;
    let body = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
    report::validate(&body)?;
    println!("wrote {}", path.display());
    Ok(r)
}

fn speedup_of(r: &Report) -> Option<f64> {
    r.metrics.iter().find(|m| m.name == "speedup_100k").and_then(|m| match m.data {
        MetricData::Value(v) => Some(v),
        _ => None,
    })
}

fn check(r: &Report) -> ExitCode {
    // Absolute gate: the wheel must beat the heap engine by MIN_SPEEDUP
    // on the same machine, same run.
    match speedup_of(r) {
        Some(s) if s >= MIN_SPEEDUP => {
            println!("simspeed: speedup_100k {s:.2}x >= {MIN_SPEEDUP}x");
        }
        Some(s) => {
            eprintln!("simspeed: speedup_100k {s:.2}x below required {MIN_SPEEDUP}x");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("simspeed: report has no speedup_100k metric");
            return ExitCode::FAILURE;
        }
    }
    // Relative gate: rates vs the pinned baseline, wide tolerance.
    let base_path = report::baselines_dir().join("BENCH_simspeed.json");
    let Ok(body) = std::fs::read_to_string(&base_path) else {
        println!("simspeed: no baseline at {}, skipping", base_path.display());
        return ExitCode::SUCCESS;
    };
    let base = match Report::from_json(&body) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("simspeed: bad baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let regs = compare(r, &base);
    if regs.iter().any(|x| x.field == "scale") {
        println!(
            "simspeed: scale mismatch (current {}, baseline {}), skipping",
            r.scale, base.scale
        );
        return ExitCode::SUCCESS;
    }
    if regs.is_empty() {
        println!("simspeed: gate passed ({} metrics)", base.metrics.len());
        return ExitCode::SUCCESS;
    }
    eprintln!("REGRESSIONS ({}):", regs.len());
    for reg in &regs {
        eprintln!("  {reg}");
    }
    ExitCode::FAILURE
}

fn load_current() -> Result<Report, String> {
    let path = report::repo_root().join("BENCH_simspeed.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|_| format!("missing {} (run `simspeed generate`)", path.display()))?;
    Report::from_json(&body)
}

fn pin(r: &Report) -> ExitCode {
    let dir = report::baselines_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("simspeed: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = dir.join("BENCH_simspeed.json");
    match std::fs::write(&path, r.to_json()) {
        Ok(()) => {
            println!("pinned {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simspeed: write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Deterministic dispatch-order hashes: no wall clock anywhere in the
/// output, so two fresh processes must print identical bytes. Fixed op
/// counts (independent of quick/full scale) keep the output stable
/// across CI configurations.
fn fingerprint() -> ExitCode {
    for (flows, tag) in [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")] {
        let (wheel, _) = churn_wheel(flows, 200_000, FP_G);
        let (heap, _) = churn_heap(flows, 200_000, FP_G);
        println!("events_{tag}: wheel {wheel:016x} heap {heap:016x}");
        if wheel != heap {
            eprintln!("simspeed: wheel and heap dispatch orders diverged at {flows} flows");
            return ExitCode::FAILURE;
        }
    }
    for (flows, tag) in [(10_000, "10k"), (100_000, "100k")] {
        let (h, _, done) = packet_churn(flows, 0, 100_000);
        println!("packets_{tag}: {h:016x} ({done} pkts)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "generate" => match generate() {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simspeed: {e}");
                ExitCode::FAILURE
            }
        },
        "check" => match load_current() {
            Ok(r) => check(&r),
            Err(e) => {
                eprintln!("simspeed: {e}");
                ExitCode::FAILURE
            }
        },
        "pin" => match load_current() {
            Ok(r) => pin(&r),
            Err(e) => {
                eprintln!("simspeed: {e}");
                ExitCode::FAILURE
            }
        },
        "fingerprint" => fingerprint(),
        "" => match generate() {
            Ok(r) => check(&r),
            Err(e) => {
                eprintln!("simspeed: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("usage: simspeed [generate|check|pin|fingerprint]  (got {other:?})");
            ExitCode::FAILURE
        }
    }
}
