//! End-to-end benchmark of the TAS reproduction.
//!
//! One run simulates one workload at one seed in this single-threaded
//! process (every connection is simulated; no OS sockets) and reports
//! either the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run). See `README.md` for the workloads and the metric map.

pub mod layers;
mod probe;
pub mod workload;

use layers::{Layer, LayerTimes, Tracer};
use probe::Probe;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tas_sim::{Histogram, SimTime};
use workload::{build, idle_flows, Built, Counters, Shape, Workload};

/// Slices the steady window is run in; `sim_us_per_s` is their median.
const SLICES: u32 = 20;
/// Simulated interval between samples of the bulk flows' RTT estimates.
const RTT_SAMPLE: SimTime = SimTime::from_ms(1);

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload shape.
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the steady window is sized for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (connections plus requests, or bulk flows).
    pub attempted: u64,
    /// Operations failed (see `README.md`).
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Failed output checks; empty on a correct run.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A set-up simulation with its times in nominal seconds (see
/// [`probe`]).
struct Setup {
    built: Built,
    build_s: f64,
    ramp_s: f64,
}

/// Builds and ramps until every connection is established.
fn setup(
    shape: Shape,
    seed: u64,
    tracer: Option<&Tracer>,
    probe: &mut Probe,
) -> Result<Setup, String> {
    let before = probe.scale();
    let t0 = Instant::now();
    let mut built = build(shape, seed, tracer);
    let build_s = t0.elapsed().as_secs_f64();
    built.ramp()?;
    let ramp_s = t0.elapsed().as_secs_f64() - build_s;
    let scale = (before + probe.scale()) / 2.0;
    Ok(Setup {
        built,
        build_s: build_s * scale,
        ramp_s: ramp_s * scale,
    })
}

/// Measurements over one steady window.
struct Window {
    /// Simulated µs per nominal second of each slice.
    slice_rates: Vec<f64>,
    /// Simulated µs per host second of each slice, unscaled.
    raw_rates: Vec<f64>,
    /// Host seconds of the whole window, unscaled.
    host_s: f64,
    /// Events dispatched in the window.
    events: u64,
    /// Simulated length.
    sim: SimTime,
    /// Modeled counters at the window's start and end.
    c0: Counters,
    c1: Counters,
    /// Bulk senders' RTT estimates sampled every [`RTT_SAMPLE`] (µs).
    rtts: Vec<u32>,
}

impl Window {
    fn sim_us_per_s(&self) -> f64 {
        median(&self.slice_rates)
    }

    fn raw_us_per_s(&self) -> f64 {
        median(&self.raw_rates)
    }
}

/// Runs the warmup, then a steady window of `len` in [`SLICES`] slices.
/// With a tracer, charging is armed for exactly the window. Host time
/// covers only the simulation itself: the bulk RTT sampling between
/// steps and the probes between slices are not timed.
fn steady(b: &mut Built, len: SimTime, tracer: Option<&Tracer>, probe: &mut Probe) -> Window {
    b.warmup();
    let c0 = b.counters();
    let ev0 = b.sim.events_processed();
    let slice = len.as_nanos() / SLICES as u64;
    let bulk = b.shape.workload == Workload::BulklossTas;
    let step = if bulk { RTT_SAMPLE.as_nanos() } else { slice };
    let mut slice_rates = Vec::with_capacity(SLICES as usize);
    let mut raw_rates = Vec::with_capacity(SLICES as usize);
    let mut rtts = Vec::new();
    let mut host_s = 0.0;
    let start = b.sim.now().as_nanos();
    let mut scale_before = probe.scale();
    if let Some(t) = tracer {
        t.borrow_mut().armed = true;
    }
    for i in 0..SLICES as u64 {
        let (from, to) = (start + slice * i, start + slice * (i + 1));
        let mut slice_s = 0.0;
        for at in (from + step..to).step_by(step.max(1) as usize).chain([to]) {
            let t0 = Instant::now();
            b.sim.run_until(SimTime::from_ns(at));
            slice_s += t0.elapsed().as_secs_f64();
            if bulk {
                rtts.extend(b.flow_rtts_us());
            }
        }
        let slice_us = slice as f64 / 1e3;
        raw_rates.push(slice_us / slice_s);
        // The slice's speed: the mean of the probes on either side of it.
        let scale_after = probe.scale();
        slice_rates.push(slice_us / (slice_s * (scale_before + scale_after) / 2.0));
        scale_before = scale_after;
        host_s += slice_s;
    }
    if let Some(t) = tracer {
        t.borrow_mut().armed = false;
    }
    Window {
        slice_rates,
        raw_rates,
        host_s,
        events: b.sim.events_processed() - ev0,
        sim: SimTime::from_ns(b.sim.now().as_nanos() - start),
        c0,
        c1: b.counters(),
        rtts,
    }
}

/// Median of `xs` (0 when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of `h`, interpolated linearly inside the log-linear bucket
/// that holds it, so the value moves with the sample counts instead of
/// snapping to a bucket bound. The bucket bounds mirror `Histogram`'s
/// layout: exact below 64, then 64 equal sub-buckets per power of two.
fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let v = h.quantile(q);
    let (lo, hi) = if v < 64 {
        (v, v)
    } else {
        let shift = 63 - v.leading_zeros() - 6;
        let lo = (v >> shift) << shift;
        (lo, lo + (1 << shift) - 1)
    };
    let below = if lo == 0 {
        0.0
    } else {
        h.cdf_points(&[lo - 1])[0].1
    };
    let upto = h.cdf_points(&[hi])[0].1;
    let frac = if upto > below {
        ((q - below) / (upto - below)).clamp(0.0, 1.0)
    } else {
        1.0
    };
    (lo as f64 + frac * (hi - lo + 1) as f64).clamp(h.min() as f64, h.max() as f64)
}

/// Quantile `q` of unsorted samples, interpolated between order statistics.
fn sample_quantile(xs: &[u32], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    let next = v[(i + 1).min(v.len() - 1)] as f64;
    v[i] as f64 * (1.0 - frac) + next * frac
}

/// Peak resident memory of this process in MiB (`VmHWM`); NaN, which
/// fails the run, when it cannot be read.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seed variant `k` of the run's seed: variant 0 is the held-out seed,
/// the others seed the extra set-ups.
fn seed_variant(seed: u64, k: u64) -> u64 {
    (seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add(0x1405_7b7e_f767_814f)
}

/// Runs one invocation.
pub fn run(opts: Options) -> Report {
    let mut r = Report::default();
    let len = opts.shape.window(opts.seconds);
    if opts.trace {
        traced(opts, len, &mut r);
    } else {
        untraced(opts, len, &mut r);
    }
    let bad: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not a finite number", m.name))
        .collect();
    r.problems.extend(bad);
    r
}

/// Set-up several times (the held-out seed once, then `setup_reps`
/// times), then the steady window on the last set-up.
fn untraced(opts: Options, len: SimTime, r: &mut Report) {
    let shape = opts.shape;
    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    let held = seed_variant(opts.seed, 0);
    match setup(shape, held, None, &mut probe) {
        Ok(mut s) => {
            setup_s.push(s.build_s + s.ramp_s);
            let short = SimTime::from_ns(len.as_nanos() / 10);
            let w = steady(&mut s.built, short, None, &mut probe);
            let mut h = Report::default();
            modeled(&s.built, &w, &mut h);
            if h.failed > 0 {
                h.problems.push(format!("{} operations failed", h.failed));
            }
            r.problems.extend(
                s.built
                    .check()
                    .into_iter()
                    .chain(h.problems)
                    .map(|p| format!("held-out seed {held}: {p}")),
            );
        }
        Err(e) => r.problems.push(format!("held-out seed {held}: {e}")),
    }
    // All set-ups but the last two run at derived seeds, so a set-up
    // whose cost depends on the seed (a lost handshake packet under bulk
    // loss) enters the median by its share over seeds. The last two run at
    // the run's seed and must simulate the same thing.
    let reps = shape.setup_reps.max(2);
    let mut digest = None;
    let mut rep = 0;
    let mut s = loop {
        let own = rep + 2 >= reps;
        let seed = if own {
            opts.seed
        } else {
            seed_variant(opts.seed, rep as u64 + 1)
        };
        let s = match setup(shape, seed, None, &mut probe) {
            Ok(s) => s,
            Err(e) => {
                r.problems.push(format!("seed {seed}: {e}"));
                return;
            }
        };
        setup_s.push(s.build_s + s.ramp_s);
        r.problems.extend(
            s.built
                .check()
                .into_iter()
                .map(|p| format!("seed {seed}: {p}")),
        );
        if own {
            let d = s.built.digest();
            if digest.is_some_and(|d0| d0 != d) {
                r.problems
                    .push(format!("set-up digest differs between reps: {d:016x}"));
            }
            digest = Some(d);
        }
        rep += 1;
        if rep >= reps {
            break s;
        }
    };
    let w = steady(&mut s.built, len, None, &mut probe);
    r.problems.extend(s.built.check());
    r.notes.push(format!(
        "setup digest {:016x}, window digest {:016x}",
        digest.unwrap_or_default(),
        s.built.digest()
    ));
    r.push("sim_us_per_s", w.sim_us_per_s(), "us/s");
    r.push("setup_s", median(&setup_s), "s");
    r.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let e2e = modeled(&s.built, &w, r);
    r.metrics.extend(e2e);
    r.notes.push(format!(
        "window {:.3} sim ms in {:.3} s host, {} events; unscaled sim_us_per_s {:.1}; {} set-ups",
        w.sim.as_secs_f64() * 1e3,
        w.host_s,
        w.events,
        w.raw_us_per_s(),
        setup_s.len(),
    ));
}

/// The simulated end-to-end metrics of a window. Sets the report's
/// failure accounting and notes the latency sample count.
fn modeled(b: &Built, w: &Window, r: &mut Report) -> Vec<Metric> {
    let (c0, c1) = (&w.c0, &w.c1);
    let secs = w.sim.as_secs_f64();
    let shape = b.shape;
    let (ops, bytes, lat50, lat99, samples) = if shape.workload == Workload::BulklossTas {
        // Bulk: an operation is a packet the receiver's fast path
        // handled; latency is the senders' per-flow RTT estimate.
        r.attempted = shape.conns as u64;
        r.failed = idle_flows(c0, c1, shape.conns);
        (
            c1.bulk_rx_pkts - c0.bulk_rx_pkts,
            c1.bulk_rx_bytes - c0.bulk_rx_bytes,
            sample_quantile(&w.rtts, 0.5),
            sample_quantile(&w.rtts, 0.99),
            w.rtts.len() as u64,
        )
    } else {
        let h = b.rpc_latency();
        let (req, resp) = shape.workload.rpc_sizes();
        let done = c1.rpc_done - c0.rpc_done;
        let established = b.established();
        r.attempted = shape.conns as u64 + c1.rpc_sent;
        r.failed = (shape.conns as u64).saturating_sub(established) + c1.rpc_rexmits;
        (
            done,
            done * (req + resp) as u64,
            hist_quantile(&h, 0.5) / 1e3,
            hist_quantile(&h, 0.99) / 1e3,
            h.count(),
        )
    };
    if ops == 0 {
        r.problems
            .push("no operation completed in the window".into());
    }
    let pkts = c1.server_pkts - c0.server_pkts;
    let cycles = c1.server_cycles - c0.server_cycles;
    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let out = vec![
        metric(
            "sim_goodput_gbps",
            bytes as f64 * 8.0 / secs / 1e9,
            "Gbit/s",
        ),
        metric("sim_mops", ops as f64 / secs / 1e6, "Mops"),
        metric("sim_lat_p50_us", lat50, "us"),
        metric("sim_lat_p99_us", lat99, "us"),
        metric(
            "sim_cycles_per_pkt",
            cycles as f64 / pkts.max(1) as f64,
            "cycles",
        ),
    ];
    r.notes.push(format!(
        "latency samples {samples}; fail_frac {} ({} of {})",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    out
}

/// A traced steady window: host time per layer beside the window it
/// covers.
pub struct Traced {
    /// Host time and events charged per layer.
    pub times: LayerTimes,
    /// Simulated-result digest at the window's end.
    pub digest: u64,
    built: Built,
    window: Window,
}

impl Traced {
    /// Median simulated µs per host second over the window's slices.
    pub fn sim_us_per_s(&self) -> f64 {
        self.window.sim_us_per_s()
    }

    /// Host seconds of the whole window.
    pub fn host_s(&self) -> f64 {
        self.window.host_s
    }

    /// `sim.engine` self time: the window minus every wrapped call.
    pub fn engine_s(&self) -> f64 {
        self.window.host_s - self.times.ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Attribution failures: unmapped event kinds, events not charged to
    /// exactly one layer, or layers charged more than the window lasted.
    pub fn attribution_problems(&self) -> Vec<String> {
        let t = &self.times;
        let mut bad: Vec<String> = t
            .unmapped
            .iter()
            .map(|u| format!("unmapped event kind {u}"))
            .collect();
        let charged: u64 = t.events.iter().sum();
        if charged != self.window.events {
            bad.push(format!(
                "attribution: {charged} events charged, {} dispatched",
                self.window.events
            ));
        }
        if self.engine_s() < 0.0 {
            bad.push(format!(
                "attribution: layers charged more than the {} s window",
                self.window.host_s
            ));
        }
        bad
    }
}

/// Sets up `shape` at `seed` with every agent wrapped, then runs a steady
/// window of `len` with charging armed. `inject` plants a fixed delay in
/// every call charged to one layer.
pub fn trace_window(
    shape: Shape,
    seed: u64,
    len: SimTime,
    inject: Option<(Layer, Duration)>,
) -> Result<Traced, String> {
    let tracer: Tracer = Rc::new(RefCell::new(LayerTimes {
        inject,
        ..LayerTimes::default()
    }));
    let mut probe = Probe::new();
    let mut s = setup(shape, seed, Some(&tracer), &mut probe)?;
    let window = steady(&mut s.built, len, Some(&tracer), &mut probe);
    let digest = s.built.digest();
    let times = std::mem::take(&mut *tracer.borrow_mut());
    Ok(Traced {
        times,
        digest,
        built: s.built,
        window,
    })
}

/// An untraced pass and a traced pass at the same seed: their digests
/// must match, and the traced pass's layer times must close.
fn traced(opts: Options, len: SimTime, r: &mut Report) {
    let shape = opts.shape;
    let mut probe = Probe::new();
    let plain = setup(shape, opts.seed, None, &mut probe).map(|mut s| {
        let w = steady(&mut s.built, len, None, &mut probe);
        (s.build_s, s.ramp_s, w.sim_us_per_s(), s.built.digest())
    });
    let ((build_s, ramp_s, plain_rate, plain_digest), t) =
        match (plain, trace_window(shape, opts.seed, len, None)) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                r.problems.push(e);
                return;
            }
        };
    if t.digest != plain_digest {
        r.problems.push(format!(
            "traced digest {:016x} != untraced digest {plain_digest:016x}",
            t.digest
        ));
    }
    r.problems.extend(t.built.check());
    r.problems.extend(t.attribution_problems());
    let w = &t.window;
    for layer in Layer::ALL {
        let (self_s, events) = if layer == Layer::Engine {
            (t.engine_s(), w.events)
        } else {
            (t.times.self_s(layer), t.times.event_count(layer))
        };
        let n = layer.name();
        r.push(format!("{n}.self_s"), self_s, "s");
        r.push(format!("{n}.events"), events as f64, "count");
        let per_event = if events == 0 {
            0.0
        } else {
            self_s * 1e9 / events as f64
        };
        r.push(format!("{n}.ns_per_event"), per_event, "ns");
    }
    r.push("sim.events_per_s", w.events as f64 / w.host_s, "1/s");
    r.push("setup.build_s", build_s, "s");
    r.push("setup.ramp_s", ramp_s, "s");
    let traced_rate = t.sim_us_per_s();
    r.push(
        "trace.overhead_share",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    counters(w, shape, r);
    modeled(&t.built, w, r);
    r.notes.push(format!(
        "digest {:016x} traced == untraced: {}; window {:.6} s = layers {:.6} s + engine {:.6} s; {} events; sim_us_per_s untraced {plain_rate:.1} traced {traced_rate:.1}",
        t.digest,
        t.digest == plain_digest,
        w.host_s,
        w.host_s - t.engine_s(),
        t.engine_s(),
        w.events
    ));
}

/// The modeled per-layer counters over the window.
fn counters(w: &Window, shape: Shape, r: &mut Report) {
    let (a, b) = (&w.c0, &w.c1);
    let d = |f: fn(&Counters) -> u64| (f(b) - f(a)) as f64;
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pkts = d(|c| c.fp_pkts_rx);
    let exc = d(|c| c.fp_exceptions);
    r.push("tas.fp.pkts_rx", pkts, "count");
    r.push("tas.fp.exception_share", share(exc, pkts + exc), "ratio");
    r.push("tas.fp.drop_ooo", d(|c| c.fp_drop_ooo), "count");
    r.push("tas.fp.fast_rexmits", d(|c| c.fp_fast_rexmits), "count");
    r.push(
        "tas.sp.timeout_rexmits",
        d(|c| c.sp_timeout_rexmits),
        "count",
    );
    r.push("tas.host.drop_backlog", d(|c| c.drop_backlog), "count");
    r.push(
        "baselines.tcp.retransmits",
        d(|c| c.tcp_retransmits),
        "count",
    );
    let drops = d(|c| c.sw_drops);
    r.push(
        "netsim.switch.drop_share",
        share(drops, drops + d(|c| c.sw_forwarded)),
        "ratio",
    );
    r.push("netsim.switch.ecn_marked", d(|c| c.sw_marked), "count");
    r.push(
        "apps.loadgen.rexmit_share",
        share(d(|c| c.rpc_rexmits), d(|c| c.rpc_sent)),
        "ratio",
    );
    // An operation is a completed RPC, or a packet the bulk receiver's
    // fast path handled.
    let ops = if shape.workload == Workload::BulklossTas {
        d(|c| c.bulk_rx_pkts)
    } else {
        d(|c| c.rpc_done)
    };
    r.push(
        "cpusim.cycles_per_op.fp",
        share(d(|c| c.fp_cycles), ops),
        "cycles",
    );
    r.push(
        "cpusim.cycles_per_op.sp",
        share(d(|c| c.sp_cycles), ops),
        "cycles",
    );
    r.push(
        "cpusim.cycles_per_op.app",
        share(d(|c| c.app_cycles), ops),
        "cycles",
    );
}
