//! Attribution self-test: a fixed delay planted in one layer's wrapper
//! must be charged to that layer, leave every simulated result unchanged,
//! and show as a `sim_us_per_s` regression under the benchmark's bound.

use perfbench::layers::Layer;
use perfbench::trace_window;
use perfbench::workload::{Shape, Workload};
use std::time::Duration;
use tas_sim::SimTime;

/// A small echo shape: the same layers as `echo16k_tas`, in seconds.
fn small_echo() -> Shape {
    Shape {
        conns: 240,
        client_hosts: 2,
        server_cores: (2, 2),
        warmup: SimTime::from_ms(1),
        setup_reps: 1,
        ..Workload::Echo16kTas.shape()
    }
}

/// The bound `BENCHMARK.json` fixes for end-to-end metric `name`.
fn bound(name: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let at = text
        .find(&format!("\"name\": \"{name}\""))
        .expect("metric listed in BENCHMARK.json");
    let rest = &text[at..];
    let rest = &rest[rest.find("\"bound\":").expect("metric has a bound") + 8..];
    let end = rest.find(['}', ',']).expect("bound value ends");
    rest[..end].trim().parse().expect("bound is a number")
}

#[test]
fn planted_delay_is_charged_to_its_layer_and_regresses_sim_speed() {
    let shape = small_echo();
    let len = SimTime::from_ms(8);
    let base = trace_window(shape, 11, len, None).expect("base run sets up");
    // Plant as much time again as the whole base window took, spread over
    // the fast-path receive calls, whatever the build profile's speed.
    let rx_events = base.times.event_count(Layer::TasFpRx);
    assert!(
        rx_events > 1_000,
        "window too small: {rx_events} fast-path packets"
    );
    let delay = Duration::from_secs_f64(base.host_s() / rx_events as f64);
    let slow =
        trace_window(shape, 11, len, Some((Layer::TasFpRx, delay))).expect("slow run sets up");

    assert!(base.attribution_problems().is_empty());
    assert!(slow.attribution_problems().is_empty());
    assert_eq!(
        base.digest, slow.digest,
        "a host-time delay changes no result"
    );

    let planted = rx_events as f64 * delay.as_secs_f64();
    for layer in Layer::ALL {
        let (a, b) = if layer == Layer::Engine {
            (base.engine_s(), slow.engine_s())
        } else {
            (base.times.self_s(layer), slow.times.self_s(layer))
        };
        // Tolerance: host noise on the layer's own time, plus a tenth of
        // the planted time; the planted layer may also keep the spin's
        // overshoot.
        let slack = 0.2 * a + 0.1 * planted;
        let shift = b - a;
        let ok = if layer == Layer::TasFpRx {
            shift > planted - slack && shift < 1.5 * planted + slack
        } else {
            shift.abs() < slack
        };
        assert!(
            ok,
            "{} moved {a:.3} s -> {b:.3} s with {planted:.3} s planted in tas.fp_rx",
            layer.name(),
        );
    }

    let (before, after) = (base.sim_us_per_s(), slow.sim_us_per_s());
    assert!(
        after < before * (1.0 - bound("sim_us_per_s")),
        "sim_us_per_s {before:.0} -> {after:.0} is not a regression"
    );
}
