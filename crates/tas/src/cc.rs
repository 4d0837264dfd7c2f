//! Slow-path congestion-control policies: rate-based DCTCP and TIMELY.
//!
//! The slow path runs one control iteration per flow every control
//! interval τ (§3.2): it reads the congestion feedback the fast path
//! accumulated (`cnt_ackb`, `cnt_ecnb`, `cnt_frexmits`, `rtt_est`),
//! computes a new rate, and writes it back into the flow's bucket.
//!
//! The control *laws* live in the shared `tas-cc` crate (the rate facet
//! of [`tas_cc::CongCtrl`]) so the reference TCP engine and the TAS
//! slow path exercise one implementation; this module is the façade
//! that drains a flow's feedback counters into a [`tas_cc::RateFeedback`]
//! and runs the iteration over the flow's persistent `CcState`.

use crate::flow::FlowState;
use tas_cc::{Dctcp, Timely};

pub use tas_cc::{DctcpRateParams, TimelyParams};

/// MSS handed to the shared algorithm constructors. The rate facet never
/// reads it (it sizes the window facet's cwnd only), so any value works;
/// use the stack default for clarity.
const RATE_FACADE_MSS: u32 = 1448;

/// One rate-based DCTCP control iteration (paper §3.2 and §5.5).
///
/// Uses and resets the flow's accumulated feedback; returns the new rate
/// in bits/second, which the caller installs into the flow's bucket.
pub fn dctcp_rate_iteration(
    flow: &mut FlowState,
    current_bps: u64,
    interval_secs: f64,
    p: &DctcpRateParams,
) -> u64 {
    let rtt = flow.conn.rtt_est_us();
    let fb = flow.cc.take_feedback(rtt);
    let algo = Dctcp::with_rate_params(RATE_FACADE_MSS, *p);
    flow.cc
        .rate_iteration(&algo, fb, current_bps, interval_secs)
}

/// One TIMELY control iteration.
pub fn timely_iteration(flow: &mut FlowState, current_bps: u64, p: &TimelyParams) -> u64 {
    let rtt = flow.conn.rtt_est_us();
    let fb = flow.cc.take_feedback(rtt);
    let algo = Timely::with_params(RATE_FACADE_MSS, *p);
    // TIMELY is interval-free: the gradient normalizes by RTT, not τ.
    flow.cc.rate_iteration(&algo, fb, current_bps, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{
        FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
    };
    use std::net::Ipv4Addr;
    use tas_cc::{CcState, CongCtrl, RateFeedback};
    use tas_proto::FlowKey;
    use tas_shm::ByteRing;

    /// A fresh flow whose RTT estimate is `rtt_us`.
    fn flow(rtt_us: u32) -> FlowState {
        let mut conn = FpConnMgmt::new(
            0,
            0,
            FlowKey::new(Ipv4Addr::UNSPECIFIED, 1, Ipv4Addr::UNSPECIFIED, 2),
            tas_proto::MacAddr::for_host(1),
            0,
        );
        conn.rtt_sample(rtt_us); // The first sample is taken verbatim.
        FlowState {
            conn,
            snd: FpSendRel::new(ByteRing::new(64), 0),
            rcv: FpRecvRel::new(ByteRing::new(64), 0),
            fc: FpFlowCtrl::new(0, 0),
            cc: FpCongCtrl::new(RateBucket::unlimited()),
        }
    }

    const INTERVAL: f64 = 200e-6;

    /// Law state past slow start, for tests that start from a planted
    /// control state rather than a fresh flow's.
    fn past_slow_start() -> CcState {
        CcState {
            slow_start: false,
            ..CcState::new()
        }
    }

    fn feedback(ackb: u64, ecnb: u64, frexmits: u8, rtt_est_us: u32) -> RateFeedback {
        RateFeedback {
            ackb,
            ecnb,
            frexmits,
            rtt_est_us,
        }
    }

    /// One DCTCP iteration with the façade's algorithm and parameters.
    fn dctcp(st: &mut CcState, fb: RateFeedback, current_bps: u64) -> u64 {
        let algo = Dctcp::with_rate_params(RATE_FACADE_MSS, DctcpRateParams::default());
        algo.rate_iteration(st, fb, current_bps, INTERVAL)
    }

    /// One TIMELY iteration with the façade's algorithm and parameters.
    fn timely(st: &mut CcState, fb: RateFeedback, current_bps: u64) -> u64 {
        let algo = Timely::with_params(RATE_FACADE_MSS, TimelyParams::default());
        algo.rate_iteration(st, fb, current_bps, 0.0)
    }

    #[test]
    fn dctcp_slow_start_doubles() {
        let mut f = flow(100);
        let p = DctcpRateParams::default();
        // Sending flat out: measured rate matches current.
        f.cc.count_acked((1e9 * INTERVAL / 8.0) as u64, false);
        let r = dctcp_rate_iteration(&mut f, 1_000_000_000, INTERVAL, &p);
        assert_eq!(r, 2_000_000_000);
        assert!(f.cc.state().slow_start);
        assert_eq!(f.cc.cnt_ackb(), 0, "feedback drained");
    }

    #[test]
    fn dctcp_congestion_exits_slow_start_and_reduces() {
        let mut f = flow(100);
        let p = DctcpRateParams::default();
        // A fresh flow starts at alpha = 1.0; every acked byte is marked.
        f.cc.count_acked((1e9 * INTERVAL / 8.0) as u64, true);
        let r = dctcp_rate_iteration(&mut f, 1_000_000_000, INTERVAL, &p);
        assert!(!f.cc.state().slow_start);
        // alpha stays 1.0 (fully marked) -> rate halves.
        assert!((r as f64 - 0.5e9).abs() / 0.5e9 < 0.01, "rate {r}");
    }

    #[test]
    fn dctcp_reduction_proportional_to_alpha() {
        let mut st = CcState {
            alpha: 0.0,
            ..past_slow_start()
        };
        // 10% of bytes marked: alpha moves to g*0.1, reduction tiny.
        let r = dctcp(&mut st, feedback(1_000_000, 100_000, 0, 100), 1_000_000_000);
        // Measured = 1e6*8/200us = 40 Gbps, no cap. Reduction by alpha/2
        // where alpha = 0.1/16.
        let want = 1e9 * (1.0 - 0.1 / 16.0 / 2.0);
        assert!(
            (r as f64 - want).abs() / want < 0.01,
            "rate {r} want {want}"
        );
    }

    #[test]
    fn dctcp_additive_increase_when_clean() {
        let mut st = past_slow_start();
        let fb = feedback((1e9 * INTERVAL / 8.0) as u64, 0, 0, 100);
        let r = dctcp(&mut st, fb, 1_000_000_000);
        assert_eq!(r, 1_000_000_000 + 10_000_000);
    }

    #[test]
    fn dctcp_caps_at_measured_rate() {
        let mut st = past_slow_start();
        // Flow only achieved 100 Mbps although the rate allows 1 Gbps.
        let fb = feedback((100e6 * INTERVAL / 8.0) as u64, 0, 0, 100);
        let r = dctcp(&mut st, fb, 1_000_000_000);
        // Capped to 1.2 * 100 Mbps, then additive increase.
        assert!(r <= 130_000_000, "rate {r} must be capped near 120 Mbps");
    }

    #[test]
    fn dctcp_loss_halves() {
        let mut f = flow(100);
        let p = DctcpRateParams::default();
        f.cc.count_acked((1e9 * INTERVAL / 8.0) as u64, false);
        f.cc.count_fast_rexmit();
        f.cc.count_fast_rexmit();
        let r = dctcp_rate_iteration(&mut f, 1_000_000_000, INTERVAL, &p);
        assert_eq!(r, 500_000_000);
        assert!(!f.cc.state().slow_start, "loss ends slow start");
    }

    #[test]
    fn dctcp_idle_flow_holds_rate_via_clamp() {
        let mut st = past_slow_start();
        // No feedback at all: no measured rate, no increase.
        let r = dctcp(&mut st, feedback(0, 0, 0, 100), 500_000_000);
        assert_eq!(r, 500_000_000);
    }

    #[test]
    fn timely_low_rtt_additive_increase() {
        let mut st = past_slow_start();
        // RTT below t_low.
        let r = timely(&mut st, feedback(1000, 0, 0, 30), 1_000_000_000);
        assert_eq!(r, 1_010_000_000);
    }

    #[test]
    fn timely_high_rtt_multiplicative_decrease() {
        let mut st = past_slow_start();
        // RTT above t_high.
        let r = timely(&mut st, feedback(1000, 0, 0, 1000), 1_000_000_000);
        let want = 1e9 * (1.0 - 0.8 * (1.0 - 0.5));
        assert!((r as f64 - want).abs() / want < 0.01, "rate {r}");
    }

    #[test]
    fn timely_gradient_response() {
        let mut st = CcState {
            prev_rtt_us: 100,
            ..past_slow_start()
        };
        // Rising RTT between thresholds.
        let r = timely(&mut st, feedback(1000, 0, 0, 120), 1_000_000_000);
        assert!(r < 1_000_000_000, "rising gradient must decrease: {r}");
        // Falling RTT: increase.
        assert_eq!(st.prev_rtt_us, 120);
        let r2 = timely(&mut st, feedback(1000, 0, 0, 100), r);
        assert!(r2 > r);
    }

    #[test]
    fn timely_slow_start_until_rtt_rises() {
        let mut f = flow(30);
        let p = TimelyParams::default();
        f.cc.count_acked(1000, false);
        let r = timely_iteration(&mut f, 100_000_000, &p);
        assert_eq!(r, 200_000_000);
        assert!(f.cc.state().slow_start);
        // EWMA 7/8: (7 * 30 + 430) / 8 = 80 µs, above t_low: exit slow
        // start.
        f.conn.rtt_sample(430);
        assert_eq!(f.conn.rtt_est_us(), 80);
        f.cc.count_acked(1000, false);
        timely_iteration(&mut f, r, &p);
        assert!(!f.cc.state().slow_start);
    }
}
