//! `FpConnMgmt`: connection management — the flow's identity
//! (opaque id, context queue, 4-tuple, peer MAC), the timestamp echo, the
//! RTT estimate, and the slow path's teardown flag. Fields are private:
//! only this module's `&mut self` methods write them.

use tas_proto::{FlowKey, MacAddr};

/// Connection-management component: identity, timestamps, RTT tracking,
/// and lifecycle (slow-path teardown coordination).
#[derive(Debug)]
pub struct FpConnMgmt {
    /// Application-defined flow identifier, relayed in notifications.
    opaque: u64,
    /// RX/TX context queue number.
    context: u16,
    /// The flow's 4-tuple (local_port + peer ip|port; peer MAC is carried
    /// in `peer_mac` for segmentation).
    key: FlowKey,
    /// Peer MAC for header construction.
    peer_mac: MacAddr,
    /// Most recent peer timestamp value, echoed in TSecr.
    ts_recent: u32,
    /// RTT estimate in microseconds (rtt_est), EWMA from timestamps.
    rtt_est_us: u32,
    /// The application closed this flow; the slow path is draining it.
    closing: bool,
}

impl FpConnMgmt {
    /// Component state at flow installation.
    pub fn new(
        opaque: u64,
        context: u16,
        key: FlowKey,
        peer_mac: MacAddr,
        ts_recent: u32,
    ) -> FpConnMgmt {
        FpConnMgmt {
            opaque,
            context,
            key,
            peer_mac,
            ts_recent,
            rtt_est_us: 0,
            closing: false,
        }
    }

    /// Records the peer's latest timestamp value for echo.
    pub fn note_ts(&mut self, tsval: u32) {
        self.ts_recent = tsval;
    }

    /// Folds one RTT sample (µs) into the estimate (EWMA 7/8, like the
    /// kernel's SRTT).
    pub fn rtt_sample(&mut self, sample_us: u32) {
        self.rtt_est_us = if self.rtt_est_us == 0 {
            sample_us
        } else {
            (self.rtt_est_us * 7 + sample_us) / 8
        };
    }

    /// The application closed the flow; teardown is deferred until the
    /// transmit buffer drains.
    pub fn mark_closing(&mut self) {
        self.closing = true;
    }

    // Read accessors, one per field (see the field docs).
    #[inline]
    pub fn opaque(&self) -> u64 {
        self.opaque
    }

    #[inline]
    pub fn context(&self) -> u16 {
        self.context
    }

    #[inline]
    pub fn key(&self) -> FlowKey {
        self.key
    }

    #[inline]
    pub fn peer_mac(&self) -> MacAddr {
        self.peer_mac
    }

    #[inline]
    pub fn ts_recent(&self) -> u32 {
        self.ts_recent
    }

    #[inline]
    pub fn rtt_est_us(&self) -> u32 {
        self.rtt_est_us
    }

    #[inline]
    pub fn closing(&self) -> bool {
        self.closing
    }
}
