//! `ConnMgmt`: connection lifecycle state — the RFC 793 state machine,
//! open/close progress (FIN bookkeeping on both sides), the TIME_WAIT
//! timer, and the timestamp echo. Fields are private: only the
//! `&mut self` methods here write them.

use tas_sim::SimTime;

use super::{EndpointInfo, TcpState};

/// Connection-management component: owns the state machine and
/// open/close bookkeeping.
#[derive(Debug)]
pub struct ConnMgmt {
    /// Current RFC 793 state.
    state: TcpState,
    /// Local addressing.
    local: EndpointInfo,
    /// Remote addressing.
    remote: EndpointInfo,
    /// TIME_WAIT expiry, when in TIME_WAIT.
    time_wait_deadline: Option<SimTime>,
    /// Application requested close; FIN goes out once data drains.
    fin_queued: bool,
    /// Our FIN has been transmitted.
    fin_sent: bool,
    /// Our FIN has been acknowledged.
    fin_acked: bool,
    /// Stream offset of the peer's FIN, once seen.
    peer_fin_off: Option<u64>,
    /// The peer FIN has been delivered to the application.
    peer_fin_done: bool,
    /// Most recent peer TSval, echoed in our timestamps.
    ts_recent: u32,
}

impl ConnMgmt {
    pub(crate) fn new(local: EndpointInfo, remote: EndpointInfo) -> ConnMgmt {
        ConnMgmt {
            state: TcpState::Closed,
            local,
            remote,
            time_wait_deadline: None,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            peer_fin_off: None,
            peer_fin_done: false,
            ts_recent: 0,
        }
    }

    /// Transitions the state machine.
    pub fn set_state(&mut self, s: TcpState) {
        self.state = s;
    }

    /// Records the peer's most recent TSval for echo.
    pub fn note_ts(&mut self, tsval: u32) {
        self.ts_recent = tsval;
    }

    /// Marks the application's close request; returns false if already
    /// queued (close is idempotent).
    pub fn queue_fin(&mut self) -> bool {
        if self.fin_queued {
            return false;
        }
        self.fin_queued = true;
        true
    }

    pub fn set_fin_sent(&mut self, sent: bool) {
        self.fin_sent = sent;
    }

    pub fn mark_fin_acked(&mut self) {
        self.fin_acked = true;
    }

    /// Remembers where the peer's FIN sits in the stream.
    pub fn set_peer_fin(&mut self, off: u64) {
        self.peer_fin_off = Some(off);
    }

    /// Marks the peer FIN as delivered; returns false if it already was.
    pub fn mark_peer_fin_done(&mut self) -> bool {
        if self.peer_fin_done {
            return false;
        }
        self.peer_fin_done = true;
        true
    }

    /// Arms the TIME_WAIT timer.
    pub fn arm_time_wait(&mut self, deadline: SimTime) {
        self.time_wait_deadline = Some(deadline);
    }

    /// Final transition to CLOSED; returns false if already closed.
    pub fn enter_closed(&mut self) -> bool {
        if self.state == TcpState::Closed {
            return false;
        }
        self.state = TcpState::Closed;
        self.time_wait_deadline = None;
        true
    }

    // Read accessors, one per field (see the field docs).
    #[inline]
    pub fn state(&self) -> TcpState {
        self.state
    }

    #[inline]
    pub fn local(&self) -> EndpointInfo {
        self.local
    }

    #[inline]
    pub fn remote(&self) -> EndpointInfo {
        self.remote
    }

    #[inline]
    pub fn time_wait_deadline(&self) -> Option<SimTime> {
        self.time_wait_deadline
    }

    #[inline]
    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    #[inline]
    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    #[inline]
    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    #[inline]
    pub fn peer_fin_off(&self) -> Option<u64> {
        self.peer_fin_off
    }

    #[inline]
    pub fn ts_recent(&self) -> u32 {
        self.ts_recent
    }
}
