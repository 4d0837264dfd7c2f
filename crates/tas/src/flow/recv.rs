//! `FpRecvRel`: receive reliability — the receive ring and the single
//! tracked out-of-order interval. Fields are private: only this module's
//! `&mut self` methods write them, so the interval can never claim bytes
//! the ring does not hold.

use tas_shm::ByteRing;

/// Receive-reliability component: the receive ring and the single
/// tracked out-of-order interval.
#[derive(Debug)]
pub struct FpRecvRel {
    /// Per-flow receive payload buffer in user-space memory
    /// (rx_start|size|head|tail). `end_offset` is the in-order frontier;
    /// `start_offset` advances as the application reads.
    rx: ByteRing,
    /// Peer initial sequence number; peer seq = irs + 1 + rx offset.
    irs: u32,
    /// Out-of-order interval start as an absolute RX stream offset
    /// (ooo_start); meaningful when `ooo_len > 0`.
    ooo_start: u64,
    /// Out-of-order interval length (ooo_len).
    ooo_len: u32,
}

impl FpRecvRel {
    /// Component state at flow installation.
    pub fn new(rx: ByteRing, irs: u32) -> FpRecvRel {
        FpRecvRel {
            rx,
            irs,
            ooo_start: 0,
            ooo_len: 0,
        }
    }

    /// Deposits in-order `data` at the frontier and merges the tracked
    /// out-of-order interval if the gap just closed ("as if one big
    /// segment arrived"). Returns the bytes that became readable, or
    /// `None` when the ring lacks space for `data`.
    pub fn deposit(&mut self, data: &[u8]) -> Option<u64> {
        self.rx.append(data).ok()?;
        let mut n = data.len() as u64;
        if self.ooo_len > 0 && self.ooo_start <= self.rx.end_offset() {
            let int_end = self.ooo_start + self.ooo_len as u64;
            let end = self.rx.end_offset();
            if int_end > end {
                if self.rx.advance_end(int_end - end).is_ok() {
                    n += int_end - end;
                } else {
                    debug_assert!(false, "ooo interval within the ring");
                }
            }
            self.ooo_len = 0;
        }
        Some(n)
    }

    /// Appends as much in-order `data` as fits, without touching the
    /// out-of-order interval; returns the bytes taken.
    pub fn commit_partial(&mut self, data: &[u8]) -> usize {
        self.rx.append_partial(data)
    }

    /// Writes out-of-order `data` at stream offset `off` and folds it
    /// into the tracked interval: a fresh interval when none is tracked,
    /// otherwise `data` must abut the interval's head or tail (the caller
    /// checks which). False when the write does not fit the ring.
    pub fn stage_ooo(&mut self, off: u64, data: &[u8]) -> bool {
        if self.rx.write_at(off, data).is_err() {
            return false;
        }
        if self.ooo_len == 0 || off < self.ooo_start {
            self.ooo_start = off;
        }
        self.ooo_len += data.len() as u32;
        true
    }

    /// The application reads up to `max` in-order bytes.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        self.rx.pop(max)
    }

    /// The application consumed `n` in-order bytes in place; false if
    /// fewer are readable.
    pub fn consume(&mut self, n: u64) -> bool {
        self.rx.consume(n).is_ok()
    }

    /// Teardown: hands the receive ring, with any unread data, back to
    /// the host.
    pub fn into_rx(self) -> ByteRing {
        self.rx
    }

    // Read accessors, one per field (see the field docs).
    #[inline]
    pub fn rx(&self) -> &ByteRing {
        &self.rx
    }

    #[inline]
    pub fn irs(&self) -> u32 {
        self.irs
    }

    #[inline]
    pub fn ooo_start(&self) -> u64 {
        self.ooo_start
    }

    #[inline]
    pub fn ooo_len(&self) -> u32 {
        self.ooo_len
    }
}
