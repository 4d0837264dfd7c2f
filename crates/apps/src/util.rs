//! Shared application plumbing.

use tas_netsim::app::{SockId, StackApi};

/// Per-socket send buffering for message-framed applications.
///
/// `StackApi::send` may accept only part of a write when the per-flow
/// transmit buffer is full; for framed protocols a half-sent message would
/// permanently corrupt the peer's framing. [`SendBuf`] carries the
/// remainder and flushes it on [`SendBuf::on_writable`], so callers can
/// treat every logical message as fully accepted.
///
/// # Examples
///
/// ```no_run
/// # use tas_apps::util::SendBuf;
/// # fn f(api: &mut dyn tas_netsim::app::StackApi, sock: u32) {
/// let mut out = SendBuf::default();
/// out.send(api, sock, b"complete message");
/// // Later, on AppEvent::Writable { sock }:
/// out.on_writable(api, sock);
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SendBuf {
    /// Carried bytes per socket, indexed by [`SockId`] (stacks hand out
    /// dense socket ids); grown on a socket's first partial send.
    carry: Vec<Vec<u8>>,
}

impl SendBuf {
    /// Sends `data`, carrying whatever the stack does not accept. Returns
    /// the bytes that reached the stack *now* (the rest is carried).
    pub fn send(&mut self, api: &mut dyn StackApi, sock: SockId, data: &[u8]) -> usize {
        if let Some(c) = self.carry.get_mut(sock as usize) {
            if !c.is_empty() {
                // Never reorder: append behind the existing carry.
                c.extend_from_slice(data);
                return self.flush(api, sock);
            }
        }
        let n = api.send(sock, data);
        if n < data.len() {
            let i = sock as usize;
            if i >= self.carry.len() {
                self.carry.resize_with(i + 1, Vec::new);
            }
            self.carry[i].extend_from_slice(&data[n..]);
        }
        n
    }

    /// Flushes carried bytes; call on `AppEvent::Writable`.
    pub fn on_writable(&mut self, api: &mut dyn StackApi, sock: SockId) -> usize {
        self.flush(api, sock)
    }

    fn flush(&mut self, api: &mut dyn StackApi, sock: SockId) -> usize {
        let Some(c) = self.carry.get_mut(sock as usize) else {
            return 0;
        };
        if c.is_empty() {
            return 0;
        }
        let n = api.send(sock, c);
        c.drain(..n);
        n
    }

    /// Bytes currently carried for a socket.
    pub fn pending(&self, sock: SockId) -> usize {
        self.carry.get(sock as usize).map_or(0, Vec::len)
    }

    /// Drops a closed socket's state.
    pub fn clear(&mut self, sock: SockId) {
        if let Some(c) = self.carry.get_mut(sock as usize) {
            *c = Vec::new();
        }
    }
}
