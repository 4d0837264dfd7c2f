//! Property tests for receive-side scaling.
//!
//! The Toeplitz hash is a linear code: `H(a ⊕ b) = H(a) ⊕ H(b)` for
//! equal-length inputs. This is the construction's defining property —
//! the MSDN known-answer vectors (unit tests) pin the key schedule, and
//! linearity pins the bit-mixing for *all* inputs at once. The table-driven
//! [`hash_tuple`] is held to the bit-serial [`toeplitz_hash`] reference.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tas_repro::netsim::rss::{hash_tuple, toeplitz_hash, RssTable, RSS_TABLE_SIZE, TOEPLITZ_KEY};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Toeplitz is linear over GF(2): hashing the XOR of two tuples
    /// equals the XOR of their hashes.
    #[test]
    fn toeplitz_is_linear(a in any::<[u8; 12]>(), b in any::<[u8; 12]>()) {
        let xored: Vec<u8> = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(
            toeplitz_hash(&TOEPLITZ_KEY, &xored),
            toeplitz_hash(&TOEPLITZ_KEY, &a) ^ toeplitz_hash(&TOEPLITZ_KEY, &b)
        );
    }

    /// The table-driven 4-tuple hash equals the bit-serial reference over
    /// the tuple's 12 big-endian bytes.
    #[test]
    fn hash_tuple_matches_bit_serial_reference(t in any::<[u8; 12]>()) {
        let src = Ipv4Addr::new(t[0], t[1], t[2], t[3]);
        let dst = Ipv4Addr::new(t[4], t[5], t[6], t[7]);
        let sport = u16::from_be_bytes([t[8], t[9]]);
        let dport = u16::from_be_bytes([t[10], t[11]]);
        prop_assert_eq!(hash_tuple(src, dst, sport, dport), toeplitz_hash(&TOEPLITZ_KEY, &t));
    }

    /// The zero input hashes to zero (linearity's identity), and a single
    /// set bit selects exactly one 32-bit key window.
    #[test]
    fn toeplitz_single_bit_windows(bit in 0usize..96) {
        prop_assert_eq!(toeplitz_hash(&TOEPLITZ_KEY, &[0u8; 12]), 0);
        let mut input = [0u8; 12];
        input[bit / 8] = 1 << (7 - bit % 8);
        // The window for bit i is key bits [i, i+32).
        let mut want: u32 = 0;
        for k in 0..32 {
            let idx = bit + k;
            let key_bit = TOEPLITZ_KEY[idx / 8] >> (7 - idx % 8) & 1;
            want = (want << 1) | key_bit as u32;
        }
        prop_assert_eq!(toeplitz_hash(&TOEPLITZ_KEY, &input), want);
    }

    /// After any sequence of rebalances the table references exactly the
    /// first `active` queues, spread evenly (entry counts differ by at
    /// most one) — the eager steering invariant of §3.4.
    #[test]
    fn rebalance_is_even_and_exact(
        initial in 1usize..16,
        steps in proptest::collection::vec(1usize..16, 1..8),
    ) {
        let mut t = RssTable::new(initial);
        let mut active = initial;
        for a in steps {
            t.rebalance(a);
            active = a;
        }
        prop_assert_eq!(t.active_queues(), active.min(RSS_TABLE_SIZE));
        let mut counts = vec![0usize; active];
        for h in 0..RSS_TABLE_SIZE as u32 {
            let q = t.queue_for_hash(h);
            prop_assert!(q < active, "stale queue {q} after rebalance({active})");
            counts[q] += 1;
        }
        let (min, max) = (
            counts.iter().min().copied().unwrap_or(0),
            counts.iter().max().copied().unwrap_or(0),
        );
        prop_assert!(max - min <= 1, "uneven spread: {counts:?}");
    }
}
