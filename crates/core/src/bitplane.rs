//! Bit-plane packing of channel rows: the word-parallel representation
//! behind the arena engine's pair-major resolve.
//!
//! A channel row is a `len`-slot array of `u64` channel ids with `0` as
//! the no-meet sentinel (asleep, out of its in-play window, or blacked
//! out). The slotwise kernel compares one slot per step; packed into
//! bit-planes, **64 slots compare per word op**:
//!
//! * one **presence plane** — bit `x` set iff slot `x` carries a channel
//!   (`row[x] != 0`);
//! * one plane per channel-id bit — plane `b` holds bit `b` of each
//!   slot's channel id, so a universe whose largest channel needs
//!   `nbits` bits packs into `1 + nbits` planes of `len.div_ceil(64)`
//!   words.
//!
//! Two packed rows meet at slot `x` iff both presence bits are set and
//! every channel-bit plane agrees — `presence_a & presence_b`, then
//! AND-ing in the XNOR of each plane pair, leaves exactly the meeting
//! slots set; `trailing_zeros` extracts the first one branch-free. The
//! packing is log₂-coded (binary channel ids), not one-plane-per-channel,
//! so the plane count grows with the *bit width* of the universe, not its
//! size; [`PLANE_BITS_BUDGET`] caps it and callers fall back to the
//! slotwise kernel beyond (the 2⁴⁰-channel coalition universe stays
//! slotwise).
//!
//! Packing is a 64×`nbits` bit transpose done in registers, one plane
//! word at a time. The byte `(c >> 8k) & 0xff` of eight consecutive
//! slots goes into the eight byte lanes of one `u64`; shifting that word
//! right by `b`, masking each lane to its low bit and multiplying by
//! `0x0102_0408_1020_4080` gathers bit `b` of all eight slots into the
//! top byte (lane `i` lands at bit `56 + i`, and no two partial products
//! overlap, so nothing carries). Eight such bytes make one plane word,
//! stored once. The work per word depends only on `nbits`, never on the
//! channel values: there is no data-dependent branch to mispredict,
//! no scattered read-modify-write, and no zeroing pass over the buffer.

/// Largest channel-id bit width the packed representation covers:
/// universes up to `2^PLANE_BITS_BUDGET - 1` channels pack into at most
/// `1 + PLANE_BITS_BUDGET` planes (17 words per 64 slots — still ~4×
/// denser than the slotwise row, and the match loop usually early-exits
/// after the presence AND). Beyond it the per-comparison win shrinks
/// while the fill-side packing cost keeps growing, so callers fall back
/// to the slotwise kernel.
pub const PLANE_BITS_BUDGET: u32 = 16;

/// The channel-id bit width of a universe whose largest channel is
/// `max_channel`: the number of channel-bit planes [`pack_row`] needs.
/// Zero only for an empty universe (channels are 1-indexed).
pub fn plane_bits(max_channel: u64) -> u32 {
    64 - max_channel.leading_zeros()
}

/// Words per plane for a `len`-slot row.
pub fn plane_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// Low bit of each byte lane of a `u64`.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// Multiplier that moves the low bit of byte lane `i` to bit `56 + i`.
const LANE_GATHER: u64 = 0x0102_0408_1020_4080;

/// Packs `row` (channel per slot, `0` = no-meet sentinel) into
/// `1 + nbits` planes of `words` words each, presence plane first:
/// `out[w]` is presence, `out[(1 + b) * words + w]` is channel bit `b`.
/// Slots beyond `row.len()` pack as absent, so partial tail blocks need
/// no special casing on the resolve side.
///
/// Every word of `out` is written exactly once, whatever it held before.
/// Each 64-slot word (a partial tail word is first copied into a
/// zero-padded buffer) is transposed branch-free with byte-lane
/// multiplies, as the module doc describes; for `nbits > 8` the second
/// byte of each channel id gets its own lane pass.
///
/// # Panics
///
/// Debug-asserts that `row` fits `words` and every channel fits `nbits`;
/// `out` must be exactly `(1 + nbits) * words` long.
pub fn pack_row(row: &[u64], nbits: u32, words: usize, out: &mut [u64]) {
    debug_assert!(row.len() <= words * 64, "row larger than the plane words");
    assert_eq!(out.len(), (1 + nbits as usize) * words, "plane buffer size");
    let nbits = nbits as usize;
    let mut pad = [0u64; 64];
    for w in 0..words {
        let tail = row.get(w * 64..).unwrap_or(&[]);
        let slots = match tail.first_chunk::<64>() {
            Some(full) => full,
            None => {
                pad[..tail.len()].copy_from_slice(tail);
                pad[tail.len()..].fill(0);
                &pad
            }
        };
        debug_assert!(
            slots.iter().all(|&c| plane_bits(c) as usize <= nbits),
            "channel wider than {nbits} planes"
        );
        let (low, presence) = byte_lanes(slots, 0);
        out[w] = presence;
        for b in 0..nbits.min(8) {
            out[(1 + b) * words + w] = gather_bit(&low, b);
        }
        if nbits > 8 {
            let (high, _) = byte_lanes(slots, 8);
            for b in 8..nbits {
                out[(1 + b) * words + w] = gather_bit(&high, b - 8);
            }
        }
    }
}

/// Byte lane `i` of `lanes[j]` is `(slots[8j + i] >> shift) & 0xff`;
/// the second value is the presence word (bit `x` set iff `slots[x] != 0`),
/// built in the same pass over the slots.
#[inline]
fn byte_lanes(slots: &[u64; 64], shift: u32) -> ([u64; 8], u64) {
    let mut lanes = [0u64; 8];
    let mut presence = 0u64;
    for (j, (lane, octet)) in lanes.iter_mut().zip(slots.chunks_exact(8)).enumerate() {
        let mut present = 0u64;
        for (i, &c) in octet.iter().enumerate() {
            *lane |= (c >> shift & 0xff) << (8 * i);
            present |= ((c != 0) as u64) << i;
        }
        presence |= present << (8 * j);
    }
    (lanes, presence)
}

/// The plane word of bit `bit` (below 8) of the bytes in `lanes`: byte
/// `j` holds that bit of the eight slots in `lanes[j]`.
#[inline]
fn gather_bit(lanes: &[u64; 8], bit: usize) -> u64 {
    lanes.iter().enumerate().fold(0, |word, (j, &v)| {
        word | ((v >> bit & LANE_LSB).wrapping_mul(LANE_GATHER) >> 56) << (8 * j)
    })
}

/// First slot where two rows packed by [`pack_row`] (same `nbits`,
/// `words`) carry the same channel: per word, AND the presence planes,
/// AND in the XNOR of every channel-bit plane (early-exiting once the
/// word is dead), and extract the first surviving bit with
/// `trailing_zeros` — 64 slots of the slotwise compare per word op.
pub fn first_match(a: &[u64], b: &[u64], nbits: u32, words: usize) -> Option<usize> {
    debug_assert_eq!(a.len(), (1 + nbits as usize) * words);
    debug_assert_eq!(b.len(), (1 + nbits as usize) * words);
    for w in 0..words {
        let mut m = a[w] & b[w];
        let mut p = words + w;
        while m != 0 && p < a.len() {
            m &= !(a[p] ^ b[p]);
            p += words;
        }
        if m != 0 {
            return Some(w * 64 + m.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slotwise reference the planes must agree with.
    fn naive_first_match(a: &[u64], b: &[u64]) -> Option<usize> {
        a.iter().zip(b).position(|(&x, &y)| x != 0 && x == y)
    }

    /// The per-slot reference [`pack_row`] must agree with: zero the
    /// buffer, then OR one bit into each set plane of each present slot.
    fn naive_pack_row(row: &[u64], nbits: u32, words: usize, out: &mut [u64]) {
        assert_eq!(out.len(), (1 + nbits as usize) * words, "plane buffer size");
        out.fill(0);
        for (x, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (w, bit) = (x / 64, 1u64 << (x % 64));
            out[w] |= bit;
            let mut v = c;
            while v != 0 {
                let b = v.trailing_zeros() as usize;
                out[(1 + b) * words + w] |= bit;
                v &= v - 1;
            }
        }
    }

    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn packed(row: &[u64], nbits: u32, words: usize) -> Vec<u64> {
        let mut out = vec![0u64; (1 + nbits as usize) * words];
        pack_row(row, nbits, words, &mut out);
        out
    }

    #[test]
    fn plane_bits_is_the_channel_bit_width() {
        assert_eq!(plane_bits(0), 0);
        assert_eq!(plane_bits(1), 1);
        assert_eq!(plane_bits(2), 2);
        assert_eq!(plane_bits(3), 2);
        assert_eq!(plane_bits(96), 7);
        assert_eq!(plane_bits((1 << 16) - 1), 16);
        assert_eq!(plane_bits(1 << 16), 17);
        assert_eq!(plane_bits(u64::MAX), 64);
    }

    #[test]
    fn pack_round_trips_through_the_planes() {
        // Reading each slot's bits back out of the planes reconstructs
        // the row exactly, including sentinel slots and a partial tail.
        let row: Vec<u64> = (0..100u64).map(|x| (x * 37) % 13).collect();
        let (nbits, words) = (4, plane_words(row.len()));
        let planes = packed(&row, nbits, words);
        for x in 0..words * 64 {
            let (w, bit) = (x / 64, 1u64 << (x % 64));
            let present = planes[w] & bit != 0;
            let mut c = 0u64;
            for b in 0..nbits as usize {
                if planes[(1 + b) * words + w] & bit != 0 {
                    c |= 1 << b;
                }
            }
            let expected = row.get(x).copied().unwrap_or(0);
            assert_eq!(present, expected != 0, "presence at slot {x}");
            assert_eq!(c, expected, "channel at slot {x}");
        }
    }

    #[test]
    fn pack_agrees_with_the_per_slot_reference() {
        // Every plane width, word-boundary lengths, sentinel zeros and the
        // widest channel of each width; spare all-empty words (a 10-slot
        // row in 3 words among them); and a stale `u64::MAX` buffer, since
        // the kernel overwrites instead of zeroing first.
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for nbits in 1..=16u32 {
            let max = (1u64 << nbits) - 1;
            let shapes = [0, 1, 63, 64, 65, 300, 511, 512]
                .into_iter()
                .flat_map(|len| [(len, plane_words(len)), (len, plane_words(len) + 1)])
                .chain([(10, 3)]);
            for (len, words) in shapes {
                for _ in 0..4 {
                    let row: Vec<u64> = (0..len)
                        .map(|_| match next() % 8 {
                            0 | 1 => 0,
                            2 => max,
                            _ => 1 + next() % max,
                        })
                        .collect();
                    let mut want = vec![0u64; (1 + nbits as usize) * words];
                    naive_pack_row(&row, nbits, words, &mut want);
                    let mut got = vec![u64::MAX; want.len()];
                    pack_row(&row, nbits, words, &mut got);
                    assert_eq!(got, want, "nbits {nbits}, len {len}, words {words}");
                }
            }
        }
    }

    #[test]
    fn first_match_agrees_with_the_slotwise_reference() {
        // A pseudo-random pair of rows with deliberate collisions,
        // sentinels, and a non-word-aligned length.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for len in [1usize, 63, 64, 65, 200, 512] {
            for _ in 0..20 {
                let a: Vec<u64> = (0..len).map(|_| next() % 17).collect();
                let b: Vec<u64> = (0..len).map(|_| next() % 17).collect();
                let (nbits, words) = (plane_bits(16), plane_words(len));
                let (pa, pb) = (packed(&a, nbits, words), packed(&b, nbits, words));
                assert_eq!(
                    first_match(&pa, &pb, nbits, words),
                    naive_first_match(&a, &b),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn equal_sentinels_never_match() {
        // Both rows masked to 0 at the same slot (e.g. a shared blackout)
        // must not read as a meeting — the presence plane gates it.
        let a = [0u64, 5, 0, 3];
        let b = [0u64, 4, 0, 3];
        let (nbits, words) = (3, 1);
        let (pa, pb) = (packed(&a, nbits, words), packed(&b, nbits, words));
        assert_eq!(first_match(&pa, &pb, nbits, words), Some(3));
    }

    #[test]
    fn tail_slots_beyond_the_row_stay_absent() {
        // A 10-slot row in 1-word planes: slots 10..64 pack as absent, so
        // a full-length partner cannot phantom-meet in the tail.
        let short = [7u64; 10];
        let long = [7u64; 64];
        let (nbits, words) = (3, 1);
        let ps = packed(&short, nbits, words);
        let pl = packed(&long, nbits, words);
        assert_eq!(first_match(&ps, &pl, nbits, words), Some(0));
        let disjoint: Vec<u64> = (0..64).map(|x| if x < 10 { 1 } else { 7 }).collect();
        let pd = packed(&disjoint, nbits, words);
        assert_eq!(first_match(&ps, &pd, nbits, words), None);
    }
}
