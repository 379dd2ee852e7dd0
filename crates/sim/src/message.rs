//! Messages and control bits.
//!
//! A message consists of at most one packet and a string of control bits
//! (paper §2, "Routing algorithms"). The bits encoding the packet's
//! destination address are not counted as control bits. *Plain-packet*
//! algorithms transmit messages that consist of exactly one packet and no
//! control bits; *general* algorithms may attach control bits and may send
//! packet-less (light) messages.
//!
//! Control bits are modelled as an explicit bit string so the simulator can
//! meter how much control information an algorithm really uses per message
//! (the paper restricts algorithms to `O(log n)` control bits per message).
//!
//! The string lives inline, in [`CONTROL_BITS_CAPACITY`] = 256 bits, so a
//! [`Message`] is `Copy` and no protocol allocates to send one. The bound
//! follows from the model: messages carry `O(log n)` bits, fields are at
//! most 64 bits wide, and the largest message in the tree is Count-Hop's
//! two 48-bit fields (96 bits); Orchestra's six fields take about
//! `3 + 3·log₂ n` bits, under 200 for any `n` that fits a `u64`. Pushing
//! past the capacity panics.

use crate::packet::Packet;
use crate::queue::{Handle, QueuedPacket};

/// How many control bits one message can carry.
pub const CONTROL_BITS_CAPACITY: usize = 256;

const WORDS: usize = CONTROL_BITS_CAPACITY / 64;

/// An append-only bit string with fixed-width unsigned field encoding.
///
/// Writers push fields with [`ControlBits::push_uint`]; readers consume them
/// in the same order with a [`BitReader`]. Bits are laid out least
/// significant first from bit 0 of the first word, and a field moves with
/// at most two word shifts. The bit length is exact, so the metrics
/// subsystem can account for control-bit usage per message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlBits {
    /// Bits at positions `len..` are always zero, so the derived equality
    /// compares the strings.
    words: [u64; WORDS],
    len: usize,
}

impl ControlBits {
    /// An empty control string.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits in the string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a single bit.
    ///
    /// # Panics
    /// Panics if the string already holds [`CONTROL_BITS_CAPACITY`] bits.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_uint(u64::from(bit), 1);
    }

    /// Append the low `width` bits of `value`, least-significant bit first.
    ///
    /// # Panics
    /// Panics if `width > 64`, if `value` does not fit in `width` bits, or
    /// if the string would exceed [`CONTROL_BITS_CAPACITY`] bits.
    #[inline]
    pub fn push_uint(&mut self, value: u64, width: usize) {
        if width > 64 {
            field_too_wide(width);
        }
        if width < 64 && value >= 1u64 << width {
            value_too_wide(value, width);
        }
        if self.len + width > CONTROL_BITS_CAPACITY {
            over_capacity(self.len, width);
        }
        if width == 0 {
            return;
        }
        let (word, off) = (self.len / 64, self.len % 64);
        self.words[word] |= value << off;
        if off + width > 64 {
            // The field straddles a word edge (so `off > 0`): its high
            // bits start the next word.
            self.words[word + 1] |= value >> (64 - off);
        }
        self.len += width;
    }

    /// Read the bit at position `pos`.
    #[inline]
    pub fn bit(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Start reading the string from the beginning.
    #[inline]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }
}

/// Sequential reader over a [`ControlBits`] string.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a ControlBits,
    pos: usize,
}

impl BitReader<'_> {
    /// Bits remaining to be read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read_uint(1) == 1
    }

    /// Read a `width`-bit unsigned field written by [`ControlBits::push_uint`].
    ///
    /// # Panics
    /// Panics if `width > 64` or fewer than `width` bits remain.
    #[inline]
    pub fn read_uint(&mut self, width: usize) -> u64 {
        if width > 64 {
            field_too_wide(width);
        }
        if width > self.remaining() {
            read_past_end(width, self.pos, self.bits.len());
        }
        if width == 0 {
            return 0;
        }
        let (word, off) = (self.pos / 64, self.pos % 64);
        let mut v = self.bits.words[word] >> off;
        if off + width > 64 {
            v |= self.bits.words[word + 1] << (64 - off);
        }
        self.pos += width;
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }
}

// The panics of `push_uint` and `read_uint`, formatted out of line so the
// checks cost the inlined fast path one compare each.

#[cold]
#[inline(never)]
fn field_too_wide(width: usize) -> ! {
    panic!("field width {width} exceeds 64 bits")
}

#[cold]
#[inline(never)]
fn value_too_wide(value: u64, width: usize) -> ! {
    panic!("value {value} does not fit in {width} bits")
}

#[cold]
#[inline(never)]
fn over_capacity(len: usize, width: usize) -> ! {
    panic!(
        "{len} + {width} control bits exceed the {CONTROL_BITS_CAPACITY}-bit capacity of a message"
    )
}

#[cold]
#[inline(never)]
fn read_past_end(width: usize, pos: usize, len: usize) -> ! {
    panic!("reading {width} bits at bit {pos} runs past the end {len}")
}

/// Number of bits needed to encode values in `[0, n)`; at least 1.
#[inline]
pub fn bits_for(n: u64) -> usize {
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros() as usize
    }
}

/// A message as transmitted on the channel in one round.
///
/// A message with a packet is built from the sender's [`QueuedPacket`]
/// and carries its [`Handle`], so the engine finds the packet in the
/// sender's queue with one slot probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// The packet carried by the message, if any. A message without a packet
    /// is called *light*; only general (non-plain-packet) algorithms may send
    /// light messages.
    pub packet: Option<Packet>,
    /// Control bits attached to the message.
    pub control: ControlBits,
    /// Where `packet` sits in the sender's queue ([`Handle::NONE`] for a
    /// light message).
    pub(crate) handle: Handle,
}

impl Message {
    /// A message consisting of a single plain packet with no control bits.
    #[inline]
    pub fn plain(qp: &QueuedPacket) -> Self {
        Self::with_control(qp, ControlBits::new())
    }

    /// A light message: control bits only.
    #[inline]
    pub fn light(control: ControlBits) -> Self {
        Self { packet: None, control, handle: Handle::NONE }
    }

    /// A packet with attached control bits.
    #[inline]
    pub fn with_control(qp: &QueuedPacket, control: ControlBits) -> Self {
        Self { packet: Some(qp.packet), control, handle: qp.handle() }
    }

    /// Whether the message is light (carries no packet).
    #[inline]
    pub fn is_light(&self) -> bool {
        self.packet.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use crate::queue::IndexedQueue;

    fn queued() -> QueuedPacket {
        let packet = Packet { id: PacketId(1), dest: 2, injected_round: 0, origin: 0 };
        IndexedQueue::new(3).push(packet, 0)
    }

    #[test]
    fn roundtrip_bits() {
        let mut c = ControlBits::new();
        c.push_bit(true);
        c.push_bit(false);
        c.push_uint(13, 4);
        c.push_uint(u64::MAX, 64);
        c.push_uint(0, 1);
        assert_eq!(c.len(), 1 + 1 + 4 + 64 + 1);
        let mut r = c.reader();
        assert!(r.read_bit());
        assert!(!r.read_bit());
        assert_eq!(r.read_uint(4), 13);
        assert_eq!(r.read_uint(64), u64::MAX);
        assert_eq!(r.read_uint(1), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn crosses_word_boundary() {
        let mut c = ControlBits::new();
        for i in 0..130u64 {
            c.push_bit(i % 3 == 0);
        }
        for i in 0..130u64 {
            assert_eq!(c.bit(i as usize), i % 3 == 0, "bit {i}");
        }
    }

    /// SplitMix64 step: a reproducible stream of test values.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn low_bits(value: u64, width: usize) -> u64 {
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    #[test]
    fn word_level_fields_match_a_bit_by_bit_reference() {
        let mut state = 0x5eed;
        for offset in 0..64 {
            for width in 0..=64 {
                let prefix = low_bits(next(&mut state), offset);
                let trailer = next(&mut state);
                for value in [0, low_bits(u64::MAX, width), low_bits(next(&mut state), width)] {
                    let fields = [(prefix, offset), (value, width), (trailer, 64)];
                    let mut words = ControlBits::new();
                    // The reference: every field pushed one bit at a time,
                    // least significant first, into a plain bit vector and
                    // into single-bit pushes (which never straddle a word).
                    let mut reference = Vec::new();
                    let mut bitwise = ControlBits::new();
                    for (v, w) in fields {
                        words.push_uint(v, w);
                        for i in 0..w {
                            reference.push((v >> i) & 1 == 1);
                            bitwise.push_bit((v >> i) & 1 == 1);
                        }
                    }
                    let at = format!("offset {offset} width {width} value {value:#x}");
                    assert_eq!(words, bitwise, "{at}");
                    assert_eq!(words.len(), reference.len(), "{at}");
                    for (pos, &bit) in reference.iter().enumerate() {
                        assert_eq!(words.bit(pos), bit, "{at} bit {pos}");
                    }
                    let mut r = words.reader();
                    for (v, w) in fields {
                        assert_eq!(r.read_uint(w), v, "{at}");
                    }
                    assert_eq!(r.remaining(), 0, "{at}");
                    // Bit-by-bit reads of the field reassemble the value.
                    let mut r = words.reader();
                    r.read_uint(offset);
                    let reread = (0..width).fold(0u64, |v, i| v | (u64::from(r.read_bit()) << i));
                    assert_eq!(reread, value, "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the 256-bit capacity")]
    fn pushing_bit_257_panics_with_the_capacity() {
        let mut c = ControlBits::new();
        for _ in 0..CONTROL_BITS_CAPACITY / 64 {
            c.push_uint(u64::MAX, 64);
        }
        assert_eq!(c.len(), 256);
        c.push_bit(true);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_field_panics() {
        let mut c = ControlBits::new();
        c.push_uint(8, 3);
    }

    /// Check that `f` panics with exactly `text`.
    fn assert_panics(text: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
        let payload = std::panic::catch_unwind(f).expect_err("the call must panic");
        let got = match payload.downcast::<String>() {
            Ok(got) => *got,
            Err(payload) => payload.downcast_ref::<&str>().expect("a text payload").to_string(),
        };
        assert_eq!(got, text);
    }

    #[test]
    fn every_field_check_panics_with_its_text() {
        assert_panics("field width 65 exceeds 64 bits", || ControlBits::new().push_uint(0, 65));
        assert_panics("value 8 does not fit in 3 bits", || ControlBits::new().push_uint(8, 3));
        assert_panics("256 + 1 control bits exceed the 256-bit capacity of a message", || {
            let mut c = ControlBits::new();
            (0..WORDS).for_each(|_| c.push_uint(u64::MAX, 64));
            c.push_bit(false);
        });
        assert_panics("field width 65 exceeds 64 bits", || {
            ControlBits::new().reader().read_uint(65);
        });
        assert_panics("reading 4 bits at bit 1 runs past the end 4", || {
            let mut c = ControlBits::new();
            c.push_uint(5, 4);
            let mut r = c.reader();
            r.read_bit();
            r.read_uint(4);
        });
    }

    #[test]
    fn bits_for_ranges() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
        assert_eq!(bits_for(1 << 33), 33);
    }

    #[test]
    fn message_kinds() {
        let qp = queued();
        let plain = Message::plain(&qp);
        assert!(!plain.is_light());
        assert_eq!(plain.handle, qp.handle());
        let light = Message::light(ControlBits::new());
        assert!(light.is_light());
        assert_eq!(light.handle, Handle::NONE);
        let mut c = ControlBits::new();
        c.push_bit(true);
        let m = Message::with_control(&qp, c);
        assert_eq!(m.control.len(), 1);
        assert_eq!(m.packet, Some(qp.packet));
        assert_eq!(m.handle, qp.handle());
    }

    #[test]
    fn reader_empty() {
        let c = ControlBits::new();
        assert_eq!(c.reader().remaining(), 0);
        assert!(c.is_empty());
    }
}
