//! Message-size quantization: TinyDB packets and wire-size accounting.
//!
//! The paper uses 48-byte messages "as used by the TinyDB system" (§7.1).
//! Partial results larger than one payload are fragmented into multiple
//! messages — this is what makes multi-path frequent-items synopses cost
//! ~3× the messages of tree summaries (§7.4.3), and it is the "Message
//! size" column of Table 1.

/// TinyDB message payload in bytes (§7.1).
pub const TINYDB_PAYLOAD_BYTES: usize = 48;

/// Size of one word (one item id or one counter) on the wire, in bytes.
/// The paper counts communication in 32-bit words (§6.1: "a word holds one
/// item or one counter").
pub const WORD_BYTES: usize = 4;

/// Number of whole TinyDB messages needed to carry `bytes` of payload.
/// Zero-byte payloads still cost one message (the paper's schemes always
/// transmit once per node per epoch, even for empty partial results).
#[inline]
pub fn messages_for_bytes(bytes: usize) -> u64 {
    if bytes == 0 {
        1
    } else {
        bytes.div_ceil(TINYDB_PAYLOAD_BYTES) as u64
    }
}

/// A partial result's wire footprint, reported by every aggregate so the
/// simulator can charge energy. `words` is the paper's unit for the
/// frequent-items load plots (Figure 8); `bytes` feeds message
/// quantization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireSize {
    /// Payload size in bytes (after any encoding such as RLE).
    pub bytes: usize,
    /// Payload size in 32-bit words (counters/items), before encoding.
    pub words: usize,
}

impl WireSize {
    /// A wire size measured in words (bytes derived at 4 bytes/word).
    pub fn from_words(words: usize) -> Self {
        WireSize {
            bytes: words * WORD_BYTES,
            words,
        }
    }

    /// Number of TinyDB messages this payload occupies.
    pub fn messages(&self) -> u64 {
        messages_for_bytes(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_costs_one_message() {
        assert_eq!(messages_for_bytes(0), 1);
    }

    #[test]
    fn exact_fit_is_one_message() {
        assert_eq!(messages_for_bytes(48), 1);
        assert_eq!(messages_for_bytes(1), 1);
        assert_eq!(messages_for_bytes(49), 2);
        assert_eq!(messages_for_bytes(96), 2);
        assert_eq!(messages_for_bytes(97), 3);
    }

    #[test]
    fn words_quantization() {
        assert_eq!(TINYDB_PAYLOAD_BYTES / WORD_BYTES, 12);
        assert_eq!(WireSize::from_words(12).messages(), 1);
        assert_eq!(WireSize::from_words(13).messages(), 2);
    }

    #[test]
    fn wire_size_conversions() {
        let w = WireSize::from_words(10);
        assert_eq!(w.bytes, 40);
        assert_eq!(w.messages(), 1);
    }

    #[test]
    fn forty_sum_synopses_fit_one_message_only_if_encoded() {
        // 40 x 32-bit bitmaps raw = 160 bytes = 4 messages; the paper packs
        // them into one 48-byte message with RLE (§7.1). The sketches crate
        // tests the actual encoded size; here we pin the raw arithmetic.
        assert_eq!(messages_for_bytes(40 * 4), 4);
    }
}
