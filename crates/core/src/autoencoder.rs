//! The hardware's view of the learnable Q/K auto-encoder (paper
//! Sec. IV-C): the head compression the simulator's traffic model reads.

/// Algorithm-level description of the auto-encoder: how many heads are
/// mixed down to how many.
///
/// The trainable weights themselves live in
/// [`vitcod_model::VisionTransformer`]; this type carries what the
/// *hardware* needs — the compression ratio that shrinks Q/K off-chip
/// traffic; the simulator derives the decoder's MACs from the two head
/// counts.
///
/// # Example
///
/// ```
/// use vitcod_core::AutoEncoderConfig;
///
/// let ae = AutoEncoderConfig::new(12, 6);
/// assert_eq!(ae.ratio(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoEncoderConfig {
    heads: usize,
    compressed_heads: usize,
}

impl AutoEncoderConfig {
    /// Creates a config compressing `heads` down to `compressed_heads`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= compressed_heads <= heads`.
    pub fn new(heads: usize, compressed_heads: usize) -> Self {
        assert!(
            (1..=heads).contains(&compressed_heads),
            "compressed heads must be in 1..=heads"
        );
        Self {
            heads,
            compressed_heads,
        }
    }

    /// The paper's default 50 % compression.
    pub fn half(heads: usize) -> Self {
        Self::new(heads, (heads / 2).max(1))
    }

    /// Original head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Compressed head count.
    pub fn compressed_heads(&self) -> usize {
        self.compressed_heads
    }

    /// Compression ratio `compressed / original` (0.5 in the paper).
    pub fn ratio(&self) -> f64 {
        self.compressed_heads as f64 / self.heads as f64
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical artifact replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn half_compression_ratio() {
        let ae = AutoEncoderConfig::half(12);
        assert_eq!(ae.compressed_heads(), 6);
        assert_eq!(ae.ratio(), 0.5);
        // Odd head count rounds down but never to zero.
        assert_eq!(AutoEncoderConfig::half(3).compressed_heads(), 1);
        assert_eq!(AutoEncoderConfig::half(1).compressed_heads(), 1);
    }

    #[test]
    #[should_panic(expected = "compressed heads")]
    fn zero_compression_rejected() {
        AutoEncoderConfig::new(8, 0);
    }
}
