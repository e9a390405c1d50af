//! Tiny fixed-layout serialization helpers for accelerator state blobs.
//!
//! Preemption state is streamed over DMA as raw bytes; kernels lay their
//! state out as a sequence of little-endian `u64` words followed by
//! variable-length byte runs. [`Writer`] and [`Reader`] keep that layout
//! code short. The blob comes back from guest memory, which the guest may
//! rewrite while its job is saved (§4.2), so every [`Reader`] call is
//! fallible: a short or inconsistent blob decodes to `None`, never to a
//! panic, and no length read from it sizes an allocation.

/// Appends fields to a state blob.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte run.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Finishes and returns the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fields back out of a state blob; `None` once the blob runs short.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a blob for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let (word, rest) = self.buf.split_first_chunk::<8>()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*word))
    }

    /// Reads a length-prefixed byte run, borrowed from the blob.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u64()?).ok()?;
        let (run, rest) = self.buf.split_at_checked(len)?;
        self.buf = rest;
        Some(run)
    }

    /// Reads a record count, accepted only if that many `size`-byte
    /// records still fit in the blob.
    pub fn count(&mut self, size: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.buf.len() / size).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut w = Writer::new();
        w.u64(7).u64(u64::MAX).bytes(b"hello");
        let blob = w.finish();
        let mut r = Reader::new(&blob);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.bytes(), Some(&b"hello"[..]));
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn empty_bytes() {
        let mut w = Writer::new();
        w.bytes(b"");
        let blob = w.finish();
        let mut r = Reader::new(&blob);
        assert_eq!(r.bytes(), Some(&[][..]));
    }

    #[test]
    fn short_or_lying_blobs_decode_to_none() {
        assert_eq!(Reader::new(&[1, 2, 3]).u64(), None);
        // A run or a count longer than what is left, up to 2^64 - 1.
        for len in [9, 1 << 40, u64::MAX] {
            let mut w = Writer::new();
            w.u64(len).u64(0);
            let blob = w.finish();
            assert_eq!(Reader::new(&blob).bytes(), None, "len {len}");
            assert_eq!(Reader::new(&blob).count(16), None, "len {len}");
        }
        let mut w = Writer::new();
        w.u64(2).u64(1).u64(2);
        assert_eq!(Reader::new(&w.finish()).count(8), Some(2));
    }
}
