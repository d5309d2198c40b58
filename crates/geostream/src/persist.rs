//! Hand-rolled, zero-dependency, versioned binary serialization.
//!
//! Every stateful structure in the workspace implements [`Persist`]:
//! a deterministic little-endian byte encoding plus a checked decoder
//! that returns a typed [`PersistError`] (never a panic, never a
//! half-restored value) on truncated or corrupted input.
//!
//! ## Format
//!
//! A complete snapshot artifact is a *sealed envelope* ([`seal`] /
//! [`unseal`]):
//!
//! ```text
//! magic (8 bytes) | format version (u32 LE) | payload len (u64 LE)
//! | FNV-1a 64 checksum of payload (u64 LE) | payload bytes
//! ```
//!
//! Inside the payload, composite structures frame their state in
//! *length-prefixed sections* (`tag: u32 | len: u64 | body`). Decoders
//! read the fields they know and then [`PersistReader::finish_section`]
//! skips any trailing bytes a newer same-major writer may have
//! appended, so adding fields at the end of a section is a
//! backward-compatible change. Removing or reordering fields is not —
//! that requires bumping the format version, which makes old readers
//! fail with [`PersistError::UnsupportedVersion`] instead of
//! misinterpreting bytes.
//!
//! ## Determinism
//!
//! Encoders must be deterministic: hash maps are serialized in sorted
//! key order, floats as raw IEEE-754 bits (`-0.0`, infinities and NaN
//! payloads round-trip exactly), and `usize` always as `u64` so
//! snapshots are portable across pointer widths.

use crate::geometry::{Point, Rect};
use crate::object::{GeoTextObject, ObjectId};
use crate::rng::{RngState, StreamRng};
use crate::time::{Duration, Timestamp};
use crate::vocab::KeywordId;
use std::sync::Arc;

/// Current snapshot format version. Bump on any breaking layout change
/// (see the module docs for what counts as breaking).
///
/// * 1 — the first format.
/// * 2 — `latest-core`'s configuration fingerprint became an explicit field
///   encoding (it was a hash of the config's `Debug` text); nothing else
///   moved.
/// * 3 — `latest-core`'s payload lost its per-query log (the engine keeps
///   none), the error-threshold retraining state and that setting's
///   fingerprint line; `hoeffding`'s tree lost the leaf-prediction strategy
///   and each leaf's two naive-Bayes counters.
/// * 4 — `latest-core`'s payload lost the exact executor (object store,
///   spatial index, inverted index, path-mix counters), which restore
///   rebuilds from the window, and the fingerprint lost `index_kind`.
/// * 5 — `estimators`' RSL, RSH, SPN and FFN sections lost their
///   construction seed (the live RNG state is what continues the stream),
///   and the fingerprint lost `drift_detection`.
/// * 6 — `latest-core`'s payload lost three observability fields: a
///   retraining count, a coalesced-eviction tally and the previous query's
///   stream time (the metrics registry restarts at zero on restore).
pub const FORMAT_VERSION: u32 = 6;

/// Typed decode/IO failure. Restores either succeed completely or
/// return one of these; they never panic and never hand back a
/// half-restored structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before a field could be read.
    Truncated {
        context: &'static str,
        needed: usize,
        available: usize,
    },
    /// The artifact does not start with the expected magic bytes.
    BadMagic { expected: [u8; 8], found: [u8; 8] },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The payload checksum does not match its header.
    ChecksumMismatch { expected: u64, found: u64 },
    /// A structurally invalid value was decoded.
    Corrupt {
        context: &'static str,
        detail: String,
    },
    /// A filesystem operation failed while writing or reading a
    /// snapshot artifact.
    Io { op: &'static str, detail: String },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot while reading {context}: needed {needed} bytes, {available} available"
            ),
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:02x?}, found {found:02x?}"
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build supports {supported})"
            ),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            PersistError::Corrupt { context, detail } => {
                write!(f, "corrupt snapshot field {context}: {detail}")
            }
            PersistError::Io { op, detail } => write!(f, "snapshot io failure during {op}: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Wraps a `std::io::Error` with the operation that failed.
    pub fn io(op: &'static str, err: std::io::Error) -> Self {
        PersistError::Io {
            op,
            detail: err.to_string(),
        }
    }
}

/// FNV-1a 64-bit over `bytes` — the same zero-dep hash the query
/// signatures use, applied here as a corruption check (not a
/// cryptographic seal).
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Wraps a payload in the magic/version/length/checksum envelope.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A fixed-size window into the 28-byte envelope header. Infallible for
/// in-bounds offsets: `unseal` length-checks the header before calling.
fn header_array<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&bytes[at..at + N]);
    a
}

/// Validates an envelope and returns its payload slice.
pub fn unseal<'a>(
    magic: &[u8; 8],
    supported_version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], PersistError> {
    if bytes.len() < 28 {
        return Err(PersistError::Truncated {
            context: "envelope header",
            needed: 28,
            available: bytes.len(),
        });
    }
    let mut found_magic = [0u8; 8];
    found_magic.copy_from_slice(&bytes[..8]);
    if &found_magic != magic {
        return Err(PersistError::BadMagic {
            expected: *magic,
            found: found_magic,
        });
    }
    let version = u32::from_le_bytes(header_array(bytes, 8));
    if version != supported_version {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: supported_version,
        });
    }
    let len = u64::from_le_bytes(header_array(bytes, 12));
    let expected_sum = u64::from_le_bytes(header_array(bytes, 20));
    let len = usize::try_from(len).map_err(|_| PersistError::Corrupt {
        context: "envelope payload length",
        detail: format!("{len} does not fit in usize"),
    })?;
    let payload = bytes.get(28..28 + len).ok_or(PersistError::Truncated {
        context: "envelope payload",
        needed: len,
        available: bytes.len().saturating_sub(28),
    })?;
    let found_sum = checksum(payload);
    if found_sum != expected_sum {
        return Err(PersistError::ChecksumMismatch {
            expected: expected_sum,
            found: found_sum,
        });
    }
    Ok(payload)
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct PersistWriter {
    buf: Vec<u8>,
}

impl PersistWriter {
    pub fn new() -> Self {
        PersistWriter { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` is always encoded as `u64` for pointer-width portability.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Raw IEEE-754 bits: `-0.0`, infinities, and NaN payloads survive.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes `tag | len | body` where `body` is whatever `f` emits.
    /// The length prefix is backfilled after `f` runs.
    pub fn section(&mut self, tag: u32, f: impl FnOnce(&mut Self)) {
        self.put_u32(tag);
        let len_at = self.buf.len();
        self.put_u64(0);
        let body_start = self.buf.len();
        f(self);
        let body_len = (self.buf.len() - body_start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Length-prefixed sequence helper.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Checked cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct PersistReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// Handle returned by [`PersistReader::begin_section`]; consumed by
/// [`PersistReader::finish_section`] to validate framing.
#[derive(Debug)]
#[must_use = "call finish_section to validate section framing"]
pub struct Section {
    end: usize,
    tag: u32,
}

impl<'a> PersistReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        PersistReader { bytes, at: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    pub fn is_exhausted(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(PersistError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, PersistError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt {
                context,
                detail: format!("invalid bool byte {other}"),
            }),
        }
    }

    /// `take`, as a fixed-size array: `take(N, _)` hands back exactly `N`
    /// bytes, so the copy is infallible.
    fn take_array<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], PersistError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, context)?);
        Ok(a)
    }

    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take_array(context)?))
    }

    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take_array(context)?))
    }

    pub fn take_i64(&mut self, context: &'static str) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take_array(context)?))
    }

    pub fn take_usize(&mut self, context: &'static str) -> Result<usize, PersistError> {
        let v = self.take_u64(context)?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt {
            context,
            detail: format!("{v} does not fit in usize"),
        })
    }

    /// Bounded length for collection preallocation: rejects lengths
    /// that exceed the bytes left in the input, so a corrupted length
    /// prefix cannot trigger an absurd allocation.
    pub fn take_len(&mut self, context: &'static str) -> Result<usize, PersistError> {
        let v = self.take_usize(context)?;
        if v > self.remaining().saturating_add(1) * 64 {
            return Err(PersistError::Corrupt {
                context,
                detail: format!(
                    "length {v} is implausible with {} bytes left",
                    self.remaining()
                ),
            });
        }
        Ok(v)
    }

    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    pub fn take_bytes(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], PersistError> {
        self.take(n, context)
    }

    pub fn take_str(&mut self, context: &'static str) -> Result<String, PersistError> {
        let len = self.take_len(context)?;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| PersistError::Corrupt {
            context,
            detail: format!("invalid utf-8: {e}"),
        })
    }

    /// Reads a section header, verifying the tag, and returns a handle
    /// bounding the section body.
    pub fn begin_section(
        &mut self,
        tag: u32,
        context: &'static str,
    ) -> Result<Section, PersistError> {
        let found = self.take_u32(context)?;
        if found != tag {
            return Err(PersistError::Corrupt {
                context,
                detail: format!("expected section tag {tag:#x}, found {found:#x}"),
            });
        }
        let len = self.take_usize(context)?;
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => Ok(Section { end, tag }),
            None => Err(PersistError::Truncated {
                context,
                needed: len,
                available: self.remaining(),
            }),
        }
    }

    /// Validates section framing. Unread trailing bytes (fields added
    /// by a newer same-version writer) are skipped; reading *past* the
    /// section is corruption.
    pub fn finish_section(
        &mut self,
        section: Section,
        context: &'static str,
    ) -> Result<(), PersistError> {
        if self.at > section.end {
            return Err(PersistError::Corrupt {
                context,
                detail: format!(
                    "section {:#x} overran its frame by {} bytes",
                    section.tag,
                    self.at - section.end
                ),
            });
        }
        self.at = section.end;
        Ok(())
    }

    /// Length-prefixed sequence helper.
    pub fn take_seq<T>(
        &mut self,
        context: &'static str,
        mut f: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        let len = self.take_len(context)?;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// A structure whose complete state round-trips through the binary
/// snapshot format.
pub trait Persist: Sized {
    fn persist(&self, w: &mut PersistWriter);
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError>;
}

macro_rules! persist_prim {
    ($($ty:ty => $put:ident, $take:ident, $ctx:literal);* $(;)?) => {$(
        impl Persist for $ty {
            fn persist(&self, w: &mut PersistWriter) {
                w.$put(*self);
            }
            fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
                r.$take($ctx)
            }
        }
    )*};
}

persist_prim! {
    u8 => put_u8, take_u8, "u8";
    bool => put_bool, take_bool, "bool";
    u32 => put_u32, take_u32, "u32";
    u64 => put_u64, take_u64, "u64";
    i64 => put_i64, take_i64, "i64";
    usize => put_usize, take_usize, "usize";
    f64 => put_f64, take_f64, "f64";
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_usize(self.len());
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_len("vec length")?;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut PersistWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8("option discriminant")? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            other => Err(PersistError::Corrupt {
                context: "option discriminant",
                detail: format!("invalid byte {other}"),
            }),
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut PersistWriter) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl Persist for Timestamp {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(Timestamp(r.take_u64("timestamp")?))
    }
}

impl Persist for Duration {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(Duration(r.take_u64("duration")?))
    }
}

impl Persist for ObjectId {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(ObjectId(r.take_u64("object id")?))
    }
}

impl Persist for KeywordId {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(KeywordId(r.take_u32("keyword id")?))
    }
}

impl Persist for Point {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.x);
        w.put_f64(self.y);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(Point {
            x: r.take_f64("point.x")?,
            y: r.take_f64("point.y")?,
        })
    }
}

impl Persist for Rect {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.min_x);
        w.put_f64(self.min_y);
        w.put_f64(self.max_x);
        w.put_f64(self.max_y);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(Rect {
            min_x: r.take_f64("rect.min_x")?,
            min_y: r.take_f64("rect.min_y")?,
            max_x: r.take_f64("rect.max_x")?,
            max_y: r.take_f64("rect.max_y")?,
        })
    }
}

impl Persist for GeoTextObject {
    fn persist(&self, w: &mut PersistWriter) {
        self.oid.persist(w);
        self.loc.persist(w);
        w.put_usize(self.keywords.len());
        for kw in self.keywords.iter() {
            kw.persist(w);
        }
        self.timestamp.persist(w);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let oid = ObjectId::restore(r)?;
        let loc = Point::restore(r)?;
        let len = r.take_len("object keywords")?;
        let mut keywords = Vec::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            keywords.push(KeywordId::restore(r)?);
        }
        let timestamp = Timestamp::restore(r)?;
        // The constructor invariant (sorted, deduped) is re-imposed by
        // decode rather than trusted from the wire.
        Ok(GeoTextObject::new(oid, loc, keywords, timestamp))
    }
}

impl Persist for Arc<[KeywordId]> {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_usize(self.len());
        for kw in self.iter() {
            kw.persist(w);
        }
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_len("keyword slice")?;
        let mut keywords = Vec::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            keywords.push(KeywordId::restore(r)?);
        }
        Ok(keywords.into())
    }
}

impl Persist for RngState {
    fn persist(&self, w: &mut PersistWriter) {
        for word in self.key {
            w.put_u32(word);
        }
        w.put_u64(self.counter);
        for word in self.buf {
            w.put_u32(word);
        }
        w.put_usize(self.index);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let mut key = [0u32; 8];
        for word in &mut key {
            *word = r.take_u32("rng key")?;
        }
        let counter = r.take_u64("rng counter")?;
        let mut buf = [0u32; 64];
        for word in &mut buf {
            *word = r.take_u32("rng buf")?;
        }
        let index = r.take_usize("rng index")?;
        if index > 65 {
            return Err(PersistError::Corrupt {
                context: "rng index",
                detail: format!("{index} exceeds buffer length"),
            });
        }
        Ok(RngState {
            key,
            counter,
            buf,
            index,
        })
    }
}

impl Persist for StreamRng {
    fn persist(&self, w: &mut PersistWriter) {
        self.state().persist(w);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(StreamRng::from_state(RngState::restore(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = PersistWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_usize(123_456);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert!(r.take_bool("b").unwrap());
        assert_eq!(r.take_u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64("d").unwrap(), u64::MAX);
        assert_eq!(r.take_i64("e").unwrap(), -42);
        assert_eq!(r.take_usize("f").unwrap(), 123_456);
        assert_eq!(r.take_f64("g").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64("h").unwrap(), f64::INFINITY);
        assert_eq!(r.take_f64("i").unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.take_str("j").unwrap(), "hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let mut w = PersistWriter::new();
        w.put_u64(1234);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = PersistReader::new(&bytes[..cut]);
            match r.take_u64("field") {
                Err(PersistError::Truncated { available, .. }) => assert_eq!(available, cut),
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn envelope_round_trip_and_tampering() {
        const MAGIC: &[u8; 8] = b"LTSTSNAP";
        let payload = b"some payload bytes".to_vec();
        let sealed = seal(MAGIC, FORMAT_VERSION, &payload);
        assert_eq!(
            unseal(MAGIC, FORMAT_VERSION, &sealed).unwrap(),
            &payload[..]
        );

        // Wrong magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            unseal(MAGIC, FORMAT_VERSION, &bad),
            Err(PersistError::BadMagic { .. })
        ));

        // Future version.
        let future = seal(MAGIC, FORMAT_VERSION + 1, &payload);
        assert!(matches!(
            unseal(MAGIC, FORMAT_VERSION, &future),
            Err(PersistError::UnsupportedVersion { .. })
        ));

        // Flipped payload byte.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            unseal(MAGIC, FORMAT_VERSION, &flipped),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // Every truncation prefix fails with a typed error.
        for cut in 0..sealed.len() {
            let err = unseal(MAGIC, FORMAT_VERSION, &sealed[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn sections_skip_unknown_trailing_fields() {
        let mut w = PersistWriter::new();
        w.section(0x11, |w| {
            w.put_u64(42);
            w.put_u64(99); // a field this reader doesn't know about
        });
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let sec = r.begin_section(0x11, "test section").unwrap();
        assert_eq!(r.take_u64("known field").unwrap(), 42);
        r.finish_section(sec, "test section").unwrap();
        assert_eq!(r.take_u64("tail").unwrap(), 7);
    }

    #[test]
    fn section_overrun_is_corrupt() {
        let mut w = PersistWriter::new();
        w.section(0x22, |w| w.put_u32(1));
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let sec = r.begin_section(0x22, "s").unwrap();
        let _ = r.take_u64("too much").unwrap();
        assert!(matches!(
            r.finish_section(sec, "s"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn geostream_types_round_trip() {
        let obj = GeoTextObject::new(
            ObjectId(17),
            Point::new(-0.0, 42.5),
            vec![KeywordId(9), KeywordId(3), KeywordId(9)],
            Timestamp(1_000),
        );
        let mut w = PersistWriter::new();
        obj.persist(&mut w);
        Rect::WORLD.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let back = GeoTextObject::restore(&mut r).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.loc.x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(Rect::restore(&mut r).unwrap(), Rect::WORLD);
        assert!(r.is_exhausted());
    }

    #[test]
    fn rng_state_round_trip_resumes_sequence() {
        let mut rng = crate::rng::StreamRng::seed_from_u64(3);
        for _ in 0..37 {
            rng.next_u32();
        }
        let mut w = PersistWriter::new();
        rng.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = crate::rng::StreamRng::restore(&mut r).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), back.next_u64());
        }
    }
}
