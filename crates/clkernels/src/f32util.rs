//! Little-endian `f32`/`u32` lanes over buffer bytes.
//!
//! Device buffers are raw bytes, and kernels compute on them in place:
//! a buffer is viewed as a slice of 4-byte [`Lane`]s, lane `i` is read
//! straight from the borrowed input bytes and each result is written
//! straight into the output bytes, with no decoded copy of the buffer
//! in between. The layout is fixed little-endian so results are
//! platform-independent. There is no `unsafe` transmute: a `Vec<u8>` is
//! only byte-aligned, so every lane goes through
//! `from_le_bytes`/`to_le_bytes`, which is a bit-exact round trip.
//! Trailing bytes that don't fill a lane are not part of the view and
//! are never touched, as on a real device.

/// One 4-byte element of a buffer, little-endian.
pub type Lane = [u8; 4];

/// The whole lanes of `bytes`.
#[inline]
pub fn lanes(bytes: &[u8]) -> &[Lane] {
    bytes.as_chunks().0
}

/// The whole lanes of `bytes`, writable in place.
#[inline]
pub fn lanes_mut(bytes: &mut [u8]) -> &mut [Lane] {
    bytes.as_chunks_mut().0
}

/// Lane `i` as an `f32`.
#[inline]
pub fn f32_at(lanes: &[Lane], i: usize) -> f32 {
    f32::from_le_bytes(lanes[i])
}

/// Lane `i` as a `u32`.
#[inline]
pub fn u32_at(lanes: &[Lane], i: usize) -> u32 {
    u32::from_le_bytes(lanes[i])
}

/// Overwrite lane `i` with `v`.
#[inline]
pub fn set_f32(lanes: &mut [Lane], i: usize, v: f32) {
    lanes[i] = v.to_le_bytes();
}

/// Overwrite lane `i` with `v`.
#[inline]
pub fn set_u32(lanes: &mut [Lane], i: usize, v: u32) {
    lanes[i] = v.to_le_bytes();
}

/// Every lane as an `f32`, in order.
pub fn f32_lanes(lanes: &[Lane]) -> impl Iterator<Item = f32> + '_ {
    lanes.iter().map(|&w| f32::from_le_bytes(w))
}

/// Every lane as a `u32`, in order.
pub fn u32_lanes(lanes: &[Lane]) -> impl Iterator<Item = u32> + '_ {
    lanes.iter().map(|&w| u32::from_le_bytes(w))
}

/// Write `values` into `lanes` from lane 0, one value per lane,
/// stopping when either runs out. Values are drawn in order, one per
/// lane written.
pub fn store_f32s(lanes: &mut [Lane], values: impl IntoIterator<Item = f32>) {
    for (lane, v) in lanes.iter_mut().zip(values) {
        *lane = v.to_le_bytes();
    }
}

/// Write `values` into `lanes` from lane 0 (see [`store_f32s`]).
pub fn store_u32s(lanes: &mut [Lane], values: impl IntoIterator<Item = u32>) {
    for (lane, v) in lanes.iter_mut().zip(values) {
        *lane = v.to_le_bytes();
    }
}

/// Pack `f32` values into a fresh byte vector.
pub fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Pack `u32` values into a fresh byte vector.
pub fn u32s_to_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let vals = [1.0f32, -2.5, 3.25];
        let bytes = f32s_to_bytes(&vals);
        assert_eq!(f32_lanes(lanes(&bytes)).collect::<Vec<_>>(), vals);
        assert_eq!(f32_at(lanes(&bytes), 2), 3.25);
        let mut buf = vec![0u8; 12];
        store_f32s(lanes_mut(&mut buf), vals);
        assert_eq!(buf, bytes);
        set_f32(lanes_mut(&mut buf), 1, 7.0);
        assert_eq!(f32_at(lanes(&buf), 1), 7.0);
    }

    #[test]
    fn u32_roundtrip() {
        let vals = [1u32, 0xdead_beef, 42];
        let bytes = u32s_to_bytes(&vals);
        assert_eq!(u32_lanes(lanes(&bytes)).collect::<Vec<_>>(), vals);
        assert_eq!(u32_at(lanes(&bytes), 1), 0xdead_beef);
        let mut buf = vec![0u8; 12];
        store_u32s(lanes_mut(&mut buf), vals);
        assert_eq!(buf, bytes);
        set_u32(lanes_mut(&mut buf), 0, 9);
        assert_eq!(u32_at(lanes(&buf), 0), 9);
    }

    #[test]
    fn trailing_bytes_ignored() {
        let mut bytes = f32s_to_bytes(&[1.0]);
        bytes.push(0xff);
        assert_eq!(lanes(&bytes).len(), 1);
        assert_eq!(f32_lanes(lanes(&bytes)).collect::<Vec<_>>(), vec![1.0]);
        store_f32s(lanes_mut(&mut bytes), [2.0, 3.0]);
        assert_eq!(bytes, [f32s_to_bytes(&[2.0]), vec![0xff]].concat());
    }

    #[test]
    fn lanes_keep_every_bit_pattern() {
        // A signalling NaN survives a read and a write unchanged.
        let bytes = 0x7f80_0001u32.to_le_bytes();
        let mut out = [0u8; 4];
        set_f32(lanes_mut(&mut out), 0, f32_at(lanes(&bytes), 0));
        assert_eq!(out, bytes);
    }
}
