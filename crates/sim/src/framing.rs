//! Length-prefix framing shared by every byte-moving codec in the
//! workspace.
//!
//! A frame on the wire is a little-endian `u32` length followed by exactly
//! that many body bytes. Lengths are capped at [`MAX_FRAME_BYTES`] so a
//! corrupt length field cannot force a giant allocation, and every decode
//! path returns a [`FramingError`] — never a panic — on truncated or
//! adversarial input.
//!
//! Two codecs ride on this helper: the `rmt-netd` link protocol (`Frame`)
//! and the `rmt-session` compact batch codec (`SessionFrame`). Keeping the
//! length-prefix logic here means there is exactly one implementation of
//! the cap check and the truncation arithmetic, exercised by both proptest
//! suites. What goes inside a frame is each codec's own business, except
//! knowledge: the session frame and the per-message `PkaPayload` that
//! `rmt-netd` carries in its link frames both write `(u, γ(u), 𝒵_u)` with
//! `rmt_core::wire`.

use std::io::{self, Read};

/// Hard cap on a frame body, in bytes.
///
/// Generous for every payload in this workspace (a full `Knowledge` message
/// on a 64-node graph is a few KiB, a 64-payload session frame a few tens
/// of KiB) while keeping a corrupt length field harmless.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Why a length-prefixed frame failed to split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramingError {
    /// The input ended before the announced length (or before the length
    /// prefix itself was complete).
    Truncated {
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The announced body length.
        announced: usize,
    },
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            FramingError::TooLarge { announced } => {
                write!(
                    f,
                    "frame length {announced} exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FramingError {}

/// Reserves a length prefix in `out` and returns the mark to close it with
/// [`end_frame`]. Body bytes are appended between the two calls.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    out.extend_from_slice(&[0; 4]);
    mark
}

/// Patches the length prefix reserved at `mark` with the number of body
/// bytes appended since [`begin_frame`].
///
/// # Panics
///
/// If the body outgrew [`MAX_FRAME_BYTES`] — encoders own their body sizes,
/// so an oversized body is a programming error, not input-dependent.
pub fn end_frame(out: &mut [u8], mark: usize) {
    let body_len = out.len() - mark - 4;
    assert_body_fits(body_len);
    out[mark..mark + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
}

/// The wire size of a frame with a `body_len`-byte body, length prefix
/// included — what [`begin_frame`] … [`end_frame`] would produce.
///
/// # Panics
///
/// Exactly when [`end_frame`] would: if `body_len` exceeds
/// [`MAX_FRAME_BYTES`].
pub fn framed_len(body_len: usize) -> usize {
    assert_body_fits(body_len);
    4 + body_len
}

fn assert_body_fits(body_len: usize) {
    assert!(
        body_len <= MAX_FRAME_BYTES,
        "encoded frame body ({body_len} bytes) exceeds MAX_FRAME_BYTES"
    );
}

/// Splits one frame off the front of `bytes`, returning the body slice and
/// the total number of bytes consumed (prefix + body). Never panics.
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], usize), FramingError> {
    if bytes.len() < 4 {
        return Err(FramingError::Truncated {
            needed: 4,
            got: bytes.len(),
        });
    }
    let body_len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(FramingError::TooLarge {
            announced: body_len,
        });
    }
    if bytes.len() < 4 + body_len {
        return Err(FramingError::Truncated {
            needed: 4 + body_len,
            got: bytes.len(),
        });
    }
    Ok((&bytes[4..4 + body_len], 4 + body_len))
}

/// Reads exactly one frame body from a stream.
///
/// A clean EOF before the first byte maps to `ErrorKind::UnexpectedEof`; an
/// oversized length maps to `ErrorKind::InvalidData` carrying the
/// [`FramingError`], before any allocation happens.
pub fn read_frame_body<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FramingError::TooLarge {
                announced: body_len,
            },
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_begin_end_split() {
        let mut wire = Vec::new();
        for body in [&b""[..], b"x", b"hello frame"] {
            let mark = begin_frame(&mut wire);
            wire.extend_from_slice(body);
            end_frame(&mut wire, mark);
            assert_eq!(framed_len(body.len()), wire.len() - mark);
        }
        let mut at = 0;
        let mut bodies = Vec::new();
        while at < wire.len() {
            let (body, used) = split_frame(&wire[at..]).expect("stream split");
            bodies.push(body.to_vec());
            at += used;
        }
        assert_eq!(
            bodies,
            vec![b"".to_vec(), b"x".to_vec(), b"hello frame".to_vec()]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_BYTES")]
    fn framed_len_enforces_the_cap_like_end_frame() {
        framed_len(MAX_FRAME_BYTES + 1);
    }

    #[test]
    fn truncations_error_without_panicking() {
        let mut wire = Vec::new();
        let mark = begin_frame(&mut wire);
        wire.extend_from_slice(b"abcdef");
        end_frame(&mut wire, mark);
        for cut in 0..wire.len() {
            assert!(split_frame(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(0);
        assert_eq!(
            split_frame(&wire),
            Err(FramingError::TooLarge {
                announced: u32::MAX as usize
            })
        );
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame_body(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn stream_io_round_trips() {
        let mut wire = Vec::new();
        for body in [&b"payload"[..], b""] {
            let mark = begin_frame(&mut wire);
            wire.extend_from_slice(body);
            end_frame(&mut wire, mark);
        }
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame_body(&mut cursor).expect("read"), b"payload");
        assert_eq!(read_frame_body(&mut cursor).expect("read"), b"");
        assert_eq!(
            read_frame_body(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
