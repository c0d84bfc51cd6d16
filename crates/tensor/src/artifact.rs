//! The versioned on-disk envelope shared by every model artifact.
//!
//! Training and serving are separate processes in the target architecture:
//! a trainer freezes its model into an *artifact*, a serving process loads
//! it (possibly much later, possibly built from a newer source tree) and
//! answers top-K queries. The envelope makes that hand-off safe:
//!
//! ```text
//! [ magic "CDRB" | kind len + kind bytes | format version u32
//!   | payload len u64 | payload checksum u64 | header checksum u64
//!   | payload bytes ]
//! ```
//!
//! * **magic** rejects files that are not artifacts at all;
//! * **kind** (e.g. `cdrib.model`, `cdrib.wal`) rejects artifacts of the
//!   wrong type before any payload decoding;
//! * **version** is per-kind and bumped on any payload layout change, so a
//!   reader never misinterprets old bytes (the serde stand-in's binary
//!   format has no self-description to fall back on);
//! * **payload checksum** (FNV-1a over the payload) rejects bit rot and
//!   truncation with a typed error instead of a garbled model;
//! * **header checksum** (FNV-1a over the kind/version/length/payload-checksum
//!   bytes) rejects bit rot in the header fields themselves — without it a
//!   flipped bit in `payload len` or the recorded checksum would be reported
//!   as payload corruption (or worse, truncation) instead of what it is.
//!
//! Envelopes also frame the serving write-ahead log (`cdrib_serve::wal`):
//! a log file opens with an envelope whose small payload carries the log
//! metadata, followed by raw append records. [`decode_prefix`] supports that
//! layout by returning how many bytes the envelope consumed instead of
//! insisting the payload runs to the end of the input.
//!
//! Payloads themselves are produced with [`serde::to_bytes`] by the owning
//! crate (`cdrib-core` for CDRIB models).

use std::fmt;

pub mod v2;

/// Leading magic bytes of every artifact file.
pub const MAGIC: [u8; 4] = *b"CDRB";

/// Errors raised while encoding or decoding an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// The input does not start with the artifact magic.
    BadMagic,
    /// The artifact holds a different kind of payload.
    WrongKind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind recorded in the artifact.
        found: String,
    },
    /// The artifact was written with an unsupported format version.
    UnsupportedVersion {
        /// Artifact kind.
        kind: String,
        /// Version recorded in the artifact.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload checksum does not match (bit rot, truncation, partial
    /// write).
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the actual payload bytes.
        actual: u64,
    },
    /// The envelope itself is shorter than its headers claim (including
    /// zero-length and sub-header-size inputs that still begin like an
    /// artifact).
    Truncated,
    /// The header fields themselves failed their checksum: the envelope was
    /// damaged before the payload even starts, so none of the recorded
    /// kind/version/length values can be trusted.
    HeaderCorrupted {
        /// Header checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the actual header bytes.
        actual: u64,
    },
    /// The payload failed to decode.
    Decode(serde::Error),
    /// The decoded payload is internally inconsistent with the loading
    /// context (e.g. parameter names or shapes that do not match the model
    /// the artifact claims to be).
    Mismatch {
        /// What disagreed.
        detail: String,
    },
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// A v2 section's offset violates the container's 64-byte grid or the
    /// section's own recorded element alignment — serving it in place from
    /// a map would fault or silently misread, so the whole load is refused.
    SectionMisaligned {
        /// Section name.
        name: String,
        /// Offset recorded in the section table.
        offset: u64,
        /// Alignment recorded in the section table.
        align: u32,
    },
    /// A v2 section's recorded range leaves the container (or overlaps the
    /// header/section table).
    SectionOutOfBounds {
        /// Section name.
        name: String,
        /// Offset recorded in the section table.
        offset: u64,
        /// Length recorded in the section table.
        len: u64,
        /// Total container length recorded in the header.
        total: u64,
    },
    /// Two v2 sections' recorded ranges intersect; a write through one view
    /// of such a file could corrupt the other, so the layout is rejected.
    SectionOverlap {
        /// First section (lower offset).
        a: String,
        /// Second section.
        b: String,
    },
    /// A v2 section's bytes fail their recorded FNV-1a checksum.
    SectionChecksum {
        /// Section name.
        name: String,
        /// Checksum recorded in the section table.
        expected: u64,
        /// Checksum of the actual section bytes.
        actual: u64,
    },
    /// A v2 container is missing a section the reader requires.
    MissingSection {
        /// Section name the reader asked for.
        name: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a CDRB artifact (bad magic)"),
            ArtifactError::WrongKind { expected, found } => {
                write!(f, "artifact kind mismatch: expected `{expected}`, found `{found}`")
            }
            ArtifactError::UnsupportedVersion { kind, found, supported } => write!(
                f,
                "unsupported `{kind}` artifact version {found} (this build supports {supported})"
            ),
            ArtifactError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact payload corrupted: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
            ArtifactError::Truncated => write!(f, "artifact truncated before the payload ended"),
            ArtifactError::HeaderCorrupted { expected, actual } => write!(
                f,
                "artifact header corrupted: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
            ArtifactError::Decode(e) => write!(f, "artifact payload failed to decode: {e}"),
            ArtifactError::Mismatch { detail } => write!(f, "artifact payload inconsistent: {detail}"),
            ArtifactError::Io(e) => write!(f, "artifact i/o failed: {e}"),
            ArtifactError::SectionMisaligned { name, offset, align } => write!(
                f,
                "artifact section `{name}` misaligned: offset {offset} with recorded alignment {align}"
            ),
            ArtifactError::SectionOutOfBounds {
                name,
                offset,
                len,
                total,
            } => write!(
                f,
                "artifact section `{name}` out of bounds: {offset}+{len} exceeds container of {total} bytes"
            ),
            ArtifactError::SectionOverlap { a, b } => {
                write!(f, "artifact sections `{a}` and `{b}` overlap")
            }
            ArtifactError::SectionChecksum { name, expected, actual } => write!(
                f,
                "artifact section `{name}` corrupted: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
            ArtifactError::MissingSection { name } => {
                write!(f, "artifact is missing required section `{name}`")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Decode(e) => Some(e),
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde::Error> for ArtifactError {
    fn from(e: serde::Error) -> Self {
        ArtifactError::Decode(e)
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// FNV-1a over a byte slice: not cryptographic, but a reliable detector of
/// flipped bits and truncation, dependency-free and fast enough to be noise
/// next to the payload encode itself. Public because the serving write-ahead
/// log checksums its append records with the same function the envelope uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps an encoded payload in the versioned envelope.
pub fn encode(kind: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + kind.len() + 40);
    out.extend_from_slice(&MAGIC);
    serde::Serialize::serialize(kind, &mut out);
    serde::Serialize::serialize(&version, &mut out);
    serde::Serialize::serialize(&(payload.len() as u64), &mut out);
    serde::Serialize::serialize(&fnv1a(payload), &mut out);
    let header_checksum = fnv1a(&out[MAGIC.len()..]);
    serde::Serialize::serialize(&header_checksum, &mut out);
    out.extend_from_slice(payload);
    out
}

/// Short header reads mean the file ended mid-header: that is truncation,
/// not a payload decode failure. Anything else (e.g. a kind string that is
/// not UTF-8) still surfaces as a decode error — the header checksum right
/// after parsing decides whether it was bit rot.
fn header_field<'de, T: serde::Deserialize<'de>>(input: &mut &'de [u8]) -> Result<T, ArtifactError> {
    serde::Deserialize::deserialize(input).map_err(|e| match e {
        // A length claiming more bytes than remain is the same symptom as a
        // plain short read: the file ended before the envelope did.
        serde::Error::UnexpectedEof { .. } | serde::Error::InvalidLength { .. } => ArtifactError::Truncated,
        other => ArtifactError::Decode(other),
    })
}

/// Validates the envelope and returns the payload slice plus the total
/// number of bytes the envelope occupied (header + payload). Bytes after the
/// payload are ignored, which is what frames the write-ahead log: an
/// envelope up front, append records after it.
///
/// `kind` and `version` are what the caller supports; any disagreement is a
/// typed [`ArtifactError`], never a silent misread.
pub fn decode_prefix<'a>(bytes: &'a [u8], kind: &str, version: u32) -> Result<(&'a [u8], usize), ArtifactError> {
    let head = &bytes[..bytes.len().min(MAGIC.len())];
    if head != &MAGIC[..head.len()] {
        return Err(ArtifactError::BadMagic);
    }
    if bytes.len() < MAGIC.len() {
        // Empty and sub-magic-size files that are a prefix of a real
        // artifact: typed truncation, not "bad magic".
        return Err(ArtifactError::Truncated);
    }
    let mut input = &bytes[MAGIC.len()..];
    let found_kind: String = header_field(&mut input)?;
    let found_version: u32 = header_field(&mut input)?;
    let payload_len: u64 = header_field(&mut input)?;
    let expected: u64 = header_field(&mut input)?;
    // Verify the header's own integrity before trusting any comparison
    // against the parsed fields: a flipped bit in `kind` must not be
    // reported as "wrong kind".
    let header_end = bytes.len() - input.len();
    let header_actual = fnv1a(&bytes[MAGIC.len()..header_end]);
    let header_expected: u64 = header_field(&mut input)?;
    if header_actual != header_expected {
        return Err(ArtifactError::HeaderCorrupted {
            expected: header_expected,
            actual: header_actual,
        });
    }
    if found_kind != kind {
        return Err(ArtifactError::WrongKind {
            expected: kind.to_string(),
            found: found_kind,
        });
    }
    if found_version != version {
        return Err(ArtifactError::UnsupportedVersion {
            kind: found_kind,
            found: found_version,
            supported: version,
        });
    }
    if (input.len() as u64) < payload_len {
        return Err(ArtifactError::Truncated);
    }
    let payload = &input[..payload_len as usize];
    let actual = fnv1a(payload);
    if actual != expected {
        return Err(ArtifactError::ChecksumMismatch { expected, actual });
    }
    let consumed = (bytes.len() - input.len()) + payload_len as usize;
    Ok((payload, consumed))
}

/// Validates the envelope and returns the payload slice.
///
/// `kind` and `version` are what the caller supports; any disagreement is a
/// typed [`ArtifactError`], never a silent misread.
pub fn decode<'a>(bytes: &'a [u8], kind: &str, version: u32) -> Result<&'a [u8], ArtifactError> {
    Ok(decode_prefix(bytes, kind, version)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_kind_checks() {
        let payload = serde::to_bytes(&vec![1.5f32, -2.0, 3.25]);
        let bytes = encode("test.kind", 3, &payload);
        let back = decode(&bytes, "test.kind", 3).unwrap();
        assert_eq!(back, &payload[..]);
        let values: Vec<f32> = serde::from_bytes(back).unwrap();
        assert_eq!(values, vec![1.5, -2.0, 3.25]);

        assert!(matches!(
            decode(&bytes, "other.kind", 3),
            Err(ArtifactError::WrongKind { .. })
        ));
        assert!(matches!(
            decode(&bytes, "test.kind", 4),
            Err(ArtifactError::UnsupportedVersion {
                found: 3,
                supported: 4,
                ..
            })
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let payload = serde::to_bytes(&String::from("model weights"));
        let bytes = encode("test.kind", 1, &payload);
        // Bad magic.
        assert!(matches!(decode(b"nope", "test.kind", 1), Err(ArtifactError::BadMagic)));
        // Every single-bit flip in the payload region must be caught.
        let payload_start = bytes.len() - payload.len();
        for offset in [payload_start, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x40;
            assert!(
                matches!(
                    decode(&corrupted, "test.kind", 1),
                    Err(ArtifactError::ChecksumMismatch { .. })
                ),
                "flip at {offset} must be detected"
            );
        }
        // Truncation.
        assert!(matches!(
            decode(&bytes[..bytes.len() - 3], "test.kind", 1),
            Err(ArtifactError::Truncated)
        ));
    }

    #[test]
    fn degenerate_inputs_are_typed_truncation() {
        // Zero-length and sub-header-size inputs must yield typed errors,
        // never a panic or a misleading payload-decode error.
        assert!(matches!(decode(b"", "test.kind", 1), Err(ArtifactError::Truncated)));
        assert!(matches!(decode(b"CD", "test.kind", 1), Err(ArtifactError::Truncated)));
        let bytes = encode("test.kind", 1, b"payload");
        // Every cut inside the header region reads as truncation (the file
        // ended before the envelope did), not as BadMagic/Decode garbage.
        let payload_start = bytes.len() - b"payload".len();
        for cut in MAGIC.len()..payload_start {
            assert!(
                matches!(decode(&bytes[..cut], "test.kind", 1), Err(ArtifactError::Truncated)),
                "cut at {cut} must be typed truncation"
            );
        }
    }

    #[test]
    fn header_bit_rot_is_detected() {
        let bytes = encode("test.kind", 1, b"payload");
        let payload_start = bytes.len() - b"payload".len();
        // A flipped bit anywhere in the checksummed header region (kind,
        // version, lengths, payload checksum) is reported as header
        // corruption — not misread as "wrong kind" or "payload corrupted".
        for offset in MAGIC.len()..payload_start {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x10;
            // A flip in a length byte can shift the parse, so the typed
            // error may be truncation or a decode failure instead of the
            // checksum verdict — but never a silent misread or a misleading
            // WrongKind / payload ChecksumMismatch.
            match decode(&corrupted, "test.kind", 1) {
                Err(ArtifactError::HeaderCorrupted { .. })
                | Err(ArtifactError::Truncated)
                | Err(ArtifactError::Decode(_)) => {}
                other => panic!("flip at {offset}: expected header corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn prefix_decode_reports_consumed_length() {
        let payload = b"wal header payload";
        let mut bytes = encode("test.wal", 2, payload);
        let envelope_len = bytes.len();
        bytes.extend_from_slice(b"records follow the envelope");
        let (back, consumed) = decode_prefix(&bytes, "test.wal", 2).unwrap();
        assert_eq!(back, payload);
        assert_eq!(consumed, envelope_len);
    }
}
