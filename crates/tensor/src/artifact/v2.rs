//! The fixed-layout, alignment-padded **artifact v2** container.
//!
//! Where the v1 envelope wraps one serde payload that must be *decoded*
//! into heap tables, v2 lays raw little-endian table sections out at fixed,
//! 64-byte-aligned offsets so a reader can serve them *in place* from a
//! memory map (see [`crate::mmap`] and [`crate::storage::TableStorage`]):
//!
//! ```text
//! offset 0   header (64 bytes)
//!            [ magic "CDR2" | container version u32 | kind [u8;16]
//!              | kind version u32 | section count u32 | total len u64
//!              | header checksum u64 (FNV-1a, header+section table)
//!              | reserved ]
//! offset 64  section table (48 bytes per entry)
//!            [ name [u8;16] | offset u64 | len u64 | align u32
//!              | reserved u32 | section checksum u64 (FNV-1a) ]
//! ...        sections, each starting at a 64-byte-aligned offset,
//!            zero-padded in between
//! ```
//!
//! The magic differs from v1's `CDRB`, so each loader rejects the other
//! format with a typed `BadMagic` instead of misparsing it. [`Reader::open`]
//! validates everything eagerly — magic, versions, kind, total length,
//! header checksum, and for every section: power-of-two alignment, 64-byte
//! and element alignment of its offset, bounds, pairwise overlap, and the
//! per-section FNV-1a checksum. After `open` succeeds, handing out borrowed
//! table views is pure pointer arithmetic.

use std::borrow::Cow;
use std::sync::Arc;

use super::{fnv1a, ArtifactError};
use crate::mmap::{MappedRegion, REGION_ALIGN};
use crate::storage::TableStorage;

/// Leading magic bytes of every v2 container.
pub(crate) const MAGIC_V2: [u8; 4] = *b"CDR2";

/// Container layout version (independent of each kind's payload version).
pub(crate) const CONTAINER_VERSION: u32 = 1;

/// Header size in bytes; also the alignment unit for sections.
pub const HEADER_BYTES: usize = 64;

/// Section-table entry size in bytes.
pub const ENTRY_BYTES: usize = 48;

/// Maximum length of a section (or kind) name in bytes.
pub(crate) const NAME_BYTES: usize = 16;

const CHECKSUMMED_HEADER_BYTES: usize = 40;

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

fn name_field(name: &str) -> [u8; NAME_BYTES] {
    let bytes = name.as_bytes();
    assert!(
        !bytes.is_empty() && bytes.len() <= NAME_BYTES,
        "v2 names are 1..={NAME_BYTES} bytes, got {name:?}"
    );
    let mut field = [0u8; NAME_BYTES];
    field[..bytes.len()].copy_from_slice(bytes);
    field
}

fn name_str(field: &[u8]) -> String {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    String::from_utf8_lossy(&field[..end]).into_owned()
}

/// `true` when `bytes` begin with the v2 magic — the cheap dispatch test a
/// loader runs before deciding between the v1 decode path and this reader.
pub fn is_v2(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC_V2.len() && bytes[..MAGIC_V2.len()] == MAGIC_V2
}

/// Builds a v2 container in memory, one section at a time.
///
/// Sections are held as given — an owned encoding is moved in, a borrowed
/// one stays borrowed — so [`Writer::finish`] copies each section's bytes
/// exactly once, into the container.
pub struct Writer<'a> {
    kind: [u8; NAME_BYTES],
    kind_version: u32,
    sections: Vec<(String, u32, Cow<'a, [u8]>)>,
}

impl<'a> Writer<'a> {
    /// Starts a container of the given kind (≤ 16 bytes) and kind version.
    pub fn new(kind: &str, kind_version: u32) -> Self {
        Writer {
            kind: name_field(kind),
            kind_version,
            sections: Vec::new(),
        }
    }

    /// Appends a section. `align` is the element alignment the section's
    /// future typed views need (power of two, at most 64 — sections are
    /// 64-byte aligned regardless, the recorded value documents intent and
    /// is validated on read).
    pub fn push(&mut self, name: &str, align: u32, bytes: impl Into<Cow<'a, [u8]>>) {
        assert!(
            align.is_power_of_two() && align as usize <= REGION_ALIGN,
            "section alignment must be a power of two <= {REGION_ALIGN}, got {align}"
        );
        assert!(
            !self.sections.iter().any(|(n, _, _)| n == name),
            "duplicate v2 section name {name:?}"
        );
        name_field(name); // validates length
        self.sections.push((name.to_string(), align, bytes.into()));
    }

    /// Lays out and returns the finished container bytes.
    pub fn finish(self) -> Vec<u8> {
        let table_end = HEADER_BYTES + self.sections.len() * ENTRY_BYTES;
        let mut offset = align_up(table_end, REGION_ALIGN);
        let mut placed = Vec::with_capacity(self.sections.len());
        for (name, align, bytes) in &self.sections {
            placed.push((name.clone(), *align, offset, bytes.len(), fnv1a(bytes)));
            offset = align_up(offset + bytes.len(), REGION_ALIGN);
        }
        // A container with zero sections, or whose last section is empty,
        // still records `total_len` past the final alignment pad so the
        // layout is unambiguous.
        let total_len = if let Some((_, _, off, len, _)) = placed.last() {
            align_up(off + len, REGION_ALIGN).max(align_up(table_end, REGION_ALIGN))
        } else {
            align_up(table_end, REGION_ALIGN)
        };

        let mut out = vec![0u8; total_len];
        out[0..4].copy_from_slice(&MAGIC_V2);
        out[4..8].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
        out[8..24].copy_from_slice(&self.kind);
        out[24..28].copy_from_slice(&self.kind_version.to_le_bytes());
        out[28..32].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out[32..40].copy_from_slice(&(total_len as u64).to_le_bytes());
        // 40..48 header checksum, filled below; 48..64 reserved zeros.

        for (i, (name, align, off, len, checksum)) in placed.iter().enumerate() {
            let e = HEADER_BYTES + i * ENTRY_BYTES;
            out[e..e + 16].copy_from_slice(&name_field(name));
            out[e + 16..e + 24].copy_from_slice(&(*off as u64).to_le_bytes());
            out[e + 24..e + 32].copy_from_slice(&(*len as u64).to_le_bytes());
            out[e + 32..e + 36].copy_from_slice(&align.to_le_bytes());
            // e+36..e+40 reserved zeros.
            out[e + 40..e + 48].copy_from_slice(&checksum.to_le_bytes());
        }
        for ((_, _, off, _, _), (_, _, bytes)) in placed.iter().zip(&self.sections) {
            out[*off..*off + bytes.len()].copy_from_slice(bytes);
        }

        // The header checksum covers the header fields (sans itself and the
        // reserved tail) plus the whole section table, so a flipped bit in
        // any offset/length/name is caught before it can misdirect a read.
        let mut checksummed = Vec::with_capacity(CHECKSUMMED_HEADER_BYTES + placed.len() * ENTRY_BYTES);
        checksummed.extend_from_slice(&out[..CHECKSUMMED_HEADER_BYTES]);
        checksummed.extend_from_slice(&out[HEADER_BYTES..table_end]);
        let header_checksum = fnv1a(&checksummed);
        out[40..48].copy_from_slice(&header_checksum.to_le_bytes());
        out
    }
}

struct ParsedSection {
    name: String,
    offset: usize,
    len: usize,
    align: u32,
}

/// A validated v2 container over a mapped (or heap-fallback) region.
///
/// Holding a `Reader` — or any [`TableStorage`] view it handed out — keeps
/// the backing region alive.
pub struct Reader {
    region: Arc<MappedRegion>,
    sections: Vec<ParsedSection>,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

impl Reader {
    /// Opens and fully validates a v2 container of the expected kind.
    ///
    /// Every check failure is a typed [`ArtifactError`]; checksums over the
    /// header, the section table and every section body are verified
    /// eagerly, so by the time `open` returns the whole file has been
    /// proven internally consistent (this is the one full read the
    /// zero-copy path pays — it is what warms the page cache anyway).
    pub fn open(region: Arc<MappedRegion>, kind: &str, kind_version: u32) -> Result<Self, ArtifactError> {
        let bytes = region.as_bytes();
        let head = &bytes[..bytes.len().min(MAGIC_V2.len())];
        if head != &MAGIC_V2[..head.len()] {
            return Err(ArtifactError::BadMagic);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(ArtifactError::Truncated);
        }
        let container_version = read_u32(bytes, 4);
        if container_version != CONTAINER_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                kind: "cdr2-container".to_string(),
                found: container_version,
                supported: CONTAINER_VERSION,
            });
        }
        let found_kind = name_str(&bytes[8..24]);
        let found_kind_version = read_u32(bytes, 24);
        let section_count = read_u32(bytes, 28) as usize;
        let total_len = read_u64(bytes, 32);
        let recorded_header_checksum = read_u64(bytes, 40);

        let table_end = HEADER_BYTES + section_count * ENTRY_BYTES;
        if (bytes.len() as u64) < total_len || bytes.len() < table_end {
            return Err(ArtifactError::Truncated);
        }
        if bytes.len() as u64 > total_len {
            return Err(ArtifactError::Mismatch {
                detail: format!("container records {total_len} bytes but the file has {}", bytes.len()),
            });
        }

        let mut checksummed = Vec::with_capacity(CHECKSUMMED_HEADER_BYTES + section_count * ENTRY_BYTES);
        checksummed.extend_from_slice(&bytes[..CHECKSUMMED_HEADER_BYTES]);
        checksummed.extend_from_slice(&bytes[HEADER_BYTES..table_end]);
        let actual_header_checksum = fnv1a(&checksummed);
        if actual_header_checksum != recorded_header_checksum {
            return Err(ArtifactError::HeaderCorrupted {
                expected: recorded_header_checksum,
                actual: actual_header_checksum,
            });
        }

        // Only after the header+table checksum holds do kind/version
        // comparisons mean anything.
        if found_kind != kind {
            return Err(ArtifactError::WrongKind {
                expected: kind.to_string(),
                found: found_kind,
            });
        }
        if found_kind_version != kind_version {
            return Err(ArtifactError::UnsupportedVersion {
                kind: found_kind,
                found: found_kind_version,
                supported: kind_version,
            });
        }

        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let e = HEADER_BYTES + i * ENTRY_BYTES;
            let name = name_str(&bytes[e..e + NAME_BYTES]);
            let offset = read_u64(bytes, e + 16);
            let len = read_u64(bytes, e + 24);
            let align = read_u32(bytes, e + 32);
            let recorded = read_u64(bytes, e + 40);

            if !align.is_power_of_two()
                || align as usize > REGION_ALIGN
                || !offset.is_multiple_of(REGION_ALIGN as u64)
                || !offset.is_multiple_of(align as u64)
            {
                return Err(ArtifactError::SectionMisaligned { name, offset, align });
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| ArtifactError::SectionOutOfBounds {
                    name: name.clone(),
                    offset,
                    len,
                    total: total_len,
                })?;
            if offset < table_end as u64 || end > total_len {
                return Err(ArtifactError::SectionOutOfBounds {
                    name,
                    offset,
                    len,
                    total: total_len,
                });
            }
            if sections.iter().any(|s: &ParsedSection| s.name == name) {
                return Err(ArtifactError::Mismatch {
                    detail: format!("duplicate section name {name:?}"),
                });
            }
            let body = &bytes[offset as usize..end as usize];
            let actual = fnv1a(body);
            if actual != recorded {
                return Err(ArtifactError::SectionChecksum {
                    name,
                    expected: recorded,
                    actual,
                });
            }
            sections.push(ParsedSection {
                name,
                offset: offset as usize,
                len: len as usize,
                align,
            });
        }

        // Pairwise overlap: sort by offset, neighbours must not intersect.
        let mut order: Vec<usize> = (0..sections.len()).collect();
        order.sort_by_key(|&i| sections[i].offset);
        for pair in order.windows(2) {
            let (a, b) = (&sections[pair[0]], &sections[pair[1]]);
            if a.offset + a.len > b.offset {
                return Err(ArtifactError::SectionOverlap {
                    a: a.name.clone(),
                    b: b.name.clone(),
                });
            }
        }

        Ok(Reader { region, sections })
    }

    /// Whether a section of this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// The backing region.
    pub fn region(&self) -> &Arc<MappedRegion> {
        &self.region
    }

    fn find(&self, name: &str) -> Result<&ParsedSection, ArtifactError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| ArtifactError::MissingSection { name: name.to_string() })
    }

    /// A section's raw bytes (borrowed from the region).
    pub fn section_bytes(&self, name: &str) -> Result<&[u8], ArtifactError> {
        let s = self.find(name)?;
        Ok(&self.region.as_bytes()[s.offset..s.offset + s.len])
    }

    /// A section as zero-copy typed table storage.
    ///
    /// Validates that the section length is a whole number of elements and
    /// that the recorded alignment covers `T`'s.
    pub fn storage<T: Copy + 'static>(&self, name: &str) -> Result<TableStorage<T>, ArtifactError> {
        let s = self.find(name)?;
        let elem = std::mem::size_of::<T>();
        if s.len % elem != 0 {
            return Err(ArtifactError::Mismatch {
                detail: format!(
                    "section {:?} holds {} bytes, not a whole number of {elem}-byte elements",
                    s.name, s.len
                ),
            });
        }
        if (s.align as usize) < std::mem::align_of::<T>() {
            return Err(ArtifactError::SectionMisaligned {
                name: s.name.clone(),
                offset: s.offset as u64,
                align: s.align,
            });
        }
        TableStorage::mapped(Arc::clone(&self.region), s.offset, s.len / elem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new("test.v2", 3);
        let floats: Vec<u8> = [1.0f32, -2.0, 3.5].iter().flat_map(|v| v.to_le_bytes()).collect();
        w.push("floats", 4, floats);
        w.push("tiny", 1, &b"xyz"[..]);
        w.finish()
    }

    #[test]
    fn roundtrip_sections() {
        let bytes = sample();
        assert!(is_v2(&bytes));
        assert_eq!(bytes.len() % REGION_ALIGN, 0);
        let reader = Reader::open(mmap::from_bytes(&bytes), "test.v2", 3).unwrap();
        assert_eq!(reader.section_bytes("tiny").unwrap(), b"xyz");
        let table: TableStorage<f32> = reader.storage("floats").unwrap();
        assert!(table.is_mapped());
        assert_eq!(&table[..], &[1.0, -2.0, 3.5]);
        assert!(reader.has("tiny"));
        assert!(!reader.has("absent"));
        assert!(matches!(
            reader.section_bytes("absent"),
            Err(ArtifactError::MissingSection { .. })
        ));
    }

    #[test]
    fn kind_and_version_checks() {
        let bytes = sample();
        assert!(matches!(
            Reader::open(mmap::from_bytes(&bytes), "other.kind", 3),
            Err(ArtifactError::WrongKind { .. })
        ));
        assert!(matches!(
            Reader::open(mmap::from_bytes(&bytes), "test.v2", 4),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
        // v1 magic is rejected before anything else.
        assert!(matches!(
            Reader::open(mmap::from_bytes(b"CDRBxxxx"), "test.v2", 3),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = sample();
        // Flip a bit in a section body: section checksum.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - REGION_ALIGN; // inside "tiny"'s padded block
        corrupted[last] ^= 0x01;
        assert!(matches!(
            Reader::open(mmap::from_bytes(&corrupted), "test.v2", 3),
            Err(ArtifactError::SectionChecksum { .. }) | Err(ArtifactError::HeaderCorrupted { .. })
        ));
        // Flip a bit in the section table: header checksum catches it.
        let mut corrupted = bytes.clone();
        corrupted[HEADER_BYTES + 17] ^= 0x01;
        assert!(matches!(
            Reader::open(mmap::from_bytes(&corrupted), "test.v2", 3),
            Err(ArtifactError::HeaderCorrupted { .. })
        ));
        // Truncation below the recorded total length.
        assert!(matches!(
            Reader::open(mmap::from_bytes(&bytes[..bytes.len() - 1]), "test.v2", 3),
            Err(ArtifactError::Truncated)
        ));
    }

    #[test]
    fn element_misalignment_is_rejected() {
        let mut w = Writer::new("test.v2", 1);
        w.push("odd", 1, &b"abcde"[..]);
        let bytes = w.finish();
        let reader = Reader::open(mmap::from_bytes(&bytes), "test.v2", 1).unwrap();
        // 5 bytes is not a whole number of f32s.
        assert!(reader.storage::<f32>("odd").is_err());
        // And an align-1 section must not be viewed as f32 either.
        assert!(matches!(
            reader.storage::<f32>("odd"),
            Err(ArtifactError::Mismatch { .. })
        ));
        assert!(reader.storage::<u8>("odd").is_ok());
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = Writer::new("test.v2", 1).finish();
        let reader = Reader::open(mmap::from_bytes(&bytes), "test.v2", 1).unwrap();
        assert!(!reader.has("anything"));
    }
}
