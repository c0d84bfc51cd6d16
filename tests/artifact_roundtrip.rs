//! Property tests of the frozen-model artifact pipeline: `save` → `load` →
//! tape-free `InferenceModel` must reproduce the tape forward **bit for
//! bit** across model topologies, and damaged or version-skewed artifacts
//! must fail with typed errors — never decode into a silently different
//! model.

use cdrib::core::artifact::{MODEL_KIND, MODEL_VERSION};
use cdrib::core::{load_model_bytes, save_model_bytes, CdribConfig, CdribModel, InferenceModel};
use cdrib::data::{build_preset, Scale, ScenarioKind};
use cdrib::graph::GraphDelta;
use cdrib::tensor::artifact as envelope;
use cdrib::tensor::artifact::{fnv1a, v2};
use cdrib::tensor::{mmap, ArtifactError};
use proptest::prelude::*;

/// A small model-topology strategy: embedding width, stacking depth, mean
/// activation and init seed all vary; the scenario stays tiny so each case
/// builds in milliseconds.
fn topology() -> impl Strategy<Value = (usize, usize, bool, u64)> {
    (4usize..20, 1usize..4, 0usize..2, 0u64..1000).prop_map(|(dim, layers, nl, seed)| (dim, layers, nl == 1, seed))
}

/// Ids across the whole `u32` space, with the maximum itself drawn often
/// enough that the round trip provably survives max-id edges.
fn wide_id() -> impl Strategy<Value = u32> {
    (0u32..u32::MAX).prop_map(|v| if v % 13 == 0 { u32::MAX } else { v })
}

fn build(dim: usize, layers: usize, nonlinear_mean: bool, seed: u64) -> (CdribModel, cdrib::data::CdrScenario) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 13).unwrap();
    let config = CdribConfig {
        dim,
        layers,
        nonlinear_mean,
        seed,
        eval_every: 0,
        patience: 0,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).unwrap();
    (model, scenario)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn save_load_inference_reproduces_tape_forward_bit_for_bit((dim, layers, nonlinear_mean, seed) in topology()) {
        let (model, scenario) = build(dim, layers, nonlinear_mean, seed);
        let tape = model.infer_embeddings().unwrap();

        let bytes = save_model_bytes(&model, &scenario);
        let (loaded, loaded_scenario) = load_model_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded_scenario.x.n_items, scenario.x.n_items);

        let mut inference = InferenceModel::from_model(&loaded);
        let frozen = inference.embeddings().unwrap();
        // Bitwise: the artifact carries exact f32 payloads and the tape-free
        // forward shares the tape's functional kernel layer.
        prop_assert_eq!(&tape.x_users, &frozen.x_users);
        prop_assert_eq!(&tape.x_items, &frozen.x_items);
        prop_assert_eq!(&tape.y_users, &frozen.y_users);
        prop_assert_eq!(&tape.y_items, &frozen.y_items);
    }

    #[test]
    fn corrupted_artifacts_fail_with_typed_errors((dim, layers, nonlinear_mean, seed) in topology()) {
        let (model, scenario) = build(dim, layers, nonlinear_mean, seed);
        let bytes = save_model_bytes(&model, &scenario);
        let payload_len = envelope::decode(&bytes, MODEL_KIND, MODEL_VERSION).unwrap().len();
        let payload_start = bytes.len() - payload_len;

        // Flip one byte at several payload offsets derived from the seed:
        // the checksum must catch every one of them.
        for salt in 0..4u64 {
            let offset = payload_start + ((seed.wrapping_mul(0x9e37) + salt * 7919) as usize % payload_len);
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 1 << (salt % 8);
            prop_assert!(
                matches!(load_model_bytes(&corrupted), Err(ArtifactError::ChecksumMismatch { .. })),
                "payload flip at {} escaped the checksum", offset
            );
        }
        // Header damage is typed too (never a panic, never a silent load).
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        prop_assert!(matches!(load_model_bytes(&bad_magic), Err(ArtifactError::BadMagic)));
        prop_assert!(load_model_bytes(&bytes[..payload_start / 2]).is_err());
    }

    #[test]
    fn version_skew_is_rejected((dim, layers, nonlinear_mean, seed) in topology()) {
        let (model, scenario) = build(dim, layers, nonlinear_mean, seed);
        let bytes = save_model_bytes(&model, &scenario);
        let payload = envelope::decode(&bytes, MODEL_KIND, MODEL_VERSION).unwrap().to_vec();

        let future = envelope::encode(MODEL_KIND, MODEL_VERSION + 1, &payload);
        prop_assert!(matches!(
            load_model_bytes(&future),
            Err(ArtifactError::UnsupportedVersion { found, supported, .. })
                if found == MODEL_VERSION + 1 && supported == MODEL_VERSION
        ));

        let wrong_kind = envelope::encode("cdrib.baseline", MODEL_VERSION, &payload);
        prop_assert!(matches!(
            load_model_bytes(&wrong_kind),
            Err(ArtifactError::WrongKind { .. })
        ));
    }

    /// The `GraphDelta` serde round trip the write-ahead log depends on:
    /// decode(encode(delta)) is the identity, and re-encoding the decoded
    /// value reproduces the exact same bytes — so a logged delta replays
    /// bitwise and a rewritten log is byte-stable.
    #[test]
    fn graph_delta_serde_roundtrip_is_bitwise_stable(
        add_users in 0usize..6,
        add_items in 0usize..6,
        edges in proptest::collection::vec((wide_id(), wide_id()), 0..24),
        remove_edges in proptest::collection::vec((wide_id(), wide_id()), 0..8),
        erase_users in proptest::collection::vec(wide_id(), 0..6),
        delist_items in proptest::collection::vec(wide_id(), 0..6),
    ) {
        let delta = GraphDelta {
            add_users,
            add_items,
            edges,
            remove_edges,
            erase_users,
            delist_items,
        };
        let bytes = serde::to_bytes(&delta);
        let back: GraphDelta = serde::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &delta);
        prop_assert_eq!(serde::to_bytes(&back), bytes, "re-encode must be byte-identical");
        // Truncation at any boundary is a decode error, never a delta with
        // silently dropped retraction ops — the WAL's replay guarantee.
        for cut in 0..bytes.len() {
            prop_assert!(serde::from_bytes::<GraphDelta>(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }
}

/// Section-name pool for generated v2 containers.
const V2_NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "meta", "xu"];
const V2_KIND: &str = "test.prop";
const V2_KIND_VERSION: u32 = 7;

/// A random v2 layout: up to five sections drawn from a fixed name pool
/// (first occurrence wins), each with a random power-of-two alignment and a
/// random payload, including empty ones.
fn v2_layout() -> impl Strategy<Value = Vec<(usize, u32, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0usize..V2_NAMES.len(),
            0u32..4,
            proptest::collection::vec(0u8..255, 0..96),
        ),
        1..6,
    )
}

/// The section-table entries of a v2 image: `(entry_pos, offset, len)`.
fn v2_entries(bytes: &[u8]) -> Vec<(usize, usize, usize)> {
    let count = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = v2::HEADER_BYTES + i * v2::ENTRY_BYTES;
            let offset = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 24..e + 32].try_into().unwrap()) as usize;
            (e, offset, len)
        })
        .collect()
}

/// Recomputes the header checksum after deliberate section-table surgery,
/// so the *section-level* validation (alignment, bounds, overlap) is what
/// rejects the tampered container — not the header checksum.
fn reseal_v2_header(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let table_end = v2::HEADER_BYTES + count * v2::ENTRY_BYTES;
    // The checksum covers the first 40 header bytes (everything before the
    // checksum field itself) plus the whole section table.
    let mut checksummed = Vec::with_capacity(40 + count * v2::ENTRY_BYTES);
    checksummed.extend_from_slice(&bytes[..40]);
    checksummed.extend_from_slice(&bytes[v2::HEADER_BYTES..table_end]);
    let sum = fnv1a(&checksummed);
    bytes[40..48].copy_from_slice(&sum.to_le_bytes());
}

fn open_v2(bytes: &[u8]) -> Result<v2::Reader, ArtifactError> {
    v2::Reader::open(mmap::from_bytes(bytes), V2_KIND, V2_KIND_VERSION)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The v2 container round-trips arbitrary section layouts, and every
    /// way the fixed layout can be damaged — truncation at every section
    /// boundary, payload bit rot, section-table tampering that misaligns,
    /// escapes the bounds or overlaps sections — fails with the matching
    /// typed [`ArtifactError`], never a panic or a silent misread.
    #[test]
    fn v2_containers_reject_damage_with_typed_errors(layout in v2_layout()) {
        let mut writer = v2::Writer::new(V2_KIND, V2_KIND_VERSION);
        let mut sections: Vec<(&str, Vec<u8>)> = Vec::new();
        for (name_idx, align_exp, data) in layout {
            let name = V2_NAMES[name_idx];
            if sections.iter().any(|(n, _)| *n == name) {
                continue;
            }
            writer.push(name, 1 << align_exp, data.clone());
            sections.push((name, data));
        }
        let bytes = writer.finish();

        // The intact container round-trips every section verbatim.
        let reader = open_v2(&bytes).unwrap();
        for (name, data) in &sections {
            prop_assert_eq!(reader.section_bytes(name).unwrap(), &data[..]);
        }
        prop_assert!(matches!(
            reader.section_bytes("absent"),
            Err(ArtifactError::MissingSection { .. })
        ));
        prop_assert!(matches!(
            v2::Reader::open(mmap::from_bytes(&bytes), "other.kind", V2_KIND_VERSION),
            Err(ArtifactError::WrongKind { .. })
        ));
        prop_assert!(matches!(
            v2::Reader::open(mmap::from_bytes(&bytes), V2_KIND, V2_KIND_VERSION + 1),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));

        // Truncation at every section boundary (plus the header edges and
        // the final byte) is always `Truncated` — the recorded total length
        // makes any shortened image typed-invalid.
        let entries = v2_entries(&bytes);
        let mut cuts = vec![0, 1, v2::HEADER_BYTES - 1, v2::HEADER_BYTES, bytes.len() - 1];
        for &(_, offset, len) in &entries {
            cuts.push(offset);
            cuts.push(offset + len);
        }
        for cut in cuts {
            if cut < bytes.len() {
                prop_assert!(
                    matches!(open_v2(&bytes[..cut]), Err(ArtifactError::Truncated)),
                    "cut at {} escaped the length check", cut
                );
            }
        }

        // A flipped payload bit in any non-empty section: the per-section
        // checksum names the damaged section.
        for &(_, offset, len) in &entries {
            if len == 0 {
                continue;
            }
            let mut corrupted = bytes.clone();
            corrupted[offset + len / 2] ^= 0x10;
            prop_assert!(matches!(open_v2(&corrupted), Err(ArtifactError::SectionChecksum { .. })));
        }

        // Section-table damage without resealing: the header checksum.
        let mut corrupted = bytes.clone();
        corrupted[v2::HEADER_BYTES + 17] ^= 0x01;
        prop_assert!(matches!(open_v2(&corrupted), Err(ArtifactError::HeaderCorrupted { .. })));

        // Resealed tampering reaches the section-level validators.
        let (entry, offset, _len) = entries[0];
        // A section offset off the 64-byte grid.
        let mut tampered = bytes.clone();
        tampered[entry + 16..entry + 24].copy_from_slice(&(offset as u64 + 1).to_le_bytes());
        reseal_v2_header(&mut tampered);
        prop_assert!(matches!(open_v2(&tampered), Err(ArtifactError::SectionMisaligned { .. })));
        // A non-power-of-two recorded alignment.
        let mut tampered = bytes.clone();
        tampered[entry + 32..entry + 36].copy_from_slice(&3u32.to_le_bytes());
        reseal_v2_header(&mut tampered);
        prop_assert!(matches!(open_v2(&tampered), Err(ArtifactError::SectionMisaligned { .. })));
        // A length escaping the recorded total.
        let mut tampered = bytes.clone();
        tampered[entry + 24..entry + 32].copy_from_slice(&(bytes.len() as u64 + 64).to_le_bytes());
        reseal_v2_header(&mut tampered);
        prop_assert!(matches!(open_v2(&tampered), Err(ArtifactError::SectionOutOfBounds { .. })));
        // An offset pointing into the header/section table.
        let mut tampered = bytes.clone();
        tampered[entry + 16..entry + 24].copy_from_slice(&0u64.to_le_bytes());
        reseal_v2_header(&mut tampered);
        prop_assert!(matches!(open_v2(&tampered), Err(ArtifactError::SectionOutOfBounds { .. })));
        // Two entries claiming intersecting byte ranges (clone a non-empty
        // entry's placement+checksum onto another entry so both checksum
        // clean and only the overlap check can object).
        if sections.len() >= 2 {
            if let Some(&(src, _, _)) = entries.iter().find(|&&(_, _, len)| len > 0) {
                let (dst, _, _) = *entries.iter().find(|&&(e, _, _)| e != src).unwrap();
                let mut tampered = bytes.clone();
                let placement: Vec<u8> = bytes[src + 16..src + 48].to_vec();
                tampered[dst + 16..dst + 48].copy_from_slice(&placement);
                reseal_v2_header(&mut tampered);
                prop_assert!(matches!(open_v2(&tampered), Err(ArtifactError::SectionOverlap { .. })));
            }
        }

        // Trailing garbage past the recorded total length is typed too.
        let mut oversized = bytes.clone();
        oversized.extend_from_slice(&[0u8; 64]);
        prop_assert!(matches!(open_v2(&oversized), Err(ArtifactError::Mismatch { .. })));
    }
}

/// Deterministic edge cases of the delta round trip: the empty delta (a
/// quiet tick in the log) and edges at the extreme of the id space.
#[test]
fn graph_delta_roundtrip_edge_cases() {
    let cases = [
        GraphDelta::empty(),
        GraphDelta {
            edges: vec![(u32::MAX, u32::MAX), (0, u32::MAX), (u32::MAX, 0)],
            ..GraphDelta::empty()
        },
        GraphDelta {
            add_users: usize::MAX,
            add_items: usize::MAX,
            ..GraphDelta::empty()
        },
        // A pure-retraction record: no growth at all, ids at the extremes.
        GraphDelta {
            remove_edges: vec![(u32::MAX, 0), (0, u32::MAX)],
            erase_users: vec![0, u32::MAX],
            delist_items: vec![u32::MAX],
            ..GraphDelta::empty()
        },
    ];
    for delta in cases {
        let bytes = serde::to_bytes(&delta);
        let back: GraphDelta = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
        assert_eq!(serde::to_bytes(&back), bytes);
        // Truncated delta bytes never decode into a silently different
        // delta — the same guarantee record replay relies on.
        for cut in 0..bytes.len() {
            assert!(serde::from_bytes::<GraphDelta>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
