//! Frozen CDRIB model artifacts.
//!
//! A trained model's future is a serving process that may start long after
//! the trainer exited, so everything the serve side needs travels in one
//! self-contained file behind the versioned envelope of
//! [`cdrib_tensor::artifact`]:
//!
//! * the [`CdribConfig`] — enough to rebuild the exact encoder topology
//!   (parameter registration is deterministic given the config);
//! * the full [`ParamSet`] — the trained weights;
//! * the [`CdrScenario`] — the id mappings (overlap prefix, per-domain
//!   user/item counts) plus the interaction graphs serving needs for
//!   seen-item filtering and the adjacency views the VBGE forward consumes.
//!
//! Loading reconstructs a [`CdribModel`] via the ordinary constructor and
//! then swaps in the stored parameters, verifying that every parameter name
//! and shape matches what the config-derived topology registered — a
//! mismatch is a typed [`ArtifactError::Mismatch`], never a silent misload.

use crate::config::CdribConfig;
use crate::model::CdribModel;
use cdrib_data::CdrScenario;
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::artifact as envelope;
use cdrib_tensor::artifact::v2;
use cdrib_tensor::{ArtifactError, ParamSet, QuantizedTable, Tensor};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Artifact kind tag of a frozen CDRIB model.
pub const MODEL_KIND: &str = "cdrib.model";
/// Payload format version; bump on any layout change of [`ModelPayload`] or
/// the types it embeds.
pub const MODEL_VERSION: u32 = 1;

/// Kind tag of the zero-copy serving container (artifact **v2**,
/// [`cdrib_tensor::artifact::v2`]). Unlike the serde-payload kinds above,
/// this is a fixed-layout sectioned file whose tables are served straight
/// from a memory map.
pub const SERVE_KIND: &str = "cdrib.serve";
/// Kind version of the serve container; bump on any section layout change.
pub const SERVE_VERSION: u32 = 1;

/// `meta` flag bit: the container carries int8 quantised item tables.
pub const SERVE_FLAG_QUANT: u64 = 1;
/// `meta` flag bit: the container embeds the full v1 model artifact (needed
/// to serve online deltas / durable logging from a mapped base).
pub const SERVE_FLAG_MODEL: u64 = 1 << 1;

/// Number of u64 fields in the serve container's `meta` section:
/// `[dim, xu_rows, xi_rows, yu_rows, yi_rows, sx_edges, sy_edges,
///   shared_user_prefix, score_kind, flags]`.
pub const SERVE_META_FIELDS: usize = 10;

/// The serialized payload of a model artifact.
#[derive(Serialize, Deserialize)]
struct ModelPayload {
    config: CdribConfig,
    params: ParamSet,
    scenario: CdrScenario,
}

/// Encodes a model + scenario into artifact bytes.
pub fn save_model_bytes(model: &CdribModel, scenario: &CdrScenario) -> Vec<u8> {
    let payload = ModelPayload {
        config: model.config().clone(),
        params: model.params().clone(),
        scenario: scenario.clone(),
    };
    envelope::encode(MODEL_KIND, MODEL_VERSION, &serde::to_bytes(&payload))
}

/// Decodes artifact bytes back into a model and its scenario.
pub fn load_model_bytes(bytes: &[u8]) -> Result<(CdribModel, CdrScenario), ArtifactError> {
    let payload = envelope::decode(bytes, MODEL_KIND, MODEL_VERSION)?;
    let ModelPayload {
        config,
        params,
        scenario,
    } = serde::from_bytes(payload)?;
    scenario.validate().map_err(|e| ArtifactError::Mismatch {
        detail: format!("stored scenario failed validation: {e}"),
    })?;
    let mut model = CdribModel::new(&config, &scenario).map_err(|e| ArtifactError::Mismatch {
        detail: format!("stored config cannot rebuild the model: {e}"),
    })?;
    // The constructor registered the config-derived parameter topology;
    // the stored set must match it name-for-name and shape-for-shape.
    if model.params().len() != params.len() {
        return Err(ArtifactError::Mismatch {
            detail: format!(
                "stored parameter count {} != topology's {}",
                params.len(),
                model.params().len()
            ),
        });
    }
    for (id, name) in model.params().iter_ids() {
        let stored = params.id_of(name).ok_or_else(|| ArtifactError::Mismatch {
            detail: format!("stored parameters lack `{name}`"),
        })?;
        let expected = model.params().value(id).shape();
        let got = params.value(stored).shape();
        if expected != got {
            return Err(ArtifactError::Mismatch {
                detail: format!("parameter `{name}` has shape {got:?}, topology expects {expected:?}"),
            });
        }
    }
    *model.params_mut() = params;
    Ok((model, scenario))
}

fn le_f32(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_u32(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_i32(values: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_u64(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_i8(values: &[i8]) -> Vec<u8> {
    values.iter().map(|&v| v as u8).collect()
}

/// Appends a seen graph's CSR form: an offsets section (`u64[n_users + 1]`)
/// and a concatenated sorted-items section (`u32[n_edges]`). This is the
/// exact shape the serve path's seen-filter cursor walks, so a mapped
/// container serves filtering with zero decoding.
fn push_graph_csr(w: &mut v2::Writer, off_name: &str, items_name: &str, graph: &BipartiteGraph) {
    let mut offsets = Vec::with_capacity(graph.n_users() + 1);
    let mut items = Vec::with_capacity(graph.n_edges());
    offsets.push(0u64);
    for u in 0..graph.n_users() {
        items.extend_from_slice(graph.items_of(u));
        offsets.push(items.len() as u64);
    }
    w.push(off_name, 8, le_u64(&offsets));
    w.push(items_name, 4, le_u32(&items));
}

fn push_quant(w: &mut v2::Writer, prefix: &str, table: &QuantizedTable) {
    let view = table.view();
    w.push(&format!("{prefix}_d"), 1, le_i8(view.data));
    w.push(&format!("{prefix}_s"), 4, le_f32(view.scales));
    w.push(&format!("{prefix}_u"), 4, le_i32(view.row_sums));
    w.push(&format!("{prefix}_n"), 4, le_i32(view.row_norms));
}

/// The fold point and tombstones of a container that compaction wrote: the
/// `fold` section (`u64[1]`, the last write-ahead-log sequence number folded
/// into the container) and the `ex`/`dx`/`ey`/`dy` sections (`u32` lists,
/// sorted: erased X users, delisted X items, erased Y users, delisted Y
/// items).
pub struct ServeFold<'a> {
    /// Last log sequence number the container holds.
    pub applied_seq: u64,
    /// `[erased X users, delisted X items, erased Y users, delisted Y items]`.
    pub tombstones: [&'a [u32]; 4],
}

/// Everything a serve v2 container holds, borrowed from its writer: a fresh
/// freeze ([`save_serve_v2_bytes`]) or a live engine's compaction.
pub struct ServeParts<'a> {
    /// `[x_users, x_items, y_users, y_items]`, one embedding width.
    pub tables: [&'a Tensor; 4],
    /// The seen-item graphs of domains X and Y.
    pub seen: [&'a BipartiteGraph; 2],
    /// Users below this index are the same person in both domains.
    pub shared_user_prefix: usize,
    /// Int8 mirrors of the X and Y item tables ([`SERVE_FLAG_QUANT`]).
    pub quant: Option<[&'a QuantizedTable; 2]>,
    /// The embedded v1 model artifact ([`SERVE_FLAG_MODEL`]).
    pub model: Option<&'a [u8]>,
    /// Fold point and tombstones, for a container written by compaction.
    pub fold: Option<ServeFold<'a>>,
}

/// Lays out the zero-copy **serve v2** container — the one writer of the
/// durable base format.
///
/// Sections (all 64-byte aligned, little-endian):
/// `meta` (see [`SERVE_META_FIELDS`]), the four f32 embedding tables
/// `xu`/`xi`/`yu`/`yi`, both seen graphs in CSR form
/// (`sx_off`/`sx_itm`, `sy_off`/`sy_itm`), and optionally the int8
/// quantised item tables (`qx_*`/`qy_*`), the embedded v1 model artifact
/// (`model`) that lets a mapped engine ingest online deltas and recover
/// through the WAL, and a compaction's `fold` with its tombstones
/// ([`ServeFold`]): at most 23 sections. A domain's catalogue is its item
/// table's rows, so no id list is stored. Containers written before that
/// carry `cx`/`cy` id sections, which readers ignore (no misread is
/// possible, so the kind version stays). The score kind is dot.
pub fn write_serve_v2(parts: &ServeParts<'_>) -> Vec<u8> {
    let [xu, xi, yu, yi] = parts.tables;
    let [sx, sy] = parts.seen;
    let mut flags = 0u64;
    if parts.quant.is_some() {
        flags |= SERVE_FLAG_QUANT;
    }
    if parts.model.is_some() {
        flags |= SERVE_FLAG_MODEL;
    }
    let meta = [
        xu.cols() as u64,
        xu.rows() as u64,
        xi.rows() as u64,
        yu.rows() as u64,
        yi.rows() as u64,
        sx.n_edges() as u64,
        sy.n_edges() as u64,
        parts.shared_user_prefix as u64,
        0, // score kind: dot
        flags,
    ];
    debug_assert_eq!(meta.len(), SERVE_META_FIELDS);

    let mut w = v2::Writer::new(SERVE_KIND, SERVE_VERSION);
    w.push("meta", 8, le_u64(&meta));
    for (name, table) in ["xu", "xi", "yu", "yi"].into_iter().zip(parts.tables) {
        w.push(name, 4, le_f32(table.as_slice()));
    }
    push_graph_csr(&mut w, "sx_off", "sx_itm", sx);
    push_graph_csr(&mut w, "sy_off", "sy_itm", sy);
    if let Some([qx, qy]) = parts.quant {
        push_quant(&mut w, "qx", qx);
        push_quant(&mut w, "qy", qy);
    }
    if let Some(model) = parts.model {
        w.push("model", 1, model);
    }
    if let Some(fold) = &parts.fold {
        w.push("fold", 8, fold.applied_seq.to_le_bytes().to_vec());
        for (name, ids) in ["ex", "dx", "ey", "dy"].into_iter().zip(fold.tombstones) {
            w.push(name, 4, le_u32(ids));
        }
    }
    w.finish()
}

/// Freezes a trained model into the serve v2 container ([`write_serve_v2`]):
/// its inference tables and the scenario's training graphs, with the int8
/// mirrors and the embedded model artifact when asked for.
pub fn save_serve_v2_bytes(
    model: &CdribModel,
    scenario: &CdrScenario,
    include_quant: bool,
    include_model: bool,
) -> Result<Vec<u8>, ArtifactError> {
    let embeddings = model.infer_embeddings().map_err(|e| ArtifactError::Mismatch {
        detail: format!("inference forward failed: {e}"),
    })?;
    let quant = include_quant.then(|| [&embeddings.x_items, &embeddings.y_items].map(QuantizedTable::from_tensor));
    let model_bytes = include_model.then(|| save_model_bytes(model, scenario));
    Ok(write_serve_v2(&ServeParts {
        tables: [
            &embeddings.x_users,
            &embeddings.x_items,
            &embeddings.y_users,
            &embeddings.y_items,
        ],
        seen: [&scenario.x.train, &scenario.y.train],
        shared_user_prefix: scenario.n_overlap_total,
        quant: quant.as_ref().map(|[qx, qy]| [qx, qy]),
        model: model_bytes.as_deref(),
        fold: None,
    }))
}

/// Writes a serve v2 container to a file.
pub fn save_serve_v2_file(
    model: &CdribModel,
    scenario: &CdrScenario,
    include_quant: bool,
    include_model: bool,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactError> {
    Ok(std::fs::write(
        path,
        save_serve_v2_bytes(model, scenario, include_quant, include_model)?,
    )?)
}

/// Writes a model artifact to a file.
pub fn save_model_file(
    model: &CdribModel,
    scenario: &CdrScenario,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactError> {
    Ok(std::fs::write(path, save_model_bytes(model, scenario))?)
}

/// Reads a model artifact from a file.
pub(crate) fn load_model_file(path: impl AsRef<Path>) -> Result<(CdribModel, CdrScenario), ArtifactError> {
    load_model_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    fn tiny() -> (CdribModel, CdrScenario) {
        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 5).unwrap();
        let config = CdribConfig::fast_test();
        (CdribModel::new(&config, &scenario).unwrap(), scenario)
    }

    #[test]
    fn save_load_roundtrip_preserves_embeddings() {
        let (model, scenario) = tiny();
        let bytes = save_model_bytes(&model, &scenario);
        let (loaded, loaded_scenario) = load_model_bytes(&bytes).unwrap();
        assert_eq!(loaded_scenario.name, scenario.name);
        assert_eq!(loaded.params().num_scalars(), model.params().num_scalars());
        // The frozen forward must reproduce the original embeddings exactly.
        let a = model.infer_embeddings().unwrap();
        let b = loaded.infer_embeddings().unwrap();
        assert_eq!(a.x_users, b.x_users);
        assert_eq!(a.y_items, b.y_items);
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        let (model, scenario) = tiny();
        let payload = {
            // Re-wrap the valid payload under a future version.
            let bytes = save_model_bytes(&model, &scenario);
            envelope::decode(&bytes, MODEL_KIND, MODEL_VERSION).unwrap().to_vec()
        };
        let future = envelope::encode(MODEL_KIND, MODEL_VERSION + 1, &payload);
        assert!(matches!(
            load_model_bytes(&future),
            Err(ArtifactError::UnsupportedVersion { found, .. }) if found == MODEL_VERSION + 1
        ));
        let wrong_kind = envelope::encode("cdrib.baseline", MODEL_VERSION, &payload);
        assert!(matches!(
            load_model_bytes(&wrong_kind),
            Err(ArtifactError::WrongKind { .. })
        ));
    }

    #[test]
    fn corrupted_payloads_are_rejected() {
        let (model, scenario) = tiny();
        let bytes = save_model_bytes(&model, &scenario);
        for offset in [bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x10;
            assert!(
                matches!(
                    load_model_bytes(&corrupted),
                    Err(ArtifactError::ChecksumMismatch { .. })
                ),
                "payload flip at {offset} must be caught"
            );
        }
        assert!(matches!(
            load_model_bytes(&bytes[..bytes.len() - 10]),
            Err(ArtifactError::Truncated)
        ));
    }

    #[test]
    fn a_scenario_graph_that_breaks_an_invariant_is_a_typed_decode_error() {
        let (model, scenario) = tiny();
        // Patch the domain-X training graph inside the scenario's encoding:
        // `n_items` halved, so trained edges point past it. The envelope
        // checksum is computed over the patched payload, so only the graph
        // check can catch it.
        let graph = serde::to_bytes(&scenario.x.train);
        let mut scenario_bytes = serde::to_bytes(&scenario);
        let at = scenario_bytes.windows(graph.len()).position(|w| w == graph).unwrap();
        let half = scenario.x.train.n_items() as u64 / 2;
        scenario_bytes[at + 8..at + 16].copy_from_slice(&half.to_le_bytes());
        let mut payload = serde::to_bytes(model.config());
        payload.extend(serde::to_bytes(model.params()));
        payload.extend(scenario_bytes);
        let bytes = envelope::encode(MODEL_KIND, MODEL_VERSION, &payload);
        let err = load_model_bytes(&bytes).err();
        assert!(
            matches!(&err, Some(ArtifactError::Decode(serde::Error::Custom(_)))),
            "{err:?}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let (model, scenario) = tiny();
        let dir = std::env::temp_dir().join("cdrib-model-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cdrb");
        save_model_file(&model, &scenario, &path).unwrap();
        let (loaded, _) = load_model_file(&path).unwrap();
        assert_eq!(
            loaded.infer_embeddings().unwrap().x_users,
            model.infer_embeddings().unwrap().x_users
        );
        std::fs::remove_file(&path).ok();
    }
}
