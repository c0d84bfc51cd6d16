//! Zero-copy parity harness for the serve v2 artifact.
//!
//! The v2 container promises that *how* a frozen model is loaded never
//! changes *what* it serves: an engine whose tables borrow a memory map, an
//! engine over the same image copied to an aligned heap region, and the
//! classic v1 decode path must agree **bitwise** on all four embedding
//! tables and produce exactly equal top-K lists — at load time, after WAL
//! recovery over a v2 base, and throughout online delta replay where dirty
//! tables migrate off the map behind the copy-on-write epoch swap. The
//! comparisons reuse the differential pattern of `tests/wal_recovery.rs`:
//! bitwise table equality plus a top-K probe grid over both directions.
//!
//! The harness also pins the compatibility story: a v1 *model* base keeps
//! recovering bitwise through compaction (which writes a serve container)
//! and its log, while both retired `cdrib.checkpoint` forms — the v1
//! envelope and the v2 container — are refused with a typed error.

use cdrib_core::{save_model_bytes, save_serve_v2_bytes, save_serve_v2_file, CdribConfig, CdribModel};
use cdrib_data::{build_preset, CdrScenario, Direction, DomainId, Scale, ScenarioKind};
use cdrib_graph::GraphDelta;
use cdrib_serve::{Recommendation, Recommender, Request, ScoringPrecision, ServeError};
use cdrib_tensor::artifact::{self, v2, ArtifactError};
use cdrib_tensor::{QuantizedTable, Tensor};
use std::fs;
use std::path::{Path, PathBuf};

/// Scripted deltas per replay sequence (mirrors `tests/wal_recovery.rs`).
const STEPS: usize = 6;

/// A fresh scratch directory under `target/mmap-parity/`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new("target").join("mmap-parity").join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_model() -> (CdribModel, CdrScenario) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 4242).unwrap();
    let config = CdribConfig {
        layers: 2,
        ..CdribConfig::fast_test()
    };
    let model = CdribModel::new(&config, &scenario).unwrap();
    (model, scenario)
}

/// The state two engines must share: the four embedding tables (compared
/// bitwise) and top-K lists for a probe grid covering both directions,
/// first/middle/last users.
struct Snapshot {
    tables: [Tensor; 4],
    topk: Vec<(Request, Vec<Recommendation>)>,
}

fn snapshot(rec: &mut Recommender) -> Snapshot {
    let tables = [
        rec.scorer().x_users.clone(),
        rec.scorer().x_items.clone(),
        rec.scorer().y_users.clone(),
        rec.scorer().y_items.clone(),
    ];
    let mut topk = Vec::new();
    let mut out = Vec::new();
    for direction in [Direction::X_TO_Y, Direction::Y_TO_X] {
        let n_source = rec.seen_graph(direction.source).n_users();
        for user in [0, n_source / 2, n_source - 1] {
            let request = Request {
                direction,
                user: user as u32,
                k: 10,
            };
            rec.recommend(&request, &mut out).unwrap();
            topk.push((request, out.clone()));
        }
    }
    Snapshot { tables, topk }
}

fn assert_matches(rec: &mut Recommender, snap: &Snapshot, context: &str) {
    assert_eq!(rec.scorer().x_users, snap.tables[0], "x_users differ: {context}");
    assert_eq!(rec.scorer().x_items, snap.tables[1], "x_items differ: {context}");
    assert_eq!(rec.scorer().y_users, snap.tables[2], "y_users differ: {context}");
    assert_eq!(rec.scorer().y_items, snap.tables[3], "y_items differ: {context}");
    let mut out = Vec::new();
    for (request, want) in &snap.topk {
        rec.recommend(request, &mut out).unwrap();
        assert_eq!(&out, want, "top-K differs for {request:?}: {context}");
    }
}

/// Step `step` of the scripted delta traffic, materialised against the
/// engine's *current* graphs (same script as `tests/wal_recovery.rs`).
fn scripted_delta(step: usize, rec: &Recommender) -> (DomainId, GraphDelta) {
    let gx = rec.seen_graph(DomainId::X);
    let gy = rec.seen_graph(DomainId::Y);
    let (xu, xi) = (gx.n_users() as u32, gx.n_items() as u32);
    let (yu, yi) = (gy.n_users() as u32, gy.n_items() as u32);
    match step % 6 {
        0 => (
            DomainId::X,
            GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(xu, 0), (xu, xi - 1)],
                ..GraphDelta::empty()
            },
        ),
        1 => (
            DomainId::Y,
            GraphDelta {
                add_users: 1,
                add_items: 1,
                edges: vec![(yu, yi), (yu, 0), (0, 1)],
                ..GraphDelta::empty()
            },
        ),
        2 => (DomainId::X, GraphDelta::empty()),
        3 => (
            DomainId::Y,
            GraphDelta {
                add_users: 0,
                add_items: 0,
                edges: vec![(1, 1), (1, 1)],
                ..GraphDelta::empty()
            },
        ),
        4 => (
            DomainId::X,
            GraphDelta {
                add_users: 2,
                add_items: 1,
                edges: vec![(xu, xi), (xu + 1, 2)],
                ..GraphDelta::empty()
            },
        ),
        _ => (
            DomainId::Y,
            GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(yu, 2)],
                ..GraphDelta::empty()
            },
        ),
    }
}

/// The headline contract: the mapped loader, the aligned-heap image loader,
/// the `CDRIB_NO_MMAP` file fallback and the v1 decode path all serve the
/// exact same engine — bitwise tables, exactly equal top-K — in both f32
/// and int8 precision (the container's quant mirrors vs freshly quantised
/// mirrors).
#[test]
fn mapped_heap_and_v1_engines_agree_bitwise() {
    let (model, scenario) = fixture_model();
    let dir = scratch("bitwise");
    let v2_path = dir.join("serve.cdr2");
    let v2_bytes = save_serve_v2_bytes(&model, &scenario, true, true).unwrap();
    fs::write(&v2_path, &v2_bytes).unwrap();

    let mut v1 = Recommender::from_artifact_bytes(&save_model_bytes(&model, &scenario)).unwrap();
    let mut mapped = Recommender::from_serve_v2_file(&v2_path).unwrap();
    assert!(mapped.is_mapped(), "the file loader must serve borrowed tables");
    assert!(
        mapped.scorer().x_users.is_mapped() && mapped.scorer().y_items.is_mapped(),
        "every embedding table must borrow the mapped region"
    );
    let mut heap = Recommender::from_serve_v2_bytes(&v2_bytes).unwrap();
    // The explicit no-mmap escape hatch: same file, aligned heap buffer.
    std::env::set_var("CDRIB_NO_MMAP", "1");
    let mut fallback = Recommender::from_serve_v2_file(&v2_path).unwrap();
    std::env::remove_var("CDRIB_NO_MMAP");

    let want = snapshot(&mut v1);
    assert_matches(&mut mapped, &want, "mapped vs v1 decode");
    assert_matches(&mut heap, &want, "heap image vs v1 decode");
    assert_matches(&mut fallback, &want, "CDRIB_NO_MMAP fallback vs v1 decode");

    // Int8: the container's frozen quant mirrors score identically to
    // mirrors quantised from the decoded tables at load time.
    v1.set_precision(ScoringPrecision::Int8);
    let want = snapshot(&mut v1);
    for (context, engine) in [
        ("int8 mapped", &mut mapped),
        ("int8 heap image", &mut heap),
        ("int8 fallback", &mut fallback),
    ] {
        engine.set_precision(ScoringPrecision::Int8);
        assert_matches(engine, &want, context);
    }
}

/// Online delta replay over a mapped base: clean tables keep serving from
/// the map, tables a delta touches materialise (copy-on-write) — and every
/// intermediate state is bitwise identical to an engine rebuilt from the
/// plain v1 artifact ingesting the same deltas.
#[test]
fn delta_replay_over_a_mapped_base_matches_a_rebuilt_engine() {
    let (model, scenario) = fixture_model();
    let dir = scratch("delta-replay");
    let v2_path = dir.join("serve.cdr2");
    save_serve_v2_file(&model, &scenario, true, true, &v2_path).unwrap();

    let mut mapped = Recommender::from_serve_v2_file_online(&v2_path).unwrap();
    let mut rebuilt = Recommender::from_artifact_bytes_online(&save_model_bytes(&model, &scenario)).unwrap();
    mapped.set_precision(ScoringPrecision::Int8);
    rebuilt.set_precision(ScoringPrecision::Int8);
    assert!(mapped.is_mapped());
    let want = snapshot(&mut rebuilt);
    assert_matches(&mut mapped, &want, "before any delta");

    // Step 0 touches domain X only: its tables migrate off the map, the Y
    // side keeps serving borrowed rows.
    let (domain, delta) = scripted_delta(0, &rebuilt);
    assert_eq!(domain, DomainId::X);
    rebuilt.apply_delta(domain, &delta).unwrap();
    mapped.apply_delta(domain, &delta).unwrap();
    assert!(
        !mapped.scorer().x_users.is_mapped(),
        "patched tables must materialise owned storage"
    );
    assert!(
        mapped.scorer().y_users.is_mapped() && mapped.scorer().y_items.is_mapped(),
        "untouched tables must keep borrowing the map"
    );
    assert!(mapped.is_mapped());
    assert_matches(&mut mapped, &snapshot(&mut rebuilt), "after delta 0");

    for step in 1..STEPS {
        let (domain, delta) = scripted_delta(step, &rebuilt);
        rebuilt.apply_delta(domain, &delta).unwrap();
        mapped.apply_delta(domain, &delta).unwrap();
        assert_matches(&mut mapped, &snapshot(&mut rebuilt), &format!("after delta {step}"));
    }
}

/// Durable recovery over a v2 base: the same WAL replays over the v1 model
/// artifact and the v2 container to bitwise-identical engines, an untouched
/// v2 base recovers zero-copy, and compaction folds the log into a serve
/// container that recovers to the same state again — off the map, with the
/// int8 mirrors the engine kept.
#[test]
fn wal_recovery_over_a_v2_base_matches_the_v1_path() {
    let (model, scenario) = fixture_model();
    let dir = scratch("recovery");
    let base_v1 = dir.join("base.cdrb");
    let base_v2 = dir.join("base.cdr2");
    fs::write(&base_v1, save_model_bytes(&model, &scenario)).unwrap();
    save_serve_v2_file(&model, &scenario, true, true, &base_v2).unwrap();

    // An untouched v2 base recovers zero-copy: validate + map, no decode.
    let fresh_log = dir.join("fresh.wal");
    let (mut cold, report) = Recommender::recover(&base_v2, &fresh_log).unwrap();
    assert!(report.clean() && report.created_log);
    assert!(cold.is_mapped(), "recovery over a quiet v2 base must keep the map");
    let mut v1_engine = Recommender::from_artifact_bytes(&save_model_bytes(&model, &scenario)).unwrap();
    assert_matches(&mut cold, &snapshot(&mut v1_engine), "cold v2 recovery vs v1 load");
    drop(cold);

    // Drive scripted traffic against the v1 base to produce a WAL.
    let log_v1 = dir.join("v1.wal");
    let (mut live, report) = Recommender::recover(&base_v1, &log_v1).unwrap();
    assert!(report.clean() && report.created_log);
    for step in 0..STEPS {
        let (domain, delta) = scripted_delta(step, &live);
        live.apply_delta(domain, &delta).unwrap();
    }
    live.wal_sync().unwrap();
    let want = snapshot(&mut live);

    // The identical log bytes replay over the v2 container (both bases fold
    // through seq 0, so the sequence ranges connect the same way).
    let log_v2 = dir.join("v2.wal");
    fs::copy(&log_v1, &log_v2).unwrap();
    let (mut from_v2, report) = Recommender::recover(&base_v2, &log_v2).unwrap();
    assert!(report.clean(), "v2-base replay must be clean: {report:?}");
    assert_eq!(report.replayed, STEPS);
    assert_eq!(from_v2.wal_applied_seq(), Some(STEPS as u64));
    assert_matches(&mut from_v2, &want, "v2-base recovery vs v1-base live engine");

    // Compaction folds the log into a container over the v2 base path;
    // recovery from it (+ its emptied log) is bitwise again, serves off the
    // map, and brings back int8 mirrors equal to freshly quantised ones.
    from_v2.set_precision(ScoringPrecision::Int8);
    let compaction = from_v2.compact().unwrap();
    assert_eq!(compaction.applied_seq, STEPS as u64);
    drop(from_v2);
    let (mut after, report) = Recommender::recover(&base_v2, &log_v2).unwrap();
    assert!(report.clean(), "post-compaction recovery must be clean: {report:?}");
    assert_eq!(report.base_applied_seq, STEPS as u64);
    assert!(after.is_mapped(), "a compacted base must serve off the map");
    for domain in [DomainId::X, DomainId::Y] {
        let fresh = QuantizedTable::from_tensor(after.scorer().item_table(domain));
        assert_eq!(after.quantized_items(domain), Some(&fresh), "{domain:?} int8 mirror");
    }
    assert_matches(&mut after, &want, "post-compaction recovery");
}

/// A v1 *model* base stays a recovery base across compaction: the serve
/// container `compact()` writes over it plus the pre-compaction log (the
/// new-base + old-log crash window) must recover bitwise — every record
/// already folded — and so must fresh records appended afterwards.
#[test]
fn v1_base_v1_checkpoint_and_wal_still_recover_bitwise() {
    let (model, scenario) = fixture_model();
    let dir = scratch("v1-checkpoint");
    let base = dir.join("base.cdrb");
    let log = dir.join("deltas.wal");
    fs::write(&base, save_model_bytes(&model, &scenario)).unwrap();

    let (mut live, _) = Recommender::recover(&base, &log).unwrap();
    for step in 0..STEPS {
        let (domain, delta) = scripted_delta(step, &live);
        live.apply_delta(domain, &delta).unwrap();
    }
    live.wal_sync().unwrap();
    let want = snapshot(&mut live);
    let old_log = dir.join("old.wal");
    fs::copy(&log, &old_log).unwrap();
    assert_eq!(live.compact().unwrap().applied_seq, STEPS as u64);
    drop(live);

    // Old log + checkpoint: every record is already folded, recovery skips
    // them all and lands exactly on the live state.
    let (mut rec, report) = Recommender::recover(&base, &old_log).unwrap();
    assert!(report.clean(), "checkpoint recovery must be clean: {report:?}");
    assert_eq!(report.base_applied_seq, STEPS as u64);
    assert_eq!(report.skipped, STEPS);
    assert_eq!(report.replayed, 0);
    assert_matches(&mut rec, &want, "checkpoint + already-folded log");

    // Fresh traffic after the checkpoint appends and recovers normally.
    let (domain, delta) = scripted_delta(STEPS, &rec);
    rec.apply_delta(domain, &delta).unwrap();
    rec.wal_sync().unwrap();
    let want_after = snapshot(&mut rec);
    drop(rec);
    let (mut again, report) = Recommender::recover(&base, &old_log).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.replayed, 1);
    assert_matches(&mut again, &want_after, "checkpoint + one fresh record");
}

/// Recovers `base` and expects the typed refusal of a retired checkpoint
/// form: `WrongKind`, naming the `cdrib.checkpoint` kind it found.
fn assert_refused_as_checkpoint(base: &Path, log: &Path) {
    match Recommender::recover(base, log) {
        Err(ServeError::Artifact(ArtifactError::WrongKind { found, .. })) => assert_eq!(found, "cdrib.checkpoint"),
        Err(other) => panic!("expected WrongKind, got {other}"),
        Ok(_) => panic!("a retired checkpoint must not load"),
    }
}

/// The retired v1-envelope checkpoint format is refused, typed: a
/// `cdrib.checkpoint` v1 envelope is neither a v2 container nor a model
/// artifact, so `recover` must say `WrongKind` — never misread it as a
/// model, never panic.
#[test]
fn v1_envelope_checkpoint_is_refused_with_wrong_kind() {
    let dir = scratch("v1-envelope-checkpoint");
    let base = dir.join("ck.cdrb");
    fs::write(&base, artifact::encode("cdrib.checkpoint", 1, b"retired format")).unwrap();
    assert_refused_as_checkpoint(&base, &dir.join("ck.wal"));
}

/// The retired v2 checkpoint container (`model`/`gx`/`gy`/`meta` sections,
/// kind version 2) is refused the same way: compaction writes serve
/// containers now, and a CDR2 file of any other kind is not a base.
#[test]
fn v2_checkpoint_is_refused_with_wrong_kind() {
    let (model, scenario) = fixture_model();
    let dir = scratch("v2-checkpoint");
    let mut w = v2::Writer::new("cdrib.checkpoint", 2);
    w.push("model", 1, save_model_bytes(&model, &scenario));
    w.push("gx", 1, serde::to_bytes(&scenario.x.train));
    w.push("gy", 1, serde::to_bytes(&scenario.y.train));
    w.push("meta", 8, 0u64.to_le_bytes().to_vec());
    let base = dir.join("ck.cdrb");
    fs::write(&base, w.finish()).unwrap();
    assert_refused_as_checkpoint(&base, &dir.join("ck.wal"));
}
