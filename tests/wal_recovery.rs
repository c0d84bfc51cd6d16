//! Fault-injection harness for the delta write-ahead log.
//!
//! The durability subsystem promises that [`Recommender::recover`] rebuilds
//! the exact pre-crash engine — bitwise on all four embedding tables,
//! exactly-equal top-K — for the longest valid prefix of the log, and that
//! every way a log can be damaged degrades *gracefully*: the damaged bytes
//! land in a `.quarantine` sidecar, the report says precisely what was
//! dropped, and the engine never panics and never serves silently wrong
//! state. This harness drives a deterministic crash-point matrix against a
//! scripted cross-domain delta sequence:
//!
//! 1. **kill points** — the process dies before/after each append, i.e. the
//!    log is every append-boundary prefix of the full file: recovery is
//!    clean and matches the live engine's state at that boundary;
//! 2. **torn tails** — the file is truncated at *every* byte boundary of
//!    the final record: recovery keeps the longest valid prefix, the torn
//!    bytes are quarantined verbatim;
//! 3. **bit rot** — a bit flipped in the final record's length prefix,
//!    body or checksum, in an interior record, and in the file header:
//!    record damage ends the prefix there, header damage abandons the log
//!    wholesale (falling back to the bare base);
//! 4. **sequence skew** — duplicated, reordered and dropped records are
//!    rejected structurally even though every byte checksums clean;
//! 5. **foreign logs** — version skew, garbage, empty files and logs from
//!    a different base all fall back to the base with a typed reason;
//! 6. **compaction crash windows** — old-base+old-log, new-base+old-log
//!    and new-base+new-log all recover to identical state, because
//!    sequence numbers are global and recovery skips already-folded
//!    records;
//! 7. **rejected replays** — a checksum-valid record the graph rejects
//!    (first or mid-log), and a grouped re-encode that comes back
//!    non-finite: the log is abandoned wholesale and the engine is bitwise
//!    the bare base;
//! 8. **broken compacted graphs** — a checksum-clean compacted container
//!    whose seen CSR breaks an invariant is refused with a typed error.
//!
//! Replay applies every record to the graphs, then re-encodes and publishes
//! once, so the script ends with the orderings only a group can get wrong:
//! re-liking an un-liked edge, traffic for an already-delisted item and an
//! already-erased user, growth after erasure.
//!
//! The state comparison extends the differential pattern of
//! `tests/delta_parity.rs`: bitwise table equality plus exact top-K probes.
//! Scratch files live under `target/wal-fault-injection/` so CI can upload
//! quarantine sidecars when a case fails.

use cdrib_core::{save_model_bytes, save_serve_v2_file, CdribConfig, CdribModel, SERVE_KIND, SERVE_VERSION};
use cdrib_data::{build_preset, CdrScenario, Direction, DomainId, Scale, ScenarioKind};
use cdrib_graph::GraphDelta;
use cdrib_serve::{
    wal, DeltaWal, Recommendation, Recommender, RecoveryReport, Request, ScoringPrecision, ServeError, WalError,
};
use cdrib_tensor::artifact::v2;
use cdrib_tensor::{mmap, QuantizedTable, Tensor};
use std::fs;
use std::path::{Path, PathBuf};

/// Scripted deltas in the fixture log.
const STEPS: usize = 15;

const DOMAINS: [DomainId; 2] = [DomainId::X, DomainId::Y];

/// A fresh scratch directory under `target/wal-fault-injection/`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new("target").join("wal-fault-injection").join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The engine state a recovery must reproduce: the four embedding tables
/// (compared bitwise), top-K lists for a probe grid covering both
/// directions, old/new users and the cold-start tail, and per domain the
/// seen graph's edge list and the tombstone sets.
struct Snapshot {
    tables: [Tensor; 4],
    topk: Vec<(Request, Vec<Recommendation>)>,
    edges: [Vec<(u32, u32)>; 2],
    erased: [Vec<u32>; 2],
    delisted: [Vec<u32>; 2],
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
    Snapshot {
        tables,
        topk,
        edges: DOMAINS.map(|d| rec.seen_graph(d).edges().collect()),
        erased: DOMAINS.map(|d| rec.erased_users(d).to_vec()),
        delisted: DOMAINS.map(|d| rec.delisted_items(d).to_vec()),
    }
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
    for domain in DOMAINS {
        let d = domain as usize;
        let graph = rec.seen_graph(domain);
        graph.check_invariants().unwrap();
        assert_eq!(
            graph.edges().collect::<Vec<_>>(),
            snap.edges[d],
            "{domain:?} seen edges differ: {context}"
        );
        assert_eq!(
            rec.erased_users(domain),
            snap.erased[d],
            "{domain:?} erased users differ: {context}"
        );
        assert_eq!(
            rec.delisted_items(domain),
            snap.delisted[d],
            "{domain:?} delisted items differ: {context}"
        );
    }
    // The int8 mirror — shipped by the base, created here, or kept coherent
    // by every patch since an earlier call — is a from-scratch quantisation
    // of the served item table.
    rec.set_precision(ScoringPrecision::Int8);
    for domain in DOMAINS {
        assert_eq!(
            rec.quantized_items(domain).unwrap(),
            &QuantizedTable::from_tensor(rec.scorer().item_table(domain)),
            "{domain:?} int8 mirror is stale: {context}"
        );
    }
    rec.set_precision(ScoringPrecision::F32);
}

/// [`Recommender::recover`], plus what every recovery keeps: the engine's
/// epoch counts exactly the records replayed, as if each had been applied
/// live.
fn recover(base: impl AsRef<Path>, log: impl AsRef<Path>) -> (Recommender, RecoveryReport) {
    let (rec, report) = Recommender::recover(base, log).unwrap();
    assert_eq!(rec.epoch(), report.replayed as u64, "epoch after recovery: {report:?}");
    (rec, report)
}

/// Step `step` of the scripted traffic, materialised against the engine's
/// *current* graphs: cold users arriving with and without history, catalogue
/// growth, duplicate interactions, quiet ticks — and the retraction side of
/// the lifecycle: an un-like, a GDPR erasure and an item delisting — all
/// alternating domains. Steps 9–14 revisit what earlier steps retracted;
/// replayed as one group they only come out right if a re-liked edge comes
/// back exactly once, the erased raw row stays zero and the tombstones stay
/// put.
fn scripted_delta(step: usize, rec: &Recommender) -> (DomainId, GraphDelta) {
    let gx = rec.seen_graph(DomainId::X);
    let gy = rec.seen_graph(DomainId::Y);
    let (xu, xi) = (gx.n_users() as u32, gx.n_items() as u32);
    let (yu, yi) = (gy.n_users() as u32, gy.n_items() as u32);
    match step % STEPS {
        // A cold user arrives in X with two interactions.
        0 => (
            DomainId::X,
            GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(xu, 0), (xu, xi - 1)],
                ..GraphDelta::empty()
            },
        ),
        // A cold user and a brand-new item in Y, plus a duplicate draw.
        1 => (
            DomainId::Y,
            GraphDelta {
                add_users: 1,
                add_items: 1,
                edges: vec![(yu, yi), (yu, 0), (0, 1)],
                ..GraphDelta::empty()
            },
        ),
        // A quiet tick.
        2 => (DomainId::X, GraphDelta::empty()),
        // Replayed events only — no growth, duplicate inside the batch.
        3 => (
            DomainId::Y,
            GraphDelta {
                add_users: 0,
                add_items: 0,
                edges: vec![(1, 1), (1, 1)],
                ..GraphDelta::empty()
            },
        ),
        // Two cold users in X, one silent, with a new item.
        4 => (
            DomainId::X,
            GraphDelta {
                add_users: 2,
                add_items: 1,
                edges: vec![(xu, xi), (xu + 1, 2)],
                ..GraphDelta::empty()
            },
        ),
        // One more Y interaction.
        5 => (
            DomainId::Y,
            GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(yu, 2)],
                ..GraphDelta::empty()
            },
        ),
        // An un-like: user 0 retracts their first X interaction; the
        // duplicated pair is a counted no-op (already removed in-batch).
        6 => {
            let e = (0, gx.items_of(0)[0]);
            (
                DomainId::X,
                GraphDelta {
                    remove_edges: vec![e, e],
                    ..GraphDelta::empty()
                },
            )
        }
        // GDPR erasure of the most recent X user.
        7 => (
            DomainId::X,
            GraphDelta {
                erase_users: vec![xu - 1],
                ..GraphDelta::empty()
            },
        ),
        // The most recent Y item is delisted from the catalogue.
        8 => (
            DomainId::Y,
            GraphDelta {
                delist_items: vec![yi - 1],
                ..GraphDelta::empty()
            },
        ),
        // Y user 1 un-likes item 1 (step 3 made sure of that edge) …
        9 => (
            DomainId::Y,
            GraphDelta {
                remove_edges: vec![(1, 1)],
                ..GraphDelta::empty()
            },
        ),
        // … and likes it again: an add after a remove of the same edge.
        10 => (
            DomainId::Y,
            GraphDelta {
                edges: vec![(1, 1)],
                ..GraphDelta::empty()
            },
        ),
        // An interaction with the item step 8 delisted: the edge lands, the
        // item stays excluded from serving.
        11 => (
            DomainId::Y,
            GraphDelta {
                edges: vec![(0, *rec.delisted_items(DomainId::Y).last().unwrap())],
                ..GraphDelta::empty()
            },
        ),
        // Y user 0 is erased …
        12 => (
            DomainId::Y,
            GraphDelta {
                erase_users: vec![0],
                ..GraphDelta::empty()
            },
        ),
        // … and comes back: the neighbourhood returns, the raw row stays
        // zero.
        13 => (
            DomainId::Y,
            GraphDelta {
                edges: vec![(0, 2), (0, 3)],
                ..GraphDelta::empty()
            },
        ),
        // Growth in X after step 7's erasure there.
        _ => (
            DomainId::X,
            GraphDelta {
                add_users: 1,
                add_items: 1,
                edges: vec![(xu, xi), (0, xi)],
                ..GraphDelta::empty()
            },
        ),
    }
}

/// A durable engine driven through the scripted sequence, with the state
/// snapshot and log-file length captured at every append boundary.
struct Fixture {
    dir: PathBuf,
    base: PathBuf,
    log: PathBuf,
    /// `snapshots[i]` is the live state after `i` deltas.
    snapshots: Vec<Snapshot>,
    /// `boundaries[i]` is the log length after `i` appends (`boundaries[0]`
    /// is the header length).
    boundaries: Vec<u64>,
    /// The full final log image.
    log_bytes: Vec<u8>,
    /// The live engine, holding the log open at `log`.
    live: Recommender,
}

/// The (untrained but fully structured) model every base in this file
/// freezes, and its scenario.
fn fixture_model() -> (CdribModel, CdrScenario) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 4242).unwrap();
    let config = CdribConfig {
        layers: 2,
        ..CdribConfig::fast_test()
    };
    let model = CdribModel::new(&config, &scenario).unwrap();
    (model, scenario)
}

fn build_fixture(name: &str) -> Fixture {
    let dir = scratch(name);
    let base = dir.join("base.cdrb");
    let log = dir.join("deltas.wal");
    let (model, scenario) = fixture_model();
    fs::write(&base, save_model_bytes(&model, &scenario)).unwrap();

    let (mut live, report) = recover(&base, &log);
    assert!(report.created_log, "first boot must create the log");
    assert!(report.clean(), "first boot must be clean: {report:?}");
    let mut snapshots = vec![snapshot(&mut live)];
    let mut boundaries = vec![fs::metadata(&log).unwrap().len()];
    for step in 0..STEPS {
        let (domain, delta) = scripted_delta(step, &live);
        let outcome = live.apply_delta(domain, &delta).unwrap();
        assert_eq!(outcome.wal_seq, Some(step as u64 + 1), "appends carry contiguous seqs");
        live.wal_sync().unwrap();
        snapshots.push(snapshot(&mut live));
        boundaries.push(fs::metadata(&log).unwrap().len());
    }
    let log_bytes = fs::read(&log).unwrap();
    assert_eq!(*boundaries.last().unwrap(), log_bytes.len() as u64);
    Fixture {
        dir,
        base,
        log,
        snapshots,
        boundaries,
        log_bytes,
        live,
    }
}

impl Fixture {
    /// A per-case subdirectory, so every case keeps its own log and
    /// quarantine sidecar for post-mortem upload.
    fn case_dir(&self, label: &str) -> PathBuf {
        let d = self.dir.join(label);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Writes `bytes` as a log image in its own case directory and recovers
    /// against the shared base.
    fn recover_image(&self, label: &str, bytes: &[u8]) -> (Recommender, RecoveryReport, PathBuf) {
        let log = self.case_dir(label).join("deltas.wal");
        fs::write(&log, bytes).unwrap();
        let (rec, report) = recover(&self.base, &log);
        (rec, report, log)
    }

    /// Byte range of record `i` (0-based) in the log image.
    fn record_span(&self, i: usize) -> std::ops::Range<usize> {
        self.boundaries[i] as usize..self.boundaries[i + 1] as usize
    }
}

/// Kill points: the log is every append-boundary prefix of the full file
/// (the crash happened between appends, or before/after the whole run).
/// Recovery is clean, replays exactly the logged prefix, and reproduces the
/// live state at that boundary bitwise.
#[test]
fn kill_point_matrix_replays_every_append_boundary() {
    let fx = build_fixture("kill-points");
    for (i, &end) in fx.boundaries.iter().enumerate() {
        let label = format!("after-{i}");
        let (mut rec, report, log) = fx.recover_image(&label, &fx.log_bytes[..end as usize]);
        assert!(report.clean(), "prefix of {i} appends must recover clean: {report:?}");
        assert_eq!(report.replayed, i);
        assert_eq!(report.last_seq, i as u64);
        assert_eq!(rec.wal_applied_seq(), Some(i as u64));
        // Re-encoded once, however many records: a row is counted at most
        // once, so the count is bounded by the engine's size, not the log's.
        let scorer = rec.scorer();
        let total_rows: usize = [&scorer.x_users, &scorer.x_items, &scorer.y_users, &scorer.y_items]
            .iter()
            .map(|t| t.rows())
            .sum();
        assert!(
            report.rows_reencoded <= total_rows && (report.rows_reencoded > 0) == (i > 0),
            "{} rows re-encoded after {i} appends, engine holds {total_rows}",
            report.rows_reencoded
        );
        assert!(report.quarantine.is_none(), "clean recovery must not quarantine");
        assert!(
            fs::read_dir(log.parent().unwrap()).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .contains(".quarantine.")),
            "clean recovery must leave no sidecar files"
        );
        assert_matches(&mut rec, &fx.snapshots[i], &format!("kill point after {i} appends"));
    }

    // The recovered engine keeps ingesting durably where the log left off,
    // staying in lockstep with the uninterrupted live engine.
    let (mut rec, _, log) = fx.recover_image("continue", &fx.log_bytes);
    let (domain, delta) = scripted_delta(STEPS, &rec);
    let outcome = rec.apply_delta(domain, &delta).unwrap();
    assert_eq!(outcome.wal_seq, Some(STEPS as u64 + 1));
    rec.wal_sync().unwrap();
    let Fixture { mut live, .. } = fx;
    live.apply_delta(domain, &delta).unwrap();
    let want = snapshot(&mut live);
    assert_matches(&mut rec, &want, "continued ingest after recovery");
    // And the extended log itself replays clean.
    drop(rec);
    let (mut again, report) = recover(log.parent().unwrap().parent().unwrap().join("base.cdrb"), &log);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.replayed, STEPS + 1);
    assert_matches(&mut again, &want, "re-recovery of the extended log");
}

/// Torn tails: the file is cut at every byte boundary inside the final
/// record (a crash mid-append). Recovery keeps the longest valid prefix,
/// truncates the log back to it, and preserves the torn bytes verbatim in
/// the quarantine sidecar.
#[test]
fn torn_tail_truncation_matrix_keeps_longest_valid_prefix() {
    let fx = build_fixture("torn-tail");
    let last_start = fx.boundaries[STEPS - 1] as usize;
    for cut in last_start + 1..fx.log_bytes.len() {
        let label = format!("cut-{cut}");
        let (mut rec, report, log) = fx.recover_image(&label, &fx.log_bytes[..cut]);
        assert_eq!(report.replayed, STEPS - 1, "cut at byte {cut}");
        assert!(
            matches!(report.tail, Some(WalError::TornTail { .. })),
            "cut at byte {cut} must read as a torn tail: {:?}",
            report.tail
        );
        assert!(report.fallback.is_none(), "tail damage must not abandon the log");
        assert_eq!(report.dropped_bytes, (cut - last_start) as u64);
        let side = report.quarantine.as_ref().expect("torn bytes must be quarantined");
        assert_eq!(
            fs::read(side).unwrap(),
            &fx.log_bytes[last_start..cut],
            "quarantine must hold the torn bytes verbatim (cut {cut})"
        );
        assert_eq!(
            fs::metadata(&log).unwrap().len(),
            last_start as u64,
            "log must be truncated to the valid prefix (cut {cut})"
        );
        assert_matches(
            &mut rec,
            &fx.snapshots[STEPS - 1],
            &format!("torn tail, cut at byte {cut}"),
        );
    }
}

/// Bit rot: a single bit flipped at every byte of the final record (length
/// prefix, sequence number, domain tag, delta payload, checksum), in an
/// interior record, and in the file header. Record damage ends the prefix
/// at the damaged record; header damage abandons the log wholesale.
#[test]
fn bit_flip_matrix_is_always_detected() {
    let fx = build_fixture("bit-flips");
    let last_start = fx.boundaries[STEPS - 1] as usize;

    for pos in last_start..fx.log_bytes.len() {
        let mut bytes = fx.log_bytes.clone();
        bytes[pos] ^= 1 << (pos % 8);
        let label = format!("flip-{pos}");
        let (mut rec, report, _log) = fx.recover_image(&label, &bytes);
        assert!(
            report.fallback.is_none(),
            "record damage must not abandon the log (flip {pos})"
        );
        let tail = report
            .tail
            .as_ref()
            .unwrap_or_else(|| panic!("flip at byte {pos} went undetected"));
        assert!(
            matches!(
                tail,
                WalError::RecordChecksum { .. }
                    | WalError::TornTail { .. }
                    | WalError::BadRecord { .. }
                    | WalError::SequenceSkew { .. }
            ),
            "flip at byte {pos}: unexpected verdict {tail:?}"
        );
        assert_eq!(report.replayed, STEPS - 1, "flip at byte {pos}");
        assert_eq!(
            fs::read(report.quarantine.as_ref().unwrap()).unwrap(),
            &bytes[last_start..],
            "flip at byte {pos}"
        );
        assert_matches(&mut rec, &fx.snapshots[STEPS - 1], &format!("bit flip at byte {pos}"));
    }

    // A flip inside an interior record ends the prefix there: the later
    // (intact) records are unreachable past the damage and are quarantined
    // with it, never replayed out of order.
    let interior = 2;
    let span = fx.record_span(interior);
    for pos in [span.start, span.start + 6, span.end - 1] {
        let mut bytes = fx.log_bytes.clone();
        bytes[pos] ^= 0x10;
        let label = format!("interior-flip-{pos}");
        let (mut rec, report, _log) = fx.recover_image(&label, &bytes);
        assert_eq!(report.replayed, interior, "interior flip at byte {pos}");
        assert!(report.tail.is_some() && report.fallback.is_none());
        assert_eq!(report.dropped_bytes, (fx.log_bytes.len() - span.start) as u64);
        assert_matches(
            &mut rec,
            &fx.snapshots[interior],
            &format!("interior flip at byte {pos}"),
        );
    }

    // A flip inside the file header: the envelope checksum catches it, the
    // whole log is quarantined, and the engine starts from the bare base
    // with a fresh log — still able to ingest.
    let header_len = fx.boundaries[0] as usize;
    for pos in [1, 5, header_len / 2, header_len - 1] {
        let mut bytes = fx.log_bytes.clone();
        bytes[pos] ^= 1 << (pos % 8);
        let label = format!("header-flip-{pos}");
        let (mut rec, report, log) = fx.recover_image(&label, &bytes);
        assert!(
            matches!(report.fallback, Some(WalError::Header(_))),
            "header flip at byte {pos}: {:?}",
            report.fallback
        );
        assert_eq!(report.replayed, 0);
        assert!(report.created_log, "fallback must start a fresh log");
        assert_eq!(report.dropped_bytes, bytes.len() as u64);
        assert_eq!(fs::read(report.quarantine.as_ref().unwrap()).unwrap(), bytes);
        assert_matches(&mut rec, &fx.snapshots[0], &format!("header flip at byte {pos}"));
        let (domain, delta) = scripted_delta(0, &rec);
        assert_eq!(rec.apply_delta(domain, &delta).unwrap().wal_seq, Some(1));
        drop(rec);
        let scan = wal::scan_bytes(&fs::read(&log).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 1, "the fresh log holds the new record");
    }
}

/// Sequence skew: duplicated, reordered and dropped records checksum clean
/// but are rejected structurally by the monotone sequence numbers.
#[test]
fn duplicated_reordered_and_dropped_records_are_rejected() {
    let fx = build_fixture("sequence-skew");

    // Duplicate the final record: byte-identical, so only the sequence
    // number betrays it. The first copy replays, the duplicate is dropped.
    let final_span = fx.record_span(STEPS - 1);
    let mut dup = fx.log_bytes.clone();
    dup.extend_from_slice(&fx.log_bytes[final_span.clone()]);
    let (mut rec, report, _) = fx.recover_image("duplicate", &dup);
    assert_eq!(report.replayed, STEPS);
    assert!(
        matches!(
            report.tail,
            Some(WalError::SequenceSkew { expected, found, .. })
                if expected == STEPS as u64 + 1 && found == STEPS as u64
        ),
        "{:?}",
        report.tail
    );
    assert_eq!(report.dropped_bytes, final_span.len() as u64);
    assert_matches(&mut rec, &fx.snapshots[STEPS], "duplicated final record");

    // Swap the last two records: the prefix ends where order breaks.
    let prev_span = fx.record_span(STEPS - 2);
    let mut swapped = fx.log_bytes[..prev_span.start].to_vec();
    swapped.extend_from_slice(&fx.log_bytes[final_span.clone()]);
    swapped.extend_from_slice(&fx.log_bytes[prev_span.clone()]);
    let (mut rec, report, _) = fx.recover_image("reordered", &swapped);
    assert_eq!(report.replayed, STEPS - 2);
    assert!(
        matches!(
            report.tail,
            Some(WalError::SequenceSkew { expected, found, .. })
                if expected == STEPS as u64 - 1 && found == STEPS as u64
        ),
        "{:?}",
        report.tail
    );
    assert_matches(&mut rec, &fx.snapshots[STEPS - 2], "reordered records");

    // Drop an interior record: the gap is detected at the splice point and
    // nothing after it is replayed (replaying across a hole would fabricate
    // state).
    let hole = fx.record_span(3);
    let mut gapped = fx.log_bytes[..hole.start].to_vec();
    gapped.extend_from_slice(&fx.log_bytes[hole.end..]);
    let (mut rec, report, _) = fx.recover_image("gap", &gapped);
    assert_eq!(report.replayed, 3);
    assert!(
        matches!(
            report.tail,
            Some(WalError::SequenceSkew {
                expected: 4,
                found: 5,
                ..
            })
        ),
        "{:?}",
        report.tail
    );
    assert_matches(&mut rec, &fx.snapshots[3], "dropped interior record");
}

/// What every wholesale fallback looks like: nothing replayed, the rejected
/// file (`bytes`) preserved verbatim in a sidecar, a fresh log, and an engine
/// that is bitwise the bare base (`base_state`).
fn assert_wholesale_fallback(
    label: &str,
    bytes: &[u8],
    rec: &mut Recommender,
    report: &RecoveryReport,
    base_state: &Snapshot,
) {
    assert_eq!(
        (report.replayed, report.skipped, report.rows_reencoded),
        (0, 0, 0),
        "{label}"
    );
    assert!(report.created_log, "{label}: fallback must start a fresh log");
    assert_eq!(report.dropped_bytes, bytes.len() as u64, "{label}");
    assert_eq!(
        fs::read(report.quarantine.as_ref().unwrap()).unwrap(),
        bytes,
        "{label}: the whole file must be preserved"
    );
    assert_matches(rec, base_state, label);
}

/// Unreadable or foreign logs: version skew, garbage bytes, empty and
/// header-truncated files, and a log whose sequence range cannot connect to
/// the base. All fall back to the bare base with a typed reason, preserve
/// the rejected file wholesale, and leave a working fresh log behind.
#[test]
fn unreadable_or_foreign_logs_fall_back_to_the_base() {
    let fx = build_fixture("fallback");
    let records = &fx.log_bytes[fx.boundaries[0] as usize..];

    // Version skew: valid records under a future-format header.
    let mut skewed = cdrib_tensor::artifact::encode(wal::WAL_KIND, wal::WAL_VERSION + 1, &1u64.to_le_bytes());
    skewed.extend_from_slice(records);
    let (mut rec, report, _) = fx.recover_image("version-skew", &skewed);
    assert!(
        matches!(
            report.fallback,
            Some(WalError::Header(cdrib_tensor::ArtifactError::UnsupportedVersion { .. }))
        ),
        "{:?}",
        report.fallback
    );
    assert_wholesale_fallback("version skew", &skewed, &mut rec, &report, &fx.snapshots[0]);

    // Garbage bytes.
    let garbage = b"this is not a write-ahead log".to_vec();
    let (mut rec, report, _) = fx.recover_image("garbage", &garbage);
    assert!(
        matches!(report.fallback, Some(WalError::Header(_))),
        "{:?}",
        report.fallback
    );
    assert_wholesale_fallback("garbage", &garbage, &mut rec, &report, &fx.snapshots[0]);

    // An empty file and a file cut inside the header.
    for cut in [0usize, fx.boundaries[0] as usize / 2] {
        let bytes = fx.log_bytes[..cut].to_vec();
        let (mut rec, report, _) = fx.recover_image(&format!("header-cut-{cut}"), &bytes);
        assert!(
            matches!(report.fallback, Some(WalError::Header(_))),
            "cut at {cut}: {:?}",
            report.fallback
        );
        assert_wholesale_fallback(
            &format!("header cut at {cut}"),
            &bytes,
            &mut rec,
            &report,
            &fx.snapshots[0],
        );
    }

    // A log that provably belongs to a different base: it starts at seq 5,
    // but the plain-model base has folded nothing.
    let foreign_log = fx.case_dir("foreign").join("deltas.wal");
    drop(DeltaWal::create(&foreign_log, 5).unwrap());
    let foreign_bytes = fs::read(&foreign_log).unwrap();
    let (mut rec, report) = recover(&fx.base, &foreign_log);
    assert!(
        matches!(
            report.fallback,
            Some(WalError::BaseLogMismatch {
                applied_seq: 0,
                first_seq: 5,
                records: 0
            })
        ),
        "{:?}",
        report.fallback
    );
    assert_wholesale_fallback("foreign log", &foreign_bytes, &mut rec, &report, &fx.snapshots[0]);

    // After any fallback the engine ingests durably again.
    let (domain, delta) = scripted_delta(0, &rec);
    assert_eq!(rec.apply_delta(domain, &delta).unwrap().wal_seq, Some(1));
}

/// Compaction folds the log into a new base (a serve container) + fresh log
/// via two atomic renames. Every crash window between them recovers to the
/// same state: sequence numbers are global, so records the new base already
/// folded are recognised and skipped, never double-applied.
#[test]
fn compaction_is_crash_safe_in_every_window() {
    let fx = build_fixture("compaction");
    let Fixture {
        dir,
        base,
        log,
        snapshots,
        log_bytes,
        mut live,
        ..
    } = fx;
    let stage = |label: &str, base_from: &Path, log_image: &[u8]| -> (PathBuf, PathBuf) {
        let d = dir.join(label);
        fs::create_dir_all(&d).unwrap();
        let b = d.join("base.cdrb");
        let l = d.join("deltas.wal");
        fs::copy(base_from, &b).unwrap();
        fs::write(&l, log_image).unwrap();
        (b, l)
    };

    // Window A staged before compaction runs: old base + old log.
    let (base_a, log_a) = stage("old-base-old-log", &base, &log_bytes);

    let report = live.compact().unwrap();
    assert_eq!(report.applied_seq, STEPS as u64);
    assert_eq!(report.log_bytes_folded, log_bytes.len() as u64);
    assert!(report.checkpoint_bytes > 0);
    assert!(
        !dir.join("base.cdrb.tmp").exists(),
        "compaction must clean up its temp files"
    );
    assert!(!dir.join("deltas.wal.tmp").exists());
    assert!(
        fs::metadata(&log).unwrap().len() < log_bytes.len() as u64,
        "compaction must shrink the log"
    );
    assert_matches(&mut live, &snapshots[STEPS], "live state must survive compaction");

    // Window B: crash between the two renames — new base + old log.
    let (base_b, log_b) = stage("new-base-old-log", &base, &log_bytes);
    // Window C: crash after both renames — new base + new (empty) log. A
    // stray temp file from a crash mid-atomic-write must be ignored.
    let (base_c, log_c) = stage("new-base-new-log", &base, &fs::read(&log).unwrap());
    fs::write(dir.join("new-base-new-log").join("base.cdrb.tmp"), b"torn checkpoint").unwrap();

    let cases = [
        ("old base + old log", &base_a, &log_a, STEPS, 0),
        ("new base + old log", &base_b, &log_b, 0, STEPS),
        ("new base + new log", &base_c, &log_c, 0, 0),
    ];
    for (label, b, l, replayed, skipped) in cases {
        let (mut rec, report) = recover(b, l);
        assert!(report.clean(), "{label}: {report:?}");
        assert_eq!(report.replayed, replayed, "{label}");
        assert_eq!(report.skipped, skipped, "{label}");
        assert_eq!(report.last_seq, STEPS as u64, "{label}");
        assert_matches(&mut rec, &snapshots[STEPS], label);
    }

    // Life continues after compaction: sequence numbers never reset, more
    // deltas land in the fresh log, and a second fold stays recoverable.
    for step in STEPS..STEPS + 2 {
        let (domain, delta) = scripted_delta(step, &live);
        let outcome = live.apply_delta(domain, &delta).unwrap();
        assert_eq!(outcome.wal_seq, Some(step as u64 + 1));
    }
    live.wal_sync().unwrap();
    let want = snapshot(&mut live);
    let (base_d, log_d) = stage("post-compaction", &base, &fs::read(&log).unwrap());
    let (mut rec, report) = recover(&base_d, &log_d);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.base_applied_seq, STEPS as u64);
    assert_eq!(report.replayed, 2);
    assert_matches(&mut rec, &want, "recovery from checkpoint + post-compaction deltas");

    let second = live.compact().unwrap();
    assert_eq!(second.applied_seq, STEPS as u64 + 2);
    let (base_e, log_e) = stage("second-fold", &base, &fs::read(&log).unwrap());
    let (mut rec, report) = recover(&base_e, &log_e);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.base_applied_seq, STEPS as u64 + 2);
    assert_eq!(report.replayed, 0);
    assert_matches(&mut rec, &want, "recovery after the second fold");
}

/// After a torn-tail recovery the engine resumes durable ingest: the
/// quarantined record's sequence number is re-issued (it was never
/// applied), the repaired log extends cleanly, and a second recovery of
/// the resumed log reproduces the resumed state. A *second* damage
/// incident — at the very same truncation offset — must land in its own
/// sidecar: quarantines are suffixed with the offset (plus a counter on
/// collision), so no incident's evidence is ever clobbered.
#[test]
fn recovery_after_tail_damage_resumes_durable_ingest() {
    let fx = build_fixture("resume");
    let last_start = fx.boundaries[STEPS - 1] as usize;
    let cut = last_start + (fx.log_bytes.len() - last_start) / 2;
    let (mut rec, report, log) = fx.recover_image("torn", &fx.log_bytes[..cut]);
    assert_eq!(report.replayed, STEPS - 1);
    assert_eq!(report.last_seq, STEPS as u64 - 1);
    let side1 = report.quarantine.clone().expect("first incident quarantined");
    let side1_bytes = fs::read(&side1).unwrap();

    // The torn record carried seq STEPS but never applied; the next append
    // re-issues it, keeping the log gapless.
    let (domain, delta) = scripted_delta(1, &rec);
    let outcome = rec.apply_delta(domain, &delta).unwrap();
    assert_eq!(outcome.wal_seq, Some(STEPS as u64));
    rec.wal_sync().unwrap();
    let want = snapshot(&mut rec);

    // The repaired-and-extended log is clean end to end…
    let repaired = fs::read(&log).unwrap();
    let scan = wal::scan_bytes(&repaired).unwrap();
    assert!(scan.tail.is_none());
    assert_eq!(scan.records.len(), STEPS);
    // …and recovering it (into a copy — the first engine still holds the
    // file open) reproduces the resumed state exactly.
    let (mut again, report, _) = fx.recover_image("torn-again", &repaired);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.replayed, STEPS);
    assert_matches(&mut again, &want, "re-recovery of the resumed log");

    // Incident two: the re-issued record is torn as well — the truncation
    // offset is the same as incident one's, the sidecar must not be.
    drop(rec);
    fs::write(&log, &repaired[..repaired.len() - 3]).unwrap();
    let (mut rec2, report2) = recover(&fx.base, &log);
    assert_eq!(report2.replayed, STEPS - 1);
    let side2 = report2.quarantine.clone().expect("second incident quarantined");
    assert_ne!(side1, side2, "a second incident must get its own sidecar");
    assert!(side1.exists(), "the first sidecar must survive the second incident");
    assert_eq!(
        fs::read(&side1).unwrap(),
        side1_bytes,
        "the first incident's evidence must be preserved verbatim"
    );
    assert_eq!(
        fs::read(&side2).unwrap(),
        &repaired[last_start..repaired.len() - 3],
        "the second sidecar holds the second incident's torn bytes"
    );
    assert_matches(&mut rec2, &fx.snapshots[STEPS - 1], "second-incident recovery");
}

/// The retraction guarantees survive every recovery path: once the erasure
/// record is durably logged, no recovery — full-log replay, compacted base +
/// empty log, or compacted base alone — and no read-only load of the
/// compacted base ever resurrects the user: the
/// embedding row stays zero, the neighbourhood stays empty, and the
/// delisted item never appears in any user's top-K. The erased user stays
/// a valid request target and is served a full-catalogue (minus delisted)
/// top-K from their zero row.
#[test]
fn erasure_and_delisting_are_never_resurrected_by_recovery() {
    let fx = build_fixture("erasure");
    let verify = |rec: &mut Recommender, context: &str| {
        let erased = rec.erased_users(DomainId::X).to_vec();
        assert!(!erased.is_empty(), "{context}: the script erases an X user");
        for &u in &erased {
            assert!(
                rec.seen_graph(DomainId::X).items_of(u as usize).is_empty(),
                "{context}: erased user {u} kept interactions"
            );
            assert!(
                rec.scorer().x_users.row(u as usize).iter().all(|&v| v == 0.0),
                "{context}: erased user {u}'s embedding row is not zero"
            );
        }
        let delisted = rec.delisted_items(DomainId::Y).to_vec();
        assert!(!delisted.is_empty(), "{context}: the script delists a Y item");
        let n_users = rec.seen_graph(DomainId::X).n_users();
        let catalogue = rec.catalogue_size(DomainId::Y);
        let mut out = Vec::new();
        for user in 0..n_users as u32 {
            let request = Request {
                direction: Direction::X_TO_Y,
                user,
                k: catalogue,
            };
            rec.recommend(&request, &mut out).unwrap();
            assert!(
                out.iter().all(|r| delisted.binary_search(&r.item).is_err()),
                "{context}: delisted item served to user {user}"
            );
            if erased.contains(&user) {
                // A tombstoned user has no history left to filter: the
                // full catalogue minus the delisted slots comes back.
                assert_eq!(
                    out.len(),
                    catalogue - delisted.len(),
                    "{context}: erased user {user} must get a full-catalogue top-K"
                );
            }
        }
    };

    // Full-log replay reproduces the tombstones.
    let (mut rec, report, _) = fx.recover_image("full", &fx.log_bytes);
    assert!(report.clean(), "{report:?}");
    verify(&mut rec, "full-log replay");
    drop(rec);

    // Compaction folds the tombstones into the new base: both the
    // new-base + old-log and new-base + new-log crash windows restore them
    // (its model bytes predate the erasure — the tombstone sections are
    // what re-zero the rows).
    let Fixture {
        dir,
        base,
        log,
        log_bytes,
        mut live,
        ..
    } = fx;
    live.compact().unwrap();
    // The compacted base is a serve container: even a read-only load
    // reinstalls its tombstones.
    verify(
        &mut Recommender::from_serve_v2_file(&base).unwrap(),
        "compacted base, read-only load",
    );
    let stage = |label: &str, log_image: &[u8]| -> (PathBuf, PathBuf) {
        let d = dir.join(label);
        fs::create_dir_all(&d).unwrap();
        let b = d.join("base.cdrb");
        let l = d.join("deltas.wal");
        fs::copy(&base, &b).unwrap();
        fs::write(&l, log_image).unwrap();
        (b, l)
    };
    let (b, l) = stage("checkpoint-old-log", &log_bytes);
    let (mut rec, report) = recover(&b, &l);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.skipped, STEPS, "every record is already folded");
    verify(&mut rec, "checkpoint + already-folded log");
    let (b, l) = stage("checkpoint-new-log", &fs::read(&log).unwrap());
    let (mut rec, report) = recover(&b, &l);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.replayed, 0);
    verify(&mut rec, "checkpoint + fresh log");
}

/// Writes `records` as a fresh log at `path` (first seq 1) and returns its
/// bytes.
fn write_log<'a>(path: &Path, records: impl IntoIterator<Item = (DomainId, &'a GraphDelta)>) -> Vec<u8> {
    let mut log = DeltaWal::create(path, 1).unwrap();
    for (domain, delta) in records {
        log.append(domain, delta).unwrap();
    }
    log.sync().unwrap();
    fs::read(path).unwrap()
}

/// A record that checksums clean but names an entity the graph — as the
/// records before it left it — does not hold: base and log disagree, so no
/// prefix of the log can be trusted. Replay names the record, the whole log
/// is quarantined, and although records before it had already been applied
/// to the graphs the engine comes up bitwise the bare base (tables, top-K,
/// seen edges, empty tombstones, epoch 0) and ingests durably again.
#[test]
fn a_record_the_graph_rejects_abandons_the_log_wholesale() {
    let fx = build_fixture("replay-rejected");
    let scripted: Vec<(DomainId, GraphDelta)> = wal::scan_bytes(&fx.log_bytes)
        .unwrap()
        .records
        .into_iter()
        .map(|sr| (sr.record.domain, sr.record.delta))
        .collect();
    let bad_edge = GraphDelta {
        edges: vec![(0, 0), (1_000_000, 0)],
        ..GraphDelta::empty()
    };
    let bad_erase = GraphDelta {
        erase_users: vec![1_000_000],
        ..GraphDelta::empty()
    };
    // (label, valid records before the bad one, the bad one's domain and delta)
    let cases = [
        ("first-record", 0, DomainId::X, &bad_edge),
        // Steps 0..6 grow both domains before the rejection …
        ("mid-log-edge", 6, DomainId::X, &bad_edge),
        // … and steps 0..9 have erased and delisted by then as well.
        ("mid-log-erase", 9, DomainId::Y, &bad_erase),
    ];
    for (label, before, domain, bad) in cases {
        let log = fx.case_dir(label).join("deltas.wal");
        let records = scripted[..before]
            .iter()
            .map(|(d, delta)| (*d, delta))
            .chain([(domain, bad)])
            // Intact records past the rejected one are never reached.
            .chain(scripted[before..before + 2].iter().map(|(d, delta)| (*d, delta)));
        let bytes = write_log(&log, records);
        let (mut rec, report) = recover(&fx.base, &log);
        let k = before as u64 + 1;
        assert!(
            matches!(report.fallback, Some(WalError::ReplayRejected { seq, .. }) if seq == k),
            "{label}: {:?}",
            report.fallback
        );
        assert!(report.tail.is_none(), "{label}: the log itself was intact");
        assert_eq!(report.last_seq, 0, "{label}");
        assert_eq!(rec.wal_applied_seq(), Some(0), "{label}");
        assert_wholesale_fallback(label, &bytes, &mut rec, &report, &fx.snapshots[0]);
        for domain in DOMAINS {
            assert!(rec.erased_users(domain).is_empty() && rec.delisted_items(domain).is_empty());
        }

        let (domain, delta) = scripted_delta(0, &rec);
        let outcome = rec.apply_delta(domain, &delta).unwrap();
        assert_eq!((outcome.wal_seq, outcome.epoch), (Some(1), 1), "{label}");
        assert_matches(&mut rec, &fx.snapshots[1], label);
        drop(rec);
        let fresh = wal::scan_bytes(&fs::read(&log).unwrap()).unwrap();
        assert_eq!((fresh.first_seq, fresh.records.len()), (1, 1), "{label}");
    }
}

/// Every record applies, but the one grouped re-encode comes back
/// non-finite. No single record can be blamed, so the verdict names the last
/// one applied and says so; nothing was published, and the fallback is the
/// same wholesale one.
///
/// The base is poisoned so that it is finite as frozen and only an
/// interaction of one particular user overflows: a user with no Y history
/// gets a raw embedding of 3e38 in column 0, the mean head ignores that
/// column, and the first push layer amplifies it by 1e3 as soon as an item
/// aggregates it.
#[test]
fn a_non_finite_grouped_reencode_abandons_the_log_wholesale() {
    let dir = scratch("replay-non-finite");
    let (mut model, scenario) = fixture_model();
    let config = model.config().clone();
    let loner = (0..scenario.y.train.n_users())
        .find(|&u| scenario.y.train.user_degree(u) == 0)
        .expect("cold-start users have no Y training history") as u32;
    let params = model.params_mut();
    let id = |name: &str| params.id_of(name).unwrap();
    let (emb, push, head) = (
        id("y.user_emb"),
        id("y.user_vbge.layer0.push.weight"),
        id("y.user_vbge.mu.weight"),
    );
    params.value_mut(emb).set(loner as usize, 0, 3e38);
    params.value_mut(push).set(0, 0, 1e3);
    params.value_mut(head).row_mut(config.dim * config.layers).fill(0.0);
    let base = dir.join("base.cdrb");
    fs::write(&base, save_model_bytes(&model, &scenario)).unwrap();
    let (mut bare, report) = recover(&base, dir.join("bare.wal"));
    assert!(report.clean(), "the poisoned base is finite as frozen: {report:?}");
    let base_state = snapshot(&mut bare);
    drop(bare);

    let grow = GraphDelta {
        add_users: 1,
        edges: vec![(scenario.x.train.n_users() as u32, 0)],
        ..GraphDelta::empty()
    };
    let overflow = GraphDelta {
        edges: vec![(loner, 0)],
        ..GraphDelta::empty()
    };
    let log = dir.join("deltas.wal");
    let bytes = write_log(
        &log,
        [
            (DomainId::X, &grow),
            (DomainId::Y, &overflow),
            (DomainId::X, &GraphDelta::empty()),
        ],
    );
    let (mut rec, report) = recover(&base, &log);
    match &report.fallback {
        Some(WalError::ReplayRejected { seq: 3, detail }) => {
            assert!(detail.contains("no single record") && detail.contains("y_"), "{detail}")
        }
        other => panic!("expected the grouped publish to be rejected, got {other:?}"),
    }
    // Domain X validated clean, and still nothing of it was published.
    assert_wholesale_fallback("non-finite re-encode", &bytes, &mut rec, &report, &base_state);
}

/// A serve v2 base under a log that only ever addresses domain X: replay
/// opens, re-encodes and patches X alone, so everything of domain Y — both
/// embedding tables and the seen filter — still serves off the map, and the
/// container's shipped int8 mirror of X is patched to match the replayed
/// table (checked by `assert_matches`).
#[test]
fn a_log_for_one_domain_leaves_the_other_mapped() {
    let fx = build_fixture("one-domain-v2");
    let (model, scenario) = fixture_model();
    let dir = fx.case_dir("v2");
    let base = dir.join("base.cdr2");
    save_serve_v2_file(&model, &scenario, true, true, &base).unwrap();
    let scan = wal::scan_bytes(&fx.log_bytes).unwrap();
    let x_only: Vec<_> = scan
        .records
        .iter()
        .filter(|sr| sr.record.domain == DomainId::X)
        .map(|sr| &sr.record.delta)
        .collect();
    let log = dir.join("deltas.wal");
    write_log(&log, x_only.iter().map(|&delta| (DomainId::X, delta)));

    // The reference: the same deltas, one at a time, on a decoded engine.
    let mut twin = Recommender::from_artifact_bytes_online(&fs::read(&fx.base).unwrap()).unwrap();
    for delta in &x_only {
        twin.apply_delta(DomainId::X, delta).unwrap();
    }

    let (mut rec, report) = recover(&base, &log);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.replayed, x_only.len());
    let scorer = rec.scorer();
    assert!(
        !scorer.x_users.is_mapped() && !scorer.x_items.is_mapped() && !rec.seen_is_mapped(DomainId::X),
        "replayed domain X must have gone owned"
    );
    assert!(
        scorer.y_users.is_mapped() && scorer.y_items.is_mapped() && rec.seen_is_mapped(DomainId::Y),
        "untouched domain Y must keep serving off the map"
    );
    assert_matches(&mut rec, &snapshot(&mut twin), "X-only replay over a v2 base");
}

/// A compacted container whose every section checksums clean but whose
/// domain-X seen CSR names an item past `n_items` (re-sealed through a fresh
/// writer): recovery refuses it with a typed shape error and builds no
/// engine — it never reaches the encoder's adjacency build.
#[test]
fn a_compacted_container_with_a_broken_graph_is_refused_typed() {
    let dir = scratch("broken-compacted-graph");
    let (model, scenario) = fixture_model();
    let base = dir.join("base.cdrb");
    fs::write(&base, save_model_bytes(&model, &scenario)).unwrap();
    let (mut live, _) = recover(&base, dir.join("first.wal"));
    live.compact().unwrap();
    drop(live);

    let compacted = fs::read(&base).unwrap();
    let reader = v2::Reader::open(mmap::from_bytes(&compacted), SERVE_KIND, SERVE_VERSION).unwrap();
    let n_items = scenario.x.train.n_items() as u32;
    let offsets = reader.storage::<u64>("sx_off").unwrap();
    let user = (0..offsets.len() - 1).find(|&u| offsets[u + 1] > offsets[u]).unwrap();
    let last = offsets[user + 1] as usize - 1;
    let mut w = v2::Writer::new(SERVE_KIND, SERVE_VERSION);
    for (name, align) in [
        ("meta", 8),
        ("xu", 4),
        ("xi", 4),
        ("yu", 4),
        ("yi", 4),
        ("sx_off", 8),
        ("sx_itm", 4),
        ("sy_off", 8),
        ("sy_itm", 4),
        ("model", 1),
        ("fold", 8),
        ("ex", 4),
        ("dx", 4),
        ("ey", 4),
        ("dy", 4),
    ] {
        let mut bytes = reader.section_bytes(name).unwrap().to_vec();
        if name == "sx_itm" {
            bytes[last * 4..last * 4 + 4].copy_from_slice(&n_items.to_le_bytes());
        }
        w.push(name, align, bytes);
    }
    fs::write(&base, w.finish()).unwrap();
    let log = dir.join("deltas.wal");
    let err = Recommender::recover(&base, &log).err();
    assert!(
        matches!(&err, Some(ServeError::ShapeMismatch { detail }) if detail.contains("outside the")),
        "{err:?}"
    );
    assert!(!log.exists(), "a refused base must not start a log");
}
