//! The top-K recommendation engine over frozen embedding tables.
//!
//! A [`Recommender`] is the serving half of the train/serve split: it caches
//! the four embedding tables a frozen model produced (CDRIB's VBGE means via
//! `cdrib_core::InferenceModel`, or any baseline's `EmbeddingScorer` through
//! [`Recommender::new`]) and answers the query the paper
//! is actually for — *recommend K target-domain items to this user*.
//!
//! A request scores its user against the **full** opposite-domain catalogue
//! through the fused SIMD row-range kernels (`score_rows_dot` /
//! `score_rows_neg_sq_dist`, bitwise the gather kernels the evaluation
//! protocol uses); filters items the user already interacted with by merging
//! against the bipartite graph's sorted neighbour list; and selects the top K
//! with a bounded binary heap ([`TopK`]) instead of a full sort.
//!
//! Every read path — [`Recommender::recommend`], the `recommend_batch*`
//! family, the network server — goes through one **tile-major** traversal
//! (`ServeCore::recommend_tiled`): the batch's requests are grouped by target
//! domain, and each cache-sized tile of catalogue rows is scored for all of
//! a group's users in one kernel call before the next tile is touched. A
//! batch therefore reads the item table once, not once per request; a single
//! request is the batch of one. After warm-up a batch performs **zero**
//! allocations (enforced by `tests/alloc_regression.rs`), and heap selection
//! is bitwise identical to full-sort selection under the shared total order
//! (pinned by the parity tests, and by CI's `bench-smoke` job, whose
//! bench_suite check compares every f32 reply to
//! [`Recommender::recommend_full_sort`]).
//!
//! Batches of concurrent requests fan out across `std::thread::scope`
//! workers behind the `parallel` feature, one warm scratch and one contiguous
//! sub-batch per worker.

use crate::delta::{DeltaOutcome, OnlineUpdater, TABLE_NAMES};
use crate::error::{Result, ServeError};
use crate::seen::SeenFilter;
use crate::topk::{ranks_above, Recommendation, TopK};
use crate::wal::{self, CompactionReport, DeltaWal, DurableLog, Lifecycle, RecoveryReport, ScannedRecord, WalError};
use cdrib_core::{CdribEmbeddings, DeltaReencode, InferenceModel, ServeFold, ServeParts};
use cdrib_data::{CdrScenario, Direction, DomainId};
use cdrib_eval::{EmbeddingScorer, ScoreKind};
use cdrib_graph::{BipartiteGraph, GraphDelta};
use cdrib_tensor::artifact::{v2, ArtifactError};
use cdrib_tensor::kernels::{self, QuantUser};
use cdrib_tensor::mmap::{self, MappedRegion};
use cdrib_tensor::quant::quantize_user_into;
use cdrib_tensor::{QuantizedTable, TableStorage, Tensor};
use std::path::Path;
use std::sync::Arc;

/// Merges sorted `src` ids into the sorted, deduplicated `dst` set.
/// Retraction batches are small relative to the accumulated set, so
/// per-id binary insertion beats re-sorting the whole vector.
fn merge_sorted(dst: &mut Vec<u32>, src: &[u32]) {
    for &v in src {
        if let Err(pos) = dst.binary_search(&v) {
            dst.insert(pos, v);
        }
    }
}

/// Offers one tile's scores — items `first..first + scores.len()`, excluded
/// slots already NaN — to a request's heap.
///
/// While the heap is filling, every non-NaN candidate is offered. Once full,
/// only a score strictly above the worst retained entry can displace anything
/// (items arrive in ascending id order, so a later one loses every tie):
/// [`SKIP_BLOCK`] scores at a time are compared against that bar with one
/// branch-free (vectorised) test, which rejects the bulk of the catalogue
/// without looking at single scores. NaN compares false against any bar.
/// `push` re-checks order, so a momentarily stale bar can only cost a push,
/// never a result.
fn select_tile(topk: &mut TopK, scores: &[f32], first: u32) {
    let mut i = 0usize;
    let mut bar = loop {
        match topk.full_threshold() {
            Some(bar) => break bar,
            None if i == scores.len() => return,
            None => {
                if !scores[i].is_nan() {
                    topk.push(scores[i], first + i as u32);
                }
                i += 1;
            }
        }
    };
    let mut offer = |bar: &mut f32, score: f32, i: usize| {
        if score > *bar {
            topk.push(score, first + i as u32);
            *bar = topk.full_threshold().unwrap_or(*bar);
        }
    };
    let (blocks, rest) = scores[i..].as_chunks::<SKIP_BLOCK>();
    for block in blocks {
        if block.iter().fold(false, |any, &score| any | (score > bar)) {
            for (j, &score) in block.iter().enumerate() {
                offer(&mut bar, score, i + j);
            }
        }
        i += SKIP_BLOCK;
    }
    for (j, &score) in rest.iter().enumerate() {
        offer(&mut bar, score, i + j);
    }
}

/// One top-K recommendation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Transfer direction: the user's history lives in `direction.source`,
    /// recommendations come from `direction.target`'s catalogue.
    pub direction: Direction,
    /// The user, indexed in the source-domain user table.
    pub user: u32,
    /// How many items to return (fewer when the unseen catalogue is smaller).
    pub k: usize,
}

/// The numeric path candidate scoring runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringPrecision {
    /// Full-precision f32 tables through the SIMD f32 kernels (the default).
    #[default]
    F32,
    /// Int8-quantised item tables through the VNNI/AVX2/portable integer
    /// kernels: the user row is quantised once per request, every candidate
    /// row is read at ~1/4 the memory traffic. Scores approximate the f32
    /// path (recall@10 >= 0.99 pinned by `tests/quant_parity.rs`) and are
    /// bitwise deterministic across runs and ISA tiers.
    Int8,
}

/// Bytes of f32 item rows in one tile of the catalogue scan — the unit the
/// tile-major traversal scores for every user of a batch before moving on, so
/// the rows are fetched from memory once per batch. A tile is a row range of
/// the item table at both precisions.
///
/// 256 KiB is 2 048 rows at dim 32: a quarter of a 1 MiB L2, beside the
/// batch's heaps. Chosen by measurement (65 536 x 32 table, 256 requests, one
/// Ice Lake core with 48 KiB L1d and 1.25 MiB L2): a batched request costs
/// 101–107 us at every tile size from 16 KiB to 512 KiB — anything
/// cache-resident reads the same within run-to-run noise — against 410 us
/// request by request; of that plateau this is the size that keeps the tile
/// count (32 here) and with it the per-tile bookkeeping small while still
/// fitting the smallest L2 we expect. Not a knob. The int8 path scans the
/// same row ranges of its mirror (a quarter of the bytes).
///
/// At f32 the score block is a tile's scores for the whole group, 8 KiB per
/// user at dim 32: 1 MiB at the ≈ 128-request batches of a saturated server,
/// kept per worker across batches (`peak_rss_mb` on `serve_large_scan` does
/// not resolve it), streaming through L2 beside the tile: the kernel writes it
/// whole, then selection reads it user by user. The int8 path scores, poisons
/// and selects one user at a time in one L1-resident tile's worth.
const TILE_BYTES: usize = 256 * 1024;

/// Catalogue rows per tile for `cols`-wide item rows: [`TILE_BYTES`] worth,
/// rounded down to a multiple of the kernels' four-candidate block (so a tile
/// boundary never moves a row between the block and the tail reduction, and
/// every score stays bitwise what one whole-catalogue pass computes), and at
/// least one block.
pub(crate) fn tile_rows(cols: usize) -> usize {
    (TILE_BYTES / (cols.max(1) * std::mem::size_of::<f32>()) / 4).max(1) * 4
}

/// Selection stride: once a heap is full, this many scores are tested against
/// its bar at once and skipped together when none clears it.
const SKIP_BLOCK: usize = 16;

/// What the engine serves for one domain beside the scorer's two embedding
/// tables. The domain's catalogue is its item table: every row `0..n` of it
/// is a candidate, so its size is the table's row count.
struct DomainState {
    /// Known (training-time) interactions, used to filter items the user
    /// already has. Cold-start users have none in their target domain by
    /// construction. Backed by a materialised graph or, on a zero-copy v2
    /// load, by mapped CSR sections (see [`crate::seen`]).
    seen: SeenFilter,
    /// Int8 mirror of the item table, present whenever int8 scoring has been
    /// enabled (and kept coherent by delta ingest from then on).
    quant_items: Option<QuantizedTable>,
}

/// The one snapshot of everything requests read: immutable and thread-shared
/// while a batch runs, patched in place under `&mut` between batches.
struct ServeCore {
    scorer: EmbeddingScorer,
    /// Per-domain serving state, indexed by `DomainId as usize`.
    domains: [DomainState; 2],
    /// User indices below this bound name the *same person* in both
    /// domains (the scenario's shared overlap prefix); at or above it, the
    /// same index in the two user tables refers to unrelated domain-only
    /// users. Cross-domain seen-item filtering only applies inside the
    /// prefix — otherwise a source user's recommendations would silently
    /// drop a *stranger's* target-domain items (and a delta-appended cold
    /// user would alias whichever target user shares their index).
    shared_user_prefix: usize,
    /// Which numeric path the catalogue scan scores through.
    precision: ScoringPrecision,
    /// Tombstone sets accumulated by retraction deltas: erased users (rows
    /// zeroed in the encoder) and delisted items (kept in the catalogue so
    /// served ids stay stable, but excluded from every top-K — the f32 and
    /// int8 paths both poison their score slots, exactly like seen items).
    /// Persisted by compaction and reinstalled by every container load.
    lifecycle: Lifecycle,
}

/// One admitted request of the batch a worker is answering.
struct Live {
    /// Its position in the batch (`requests`, `responses`, the scratch heaps).
    slot: usize,
    /// Its user, indexed in the source domain.
    user: u32,
    /// How far into its (sorted) seen list the tiles scanned so far reach.
    seen_cursor: usize,
    /// Scale and integer self-dot of its quantised user codes (int8 only).
    quant: (f32, i32),
}

/// Reusable per-worker buffers: one score block (a tile's scores for a whole
/// group), the admitted requests of the current batch per target domain with
/// their f32 user rows back to back, and — per batch slot — a bounded heap
/// and the quantised user codes of the int8 path.
#[derive(Default)]
struct WorkerScratch {
    scores: Vec<f32>,
    live: [Vec<Live>; 2],
    users: [Vec<f32>; 2],
    topks: Vec<TopK>,
    user_q: Vec<u8>,
}

/// Why log replay was abandoned: the typed reason, and whether replay had
/// already applied records to the engine's graphs (forcing a rebuild from the
/// bare base — the served tables are only ever written by a replay that
/// succeeds, but the graphs are mutated record by record).
struct ReplayAbort {
    error: WalError,
    mutated: bool,
}

/// A warm, thread-capable top-K recommendation engine.
pub struct Recommender {
    core: ServeCore,
    /// One scratch per batch worker (a single entry without `parallel`).
    scratches: Vec<WorkerScratch>,
    /// The frozen encoder (with its incremental caches), when the engine was
    /// built for online updates ([`Recommender::from_inference_online`]).
    updater: Option<Box<OnlineUpdater>>,
    /// The write-ahead log plus compaction state, when the engine was
    /// opened durably ([`Recommender::recover`]).
    durable: Option<Box<DurableLog>>,
    /// Monotone count of deltas applied since construction: bumped by every
    /// live delta, advanced by the number of records a log replay applied.
    epoch: u64,
    /// Reusable per-request outcome storage of [`Recommender::recommend_batch`].
    outcomes: Vec<Result<()>>,
}

impl ServeCore {
    /// A fresh f32-precision snapshot with no tombstones.
    fn new(scorer: EmbeddingScorer, domains: [DomainState; 2], shared_user_prefix: usize) -> Self {
        ServeCore {
            scorer,
            domains,
            shared_user_prefix,
            precision: ScoringPrecision::F32,
            lifecycle: Lifecycle::default(),
        }
    }

    fn domain(&self, domain: DomainId) -> &DomainState {
        &self.domains[domain as usize]
    }

    /// The target-domain items to filter for a *source-indexed* user: their
    /// own history when the index lies in the shared overlap prefix (same
    /// person in both domains), nothing otherwise — a source-only or
    /// delta-appended user has no target history, and whatever target user
    /// happens to share their index is a stranger.
    fn cross_domain_seen(&self, target: DomainId, user: u32) -> &[u32] {
        let seen = &self.domain(target).seen;
        if (user as usize) < self.shared_user_prefix && (user as usize) < seen.n_users() {
            seen.items_of(user as usize)
        } else {
            &[]
        }
    }

    /// Validates a request and returns the size of the catalogue it is
    /// scored against. The user is indexed in the *source* domain.
    fn admit(&self, request: &Request) -> Result<usize> {
        let Request { direction, user, .. } = *request;
        let bound = self.scorer.user_table(direction.source).rows();
        if user as usize >= bound {
            return Err(ServeError::UserOutOfRange { user, bound });
        }
        match self.scorer.item_table(direction.target).rows() {
            0 => Err(ServeError::EmptyCatalogue),
            n_items => Ok(n_items),
        }
    }

    /// Answers a batch — the one catalogue scan behind every read path.
    ///
    /// Each request is resolved first: a rejected one gets its typed error in
    /// `outcomes` (the caller pre-fills `Ok`) and a cleared response, and
    /// drops out. The rest are grouped by target domain and scanned
    /// tile-major ([`ServeCore::scan_group`]).
    fn recommend_tiled(
        &self,
        scratch: &mut WorkerScratch,
        requests: &[Request],
        responses: &mut [Vec<Recommendation>],
        outcomes: &mut [Result<()>],
    ) {
        let WorkerScratch {
            scores,
            live,
            users,
            topks,
            user_q,
        } = scratch;
        if topks.len() < requests.len() {
            topks.resize_with(requests.len(), TopK::default);
        }
        let dim = self.scorer.x_users.cols();
        if self.precision == ScoringPrecision::Int8 && user_q.len() < requests.len() * dim {
            user_q.resize(requests.len() * dim, 0);
        }
        live.iter_mut().for_each(Vec::clear);
        users.iter_mut().for_each(Vec::clear);
        for (slot, request) in requests.iter().enumerate() {
            let n_items = match self.admit(request) {
                Ok(n_items) => n_items,
                Err(e) => {
                    // A failed request must not leak the previous batch's
                    // list through its slot.
                    responses[slot].clear();
                    outcomes[slot] = Err(e);
                    continue;
                }
            };
            // At most `n_items` candidates can be retained, so an oversized
            // `k` must not reserve beyond that.
            topks[slot].reset(request.k.min(n_items));
            // The user row joins its group's rows for the f32 kernel; at int8
            // precision it is quantised once per request into its slot of the
            // code buffer instead, and every tile runs the integer kernels
            // against the quantised item table.
            let Request { direction, user, .. } = *request;
            let row = self.scorer.user_table(direction.source).row(user as usize);
            let quant = match self.precision {
                ScoringPrecision::F32 => {
                    users[direction.target as usize].extend_from_slice(row);
                    (0.0, 0)
                }
                ScoringPrecision::Int8 => quantize_user_into(row, &mut user_q[slot * dim..(slot + 1) * dim]),
            };
            live[direction.target as usize].push(Live {
                slot,
                user,
                seen_cursor: 0,
                quant,
            });
        }
        for target in [DomainId::X, DomainId::Y] {
            let group = &mut live[target as usize];
            if !group.is_empty() {
                self.scan_group(target, group, &users[target as usize], topks, scores, user_q);
                for l in group.iter() {
                    topks[l.slot].drain_sorted_into(&mut responses[l.slot]);
                }
            }
        }
    }

    /// Scans `target`'s catalogue once for every request of `group`, tile by
    /// tile: at f32 one kernel call scores a tile for the whole group (`users`,
    /// its rows back to back; each table row loaded once for all of them), at
    /// int8 each user is scored in turn; each user's scores have their seen
    /// and delisted slots poisoned and are offered to the user's own heap.
    fn scan_group(
        &self,
        target: DomainId,
        group: &mut [Live],
        users: &[f32],
        topks: &mut [TopK],
        scores: &mut Vec<f32>,
        user_q: &[u8],
    ) {
        let items = self.scorer.item_table(target);
        let (n_items, cols) = items.shape();
        let quant_items = (self.precision == ScoringPrecision::Int8).then(|| {
            let table = self.domain(target).quant_items.as_ref();
            table
                .expect("int8 precision always carries quantised item tables")
                .view()
        });
        let tile = tile_rows(cols).min(n_items);
        let block = quant_items.map_or(group.len(), |_| 1) * tile;
        scores.resize(scores.len().max(block), 0.0);
        // The catalogue is the ascending run 0..n and every exclusion list is
        // sorted, so a tile's poisoned slots are found by merging: a cursor
        // per request over its seen list, and the delisted items — tombstoned
        // catalogue slots, excluded for every user — split off tile by tile.
        let mut delisted = self.lifecycle.delisted(target);
        for first in (0..n_items).step_by(tile) {
            let len = tile.min(n_items - first);
            let end = (first + len) as u32;
            let tile_delisted;
            (tile_delisted, delisted) = delisted.split_at(delisted.partition_point(|&d| d < end));
            if quant_items.is_none() {
                let (table, scores) = (items.as_slice(), &mut scores[..group.len() * len]);
                match self.scorer.kind {
                    ScoreKind::Dot => kernels::score_rows_dot(cols, users, table, first, len, scores),
                    ScoreKind::NegativeDistance => {
                        kernels::score_rows_neg_sq_dist(cols, users, table, first, len, scores)
                    }
                }
            }
            for (u, l) in group.iter_mut().enumerate() {
                let scores = match quant_items {
                    None => &mut scores[u * len..(u + 1) * len],
                    Some(view) => {
                        let scores = &mut scores[..len];
                        let qu = QuantUser {
                            q: &user_q[l.slot * cols..(l.slot + 1) * cols],
                            scale: l.quant.0,
                            norm: l.quant.1,
                        };
                        match self.scorer.kind {
                            ScoreKind::Dot => kernels::score_rows_quant_dot(view, qu, first, len, scores),
                            ScoreKind::NegativeDistance => {
                                kernels::score_rows_quant_neg_sq_dist(view, qu, first, len, scores)
                            }
                        }
                        scores
                    }
                };
                // Excluded items get their score slot poisoned to NaN:
                // selection skips NaN (it cannot participate in the total
                // order), which fuses the seen filter, the tombstones and
                // the NaN guard into one test.
                let seen = self.cross_domain_seen(target, l.user);
                while l.seen_cursor < seen.len() && seen[l.seen_cursor] < end {
                    scores[seen[l.seen_cursor] as usize - first] = f32::NAN;
                    l.seen_cursor += 1;
                }
                for &d in tile_delisted {
                    scores[d as usize - first] = f32::NAN;
                }
                select_tile(&mut topks[l.slot], scores, first as u32);
            }
        }
    }

    /// Full-sort reference selection: scores the whole catalogue, filters,
    /// sorts under the same total order, truncates. `O(|V| log |V|)` and
    /// allocating — the correctness baseline the heap path must match
    /// exactly, not a serving path.
    fn recommend_full_sort(&self, request: &Request) -> Result<Vec<Recommendation>> {
        let Request { direction, user, k } = *request;
        let catalogue: Vec<u32> = (0..self.admit(request)? as u32).collect();
        let seen = self.cross_domain_seen(direction.target, user);
        let delisted = self.lifecycle.delisted(direction.target);
        let mut scores = vec![0.0f32; catalogue.len()];
        self.scorer
            .score_cross_into(direction.source, user, direction.target, &catalogue, &mut scores);
        let mut ranked: Vec<(f32, u32)> = catalogue
            .iter()
            .zip(scores.iter())
            .filter(|&(&item, &score)| {
                !score.is_nan() && seen.binary_search(&item).is_err() && delisted.binary_search(&item).is_err()
            })
            .map(|(&item, &score)| (score, item))
            .collect();
        ranked.sort_by(|a, b| {
            if ranks_above(*a, *b) {
                std::cmp::Ordering::Less
            } else if ranks_above(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        ranked.truncate(k);
        Ok(ranked
            .into_iter()
            .map(|(score, item)| Recommendation { item, score })
            .collect())
    }
}

impl Recommender {
    /// Builds a recommender from frozen embedding tables plus the per-domain
    /// interaction graphs used for seen-item filtering (typically the
    /// scenario's *training* graphs — what the system has observed).
    pub fn new(scorer: EmbeddingScorer, seen_x: BipartiteGraph, seen_y: BipartiteGraph) -> Result<Self> {
        let dim = scorer.x_users.cols();
        // The four tables as `(name, table, graph row count)`: every shape is
        // checked before the first (full-table) finiteness scan.
        let tables = [(DomainId::X, &seen_x), (DomainId::Y, &seen_y)].map(|(domain, graph)| {
            let [users, items] = TABLE_NAMES[domain as usize];
            [
                (users, scorer.user_table(domain), graph.n_users()),
                (items, scorer.item_table(domain), graph.n_items()),
            ]
        });
        for (name, table, graph_rows) in tables.iter().flatten() {
            let (rows, cols) = table.shape();
            if rows != *graph_rows {
                return Err(ServeError::ShapeMismatch {
                    detail: format!("table `{name}` has {rows} rows but the interaction graph has {graph_rows}"),
                });
            }
            if cols != dim {
                return Err(ServeError::ShapeMismatch {
                    detail: format!("table `{name}` has embedding width {cols}, expected {dim}"),
                });
            }
        }
        for (name, table, _) in tables.iter().flatten() {
            if !table.all_finite() {
                return Err(ServeError::NonFiniteEmbeddings { table: name });
            }
        }
        let domains = [seen_x, seen_y].map(|graph| DomainState {
            seen: SeenFilter::from_graph(graph),
            quant_items: None,
        });
        // Bare-table construction has no scenario to name the overlap
        // prefix; default to "every common index is the same person"
        // (single-id-space deployments). Scenario constructors narrow it to
        // `n_overlap_total`.
        Ok(Recommender::with_core(ServeCore::new(scorer, domains, usize::MAX)))
    }

    /// Wraps a finished core with warm per-worker scratches — the shared
    /// tail of every construction path.
    fn with_core(core: ServeCore) -> Self {
        let workers = cdrib_tensor::kernels::parallelism().max(1);
        let mut scratches = Vec::with_capacity(workers);
        scratches.resize_with(workers, WorkerScratch::default);
        Recommender {
            core,
            scratches,
            updater: None,
            durable: None,
            epoch: 0,
            outcomes: Vec::new(),
        }
    }

    /// The bound below which user indices are treated as the same person in
    /// both domains (cross-domain seen-item filtering applies only there).
    pub fn shared_user_prefix(&self) -> usize {
        self.core.shared_user_prefix
    }

    /// Sets the shared-identity prefix (the scenario's overlap user count).
    /// Scenario-based constructors set this automatically.
    pub fn set_shared_user_prefix(&mut self, prefix: usize) {
        self.core.shared_user_prefix = prefix;
    }

    /// Builds a recommender from frozen CDRIB embeddings and the scenario
    /// whose training graphs define what each user has already seen (and
    /// whose overlap count bounds cross-domain identity).
    pub fn from_embeddings(embeddings: CdribEmbeddings, scenario: &CdrScenario) -> Result<Self> {
        let mut rec = Recommender::new(
            embeddings.into_scorer(),
            scenario.x.train.clone(),
            scenario.y.train.clone(),
        )?;
        rec.set_shared_user_prefix(scenario.n_overlap_total);
        Ok(rec)
    }

    /// Builds a **delta-capable** recommender: takes ownership of the frozen
    /// encoder, enables its incremental stage caches, and serves from its
    /// cached tables. Unlike [`Recommender::from_embeddings`], the returned
    /// engine can ingest [`GraphDelta`]s through
    /// [`Recommender::apply_delta`] — new cold-start users become
    /// recommendable without re-freezing or reloading the artifact.
    pub fn from_inference_online(mut inference: InferenceModel, scenario: &CdrScenario) -> Result<Self> {
        inference.enable_incremental()?;
        // The stage caches already hold the full forward's tables (bitwise
        // equal to `embeddings()` — same kernels, same order), so the
        // serving copies are four memcpys, not a second encoder pass.
        let embeddings = CdribEmbeddings {
            x_users: inference.cached_user_table(DomainId::X)?.clone(),
            x_items: inference.cached_item_table(DomainId::X)?.clone(),
            y_users: inference.cached_user_table(DomainId::Y)?.clone(),
            y_items: inference.cached_item_table(DomainId::Y)?.clone(),
        };
        let mut rec = Recommender::from_embeddings(embeddings, scenario)?;
        rec.updater = Some(Box::new(OnlineUpdater::new(inference)));
        Ok(rec)
    }

    /// Loads a CDRIB model artifact and builds a delta-capable recommender
    /// (see [`Recommender::from_inference_online`]). The image is copied
    /// once into an aligned region; a serve v2 image opens too, as
    /// [`Recommender::from_serve_v2_file_online`] describes.
    pub fn from_artifact_bytes_online(bytes: &[u8]) -> Result<Self> {
        Ok(Recommender::open_online(mmap::from_bytes(bytes))?.0)
    }

    /// Loads a CDRIB model artifact (see `cdrib_core::artifact`) and builds
    /// a recommender from its frozen encoder output.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self> {
        let (mut inference, scenario) = InferenceModel::from_artifact_bytes(bytes)?;
        Recommender::from_embeddings(inference.embeddings()?, &scenario)
    }

    /// Loads a CDRIB model artifact file and builds a recommender.
    pub fn from_artifact_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let (mut inference, scenario) = InferenceModel::from_artifact_file(path)?;
        Recommender::from_embeddings(inference.embeddings()?, &scenario)
    }

    /// Opens a serve v2 container ([`cdrib_core::save_serve_v2_file`]) and
    /// serves **zero-copy**: the four embedding tables, the seen-item CSRs
    /// and the optional int8 mirrors are borrowed views into
    /// one memory-mapped region. Load cost is header + checksum validation,
    /// not a decode, and N processes mapping the same artifact share one
    /// page cache. With `CDRIB_NO_MMAP=1` (or on non-unix targets) the file
    /// is read into one aligned heap buffer of the same layout instead;
    /// serving behaviour is identical either way. A container that
    /// compaction wrote also reinstalls its tombstones.
    pub fn from_serve_v2_file(path: impl AsRef<Path>) -> Result<Self> {
        let region = mmap::map_file(path.as_ref()).map_err(|e| ServeError::Artifact(ArtifactError::Io(e)))?;
        Ok(Recommender::from_serve_v2_reader(&Recommender::open_serve_v2(region)?)?.0)
    }

    /// [`Recommender::from_serve_v2_file`] over an in-memory image: the
    /// bytes are copied once into an aligned region, then every table
    /// borrows from it exactly as the mapped path does.
    pub fn from_serve_v2_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(Recommender::from_serve_v2_reader(&Recommender::open_serve_v2(mmap::from_bytes(bytes))?)?.0)
    }

    /// Opens a serve v2 container zero-copy **and** delta-capable: the
    /// embedded model artifact ([`cdrib_core::SERVE_FLAG_MODEL`]) rebuilds
    /// the frozen encoder so the engine can ingest [`GraphDelta`]s. Clean
    /// tables keep serving straight from the map; a table a delta touches
    /// goes owned on its first patch (copy-on-write, see [`crate::delta`]).
    /// A v1 model artifact file opens too, decoded.
    pub fn from_serve_v2_file_online(path: impl AsRef<Path>) -> Result<Self> {
        let region = mmap::map_file(path.as_ref()).map_err(|e| ServeError::Artifact(ArtifactError::Io(e)))?;
        Ok(Recommender::open_online(region)?.0)
    }

    /// The one delta-capable open of a durable base, over one region; it
    /// returns the engine, the base's fold point, and the frozen model bytes
    /// (borrowed from the region) that compaction embeds again.
    ///
    /// A v1 model artifact is decoded and serves its scenario's training
    /// graphs (fold point 0). A serve v2 container serves its tables, seen
    /// CSRs and int8 mirrors off the region, validated once; its embedded
    /// model is decoded in place and rebound to the container's graphs —
    /// extended to their entity counts, erased users' rows zeroed again
    /// (the model bytes predate every erasure), adjacency rebuilt — before
    /// the one full forward. The delta-parity guarantee makes that encoder
    /// bitwise the one whose tables the container holds, so a compacted
    /// container resumes exactly where its engine stood.
    fn open_online(region: Arc<MappedRegion>) -> Result<(Self, u64, TableStorage<u8>)> {
        if !v2::is_v2(region.as_bytes()) {
            let model = TableStorage::mapped(Arc::clone(&region), 0, region.len())?;
            let (inference, scenario) = InferenceModel::from_artifact_bytes(&model)?;
            return Ok((Recommender::from_inference_online(inference, &scenario)?, 0, model));
        }
        let reader = Recommender::open_serve_v2(region)?;
        let (mut rec, applied_seq) = Recommender::from_serve_v2_reader(&reader)?;
        let model = reader.storage::<u8>("model")?;
        let (mut inference, _scenario) = InferenceModel::from_artifact_bytes(&model)?;
        for domain in [DomainId::X, DomainId::Y] {
            let seen = &rec.core.domain(domain).seen;
            inference.extend_entities(domain, seen.n_users(), seen.n_items())?;
            inference.erase_user_rows(domain, rec.core.lifecycle.erased(domain))?;
            inference.rebind_graph(domain, seen.graph())?;
        }
        inference.enable_incremental()?;
        // The mapped tables keep serving while the encoder re-encodes
        // delta-dirty rows, so container and embedded model must agree on
        // every table's shape (the embedding width above all).
        for domain in [DomainId::X, DomainId::Y] {
            // `(user table shape, item table shape)`, each `(rows, cols)`.
            let (scorer, enc) = (&rec.core.scorer, &inference);
            let served = (scorer.user_table(domain).shape(), scorer.item_table(domain).shape());
            let cached = (
                enc.cached_user_table(domain)?.shape(),
                enc.cached_item_table(domain)?.shape(),
            );
            if cached != served {
                return Err(ServeError::ShapeMismatch {
                    detail: format!(
                        "embedded model (users, items) table shapes {cached:?} disagree with the container's domain {domain:?} sections {served:?}"
                    ),
                });
            }
        }
        rec.updater = Some(Box::new(OnlineUpdater::new(inference)));
        Ok((rec, applied_seq, model))
    }

    fn open_serve_v2(region: Arc<MappedRegion>) -> Result<v2::Reader> {
        v2::Reader::open(region, cdrib_core::SERVE_KIND, cdrib_core::SERVE_VERSION).map_err(ServeError::Artifact)
    }

    /// Validates a serve v2 container against its `meta` section and
    /// assembles a serving core whose tables borrow the region, returning it
    /// with the container's fold point (0 unless compaction wrote it). O(1)
    /// allocations regardless of table sizes (`tests/alloc_regression.rs`).
    fn from_serve_v2_reader(reader: &v2::Reader) -> Result<(Self, u64)> {
        let shape_err = |detail: String| ServeError::ShapeMismatch { detail };
        let meta: TableStorage<u64> = reader.storage("meta")?;
        if meta.len() != cdrib_core::SERVE_META_FIELDS {
            return Err(shape_err(format!(
                "serve meta holds {} fields, expected {}",
                meta.len(),
                cdrib_core::SERVE_META_FIELDS
            )));
        }
        let dim = meta[0] as usize;
        let (xu_rows, xi_rows) = (meta[1] as usize, meta[2] as usize);
        let (yu_rows, yi_rows) = (meta[3] as usize, meta[4] as usize);
        let (sx_edges, sy_edges) = (meta[5] as usize, meta[6] as usize);
        let shared_user_prefix = meta[7] as usize;
        if meta[8] != 0 {
            return Err(shape_err(format!(
                "unknown score kind {} (only dot = 0 is defined)",
                meta[8]
            )));
        }
        let flags = meta[9];

        let table = |name: &str, label: &'static str, rows: usize| -> Result<Tensor> {
            let storage: TableStorage<f32> = reader.storage(name)?;
            let tensor =
                Tensor::from_storage(rows, dim, storage).map_err(|e| shape_err(format!("section `{name}`: {e}")))?;
            if !tensor.all_finite() {
                return Err(ServeError::NonFiniteEmbeddings { table: label });
            }
            Ok(tensor)
        };
        let x_users = table("xu", "x_users", xu_rows)?;
        let x_items = table("xi", "x_items", xi_rows)?;
        let y_users = table("yu", "y_users", yu_rows)?;
        let y_items = table("yi", "y_items", yi_rows)?;

        let seen = |off: &str, itm: &str, n_users: usize, n_items: usize, edges: usize| -> Result<SeenFilter> {
            let filter = SeenFilter::from_csr(reader.storage(off)?, reader.storage(itm)?, n_items)?;
            if filter.n_users() != n_users || filter.n_edges() != edges {
                return Err(shape_err(format!(
                    "seen CSR `{off}`/`{itm}` holds {} users / {} edges, meta says {n_users} / {edges}",
                    filter.n_users(),
                    filter.n_edges()
                )));
            }
            Ok(filter)
        };

        let quant = |prefix: &'static str, rows: usize| -> Result<Option<QuantizedTable>> {
            if flags & cdrib_core::SERVE_FLAG_QUANT == 0 {
                return Ok(None);
            }
            QuantizedTable::from_storage_parts(
                rows,
                dim,
                reader.storage(&format!("{prefix}_d"))?,
                reader.storage(&format!("{prefix}_s"))?,
                reader.storage(&format!("{prefix}_u"))?,
                reader.storage(&format!("{prefix}_n"))?,
            )
            .map(Some)
            .map_err(|error| ServeError::InvalidQuantMirror { prefix, error })
        };

        let domains = [
            DomainState {
                seen: seen("sx_off", "sx_itm", xu_rows, xi_rows, sx_edges)?,
                quant_items: quant("qx", xi_rows)?,
            },
            DomainState {
                seen: seen("sy_off", "sy_itm", yu_rows, yi_rows, sy_edges)?,
                quant_items: quant("qy", yi_rows)?,
            },
        ];
        // A compacted container's fold point and tombstone sets. Every list
        // must be a sorted id set inside its table: the scan merges the
        // delisted slots tile by tile.
        let (mut applied_seq, mut lifecycle) = (0, Lifecycle::default());
        if reader.has("fold") {
            let fold: TableStorage<u64> = reader.storage("fold")?;
            if fold.len() != 1 {
                return Err(shape_err(format!(
                    "fold section holds {} fields, expected 1",
                    fold.len()
                )));
            }
            applied_seq = fold[0];
            let ids = |name: &str, bound: usize| -> Result<Vec<u32>> {
                let ids: TableStorage<u32> = reader.storage(name)?;
                if ids.windows(2).any(|w| w[1] <= w[0]) || ids.last().is_some_and(|&id| id as usize >= bound) {
                    return Err(shape_err(format!(
                        "tombstone section `{name}` is not a sorted id set below {bound}"
                    )));
                }
                Ok(ids.to_vec())
            };
            lifecycle = Lifecycle {
                erased_x: ids("ex", xu_rows)?,
                delisted_x: ids("dx", xi_rows)?,
                erased_y: ids("ey", yu_rows)?,
                delisted_y: ids("dy", yi_rows)?,
            };
        }
        let scorer = EmbeddingScorer::dot(x_users, x_items, y_users, y_items);
        let mut core = ServeCore::new(scorer, domains, shared_user_prefix);
        core.lifecycle = lifecycle;
        Ok((Recommender::with_core(core), applied_seq))
    }

    /// Opens a **durable** delta-capable engine: loads the base artifact at
    /// `base` (a frozen model artifact, or a serve v2 container — a fresh
    /// freeze or the one a previous [`Recommender::compact`] wrote over it),
    /// replays the write-ahead log at `log` on top of it, and attaches the
    /// log so every subsequently accepted delta is persisted before it is
    /// applied. The base is mapped once; a serve container is checksummed
    /// once and keeps serving off the map.
    ///
    /// Recovery reconstructs the exact pre-crash state — bitwise on all
    /// four tables, exactly-equal top-K — for the longest valid log prefix,
    /// and degrades gracefully instead of refusing to start (see
    /// [`crate::wal`] for the failure taxonomy): damaged tails are
    /// truncated into a `.quarantine` sidecar; a log that is unreadable or
    /// provably foreign to the base is quarantined wholesale and the engine
    /// starts from the bare base. The [`RecoveryReport`] states exactly
    /// what was replayed, skipped and dropped. A missing log file is the
    /// fresh-deployment case: one is created.
    ///
    /// Cost: the base load, plus one graph apply per logged record (O(log
    /// bytes) in total), plus **one** re-encode and **one** table patch per
    /// domain the log touches — replay applies many, then publishes once.
    /// Afterwards [`Recommender::epoch`] equals the number of records
    /// replayed, exactly as if each had been applied live.
    pub fn recover(base: impl AsRef<Path>, log: impl AsRef<Path>) -> Result<(Self, RecoveryReport)> {
        let base_path = base.as_ref().to_path_buf();
        let log_path = log.as_ref().to_path_buf();
        let region = mmap::map_file(&base_path).map_err(|e| ServeError::Artifact(ArtifactError::Io(e)))?;
        let (mut rec, applied_seq, model) = Recommender::open_online(Arc::clone(&region))?;
        let mut report = RecoveryReport {
            base_applied_seq: applied_seq,
            last_seq: applied_seq,
            ..RecoveryReport::default()
        };

        let wal = if log_path.exists() {
            match rec.replay_log(&log_path, applied_seq, &mut report) {
                Ok(wal) => wal,
                Err(ReplayAbort { error, mutated }) => {
                    // The log cannot be trusted at all: preserve it
                    // wholesale, rebuild the engine from the bare base if
                    // replay already mutated it, and start a fresh log.
                    let side = wal::quarantine_whole(&log_path)?;
                    report.dropped_bytes = std::fs::metadata(&side).map(|m| m.len()).unwrap_or(0);
                    report.quarantine = Some(side);
                    report.fallback = Some(error);
                    report.replayed = 0;
                    report.skipped = 0;
                    report.rows_reencoded = 0;
                    report.last_seq = applied_seq;
                    report.created_log = true;
                    if mutated {
                        rec = Recommender::open_online(region)?.0;
                    }
                    DeltaWal::create(&log_path, applied_seq + 1)?
                }
            }
        } else {
            report.created_log = true;
            DeltaWal::create(&log_path, applied_seq + 1)?
        };

        rec.durable = Some(Box::new(DurableLog {
            wal,
            base_path,
            log_path,
            model,
            applied_seq: report.last_seq,
            wedged: false,
        }));
        Ok((rec, report))
    }

    /// Scans and replays an existing log over `self` (already at the base
    /// state) as **one group**: every un-folded record is bounds-checked and
    /// applied to its domain's seen graph in log order, then each touched
    /// domain is re-encoded and published once
    /// ([`Recommender::graph_step`], [`Recommender::publish_step`] — the
    /// functions live ingest runs per delta). The served tables are written
    /// only after every record has been accepted and every dirty row has
    /// passed the finite check. Returns the opened log on success; on a
    /// log-level failure returns [`ReplayAbort`] and the caller falls back to
    /// the bare base (rebuilding the engine when replay already mutated it).
    fn replay_log(
        &mut self,
        log_path: &Path,
        applied_seq: u64,
        report: &mut RecoveryReport,
    ) -> std::result::Result<DeltaWal, ReplayAbort> {
        let untouched = |error: WalError| ReplayAbort { error, mutated: false };
        let bytes = std::fs::read(log_path).map_err(|e| untouched(WalError::Io(e)))?;
        let scan = wal::scan_bytes(&bytes).map_err(untouched)?;
        // The log must connect to the base's fold point: start no later
        // than the first un-folded record, and (even after tail damage)
        // reach it. A log failing either check belongs to a different base
        // — replaying it would fabricate state.
        let connects = scan.first_seq <= applied_seq + 1 && scan.next_seq() > applied_seq;
        if !connects {
            return Err(untouched(WalError::BaseLogMismatch {
                applied_seq,
                first_seq: scan.first_seq,
                records: scan.records.len(),
            }));
        }
        // Sequence numbers are contiguous, so the records the base already
        // folded are a prefix of the scan.
        let (folded, pending) = scan
            .records
            .split_at(scan.records.partition_point(|sr| sr.record.seq <= applied_seq));
        report.skipped = folded.len();
        // From here on a failure leaves the records applied to the graphs.
        let mutated = !pending.is_empty();
        let abort = |error: WalError| ReplayAbort { error, mutated };
        if let Some(last) = pending.last() {
            report.rows_reencoded = self.replay_records(pending).map_err(abort)?;
            report.replayed = pending.len();
            report.last_seq = last.record.seq;
        }
        if let Some(tail) = scan.tail {
            let side = wal::quarantine_tail(log_path, &bytes, tail.offset as usize).map_err(abort)?;
            report.dropped_bytes = bytes.len() as u64 - tail.offset;
            report.quarantine = Some(side);
            report.tail = Some(tail.error);
        }
        DeltaWal::open_end(log_path, report.last_seq + 1).map_err(abort)
    }

    /// Replays `records` (non-empty, in log order) over the engine: the graph
    /// step for all of them, then one publish step. Returns the number of
    /// embedding rows the publish re-encoded.
    ///
    /// A record the graph rejects — checksum-valid, but out of range for the
    /// graph as the records before it left it — means the log and the base
    /// disagree about the graph state; it is named in the error. A failure of
    /// the publish step (a re-encoded row came back non-finite) belongs to
    /// the group as a whole. Either way the caller abandons the log.
    fn replay_records(&mut self, records: &[ScannedRecord]) -> std::result::Result<usize, WalError> {
        let rejected = |seq: u64, detail: String| WalError::ReplayRejected { seq, detail };
        let deltas = records.iter().map(|sr| (sr.record.domain, &sr.record.delta));
        let touched = self
            .graph_step(deltas)
            .map_err(|(n, e)| rejected(records[n].record.seq, e.to_string()))?;
        let last = records.last().expect("replay_records is given at least one record");
        let reencoded = self.publish_step(touched).map_err(|e| {
            rejected(
                last.record.seq,
                format!(
                    "the grouped re-encode/publish of {} record(s) ending at this seq failed, no single record can be named: {e}",
                    records.len()
                ),
            )
        })?;
        self.epoch += records.len() as u64;
        Ok(reencoded.iter().map(|r| r.users_reencoded + r.items_reencoded).sum())
    }

    /// Folds the write-ahead log into a fresh base artifact and replaces
    /// the log with an empty one — both via atomic temp-file-then-rename,
    /// crash-safe at every step:
    ///
    /// 1. a serve v2 container ([`cdrib_core::write_serve_v2`]: the live
    ///    tables, seen graphs and int8 mirrors, the frozen model bytes, the
    ///    fold point and the tombstones) is written beside the base path
    ///    and renamed over it — a crash before or during this leaves the old
    ///    base + old log, a crash after leaves the new base + old log;
    /// 2. a fresh log is written beside the log path and renamed over it.
    ///
    /// Sequence numbers are global and never reset, and recovery skips
    /// records already folded into the base, so the new-base + old-log
    /// crash window recovers exactly: the stale records are skipped, the
    /// state is identical. The next boot serves the new base off the map.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        if self.updater.is_none() {
            return Err(ServeError::UpdaterMissing);
        }
        let d = self.durable.as_mut().ok_or(ServeError::DurabilityMissing)?;
        if d.wedged {
            return Err(ServeError::Wal(WalError::Desynced));
        }
        let applied_seq = d.applied_seq;
        let log_bytes_folded = std::fs::metadata(&d.log_path).map(|m| m.len()).unwrap_or(0);
        // A durable engine always scores by dot product: every base it opens
        // from is a CDRIB freeze.
        let ServeCore {
            scorer,
            domains: [x, y],
            shared_user_prefix,
            lifecycle,
            ..
        } = &self.core;
        let container = cdrib_core::write_serve_v2(&ServeParts {
            tables: [&scorer.x_users, &scorer.x_items, &scorer.y_users, &scorer.y_items],
            seen: [x.seen.graph(), y.seen.graph()],
            shared_user_prefix: *shared_user_prefix,
            quant: x
                .quant_items
                .as_ref()
                .zip(y.quant_items.as_ref())
                .map(|(qx, qy)| [qx, qy]),
            model: Some(&d.model),
            fold: Some(ServeFold {
                applied_seq,
                tombstones: [
                    &lifecycle.erased_x,
                    &lifecycle.delisted_x,
                    &lifecycle.erased_y,
                    &lifecycle.delisted_y,
                ],
            }),
        });
        wal::atomic_write(&d.base_path, &container)?;
        d.wal = DeltaWal::create_replacing(&d.log_path, applied_seq + 1)?;
        Ok(CompactionReport {
            applied_seq,
            checkpoint_bytes: container.len() as u64,
            log_bytes_folded,
        })
    }

    /// Whether this engine persists accepted deltas to a write-ahead log.
    pub fn durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Sequence number of the last delta both logged and applied, when the
    /// engine is durable.
    pub fn wal_applied_seq(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.applied_seq)
    }

    /// Flushes the write-ahead log to stable storage (`fdatasync`), so the
    /// appended records also survive an OS crash, not just a process crash.
    pub fn wal_sync(&self) -> Result<()> {
        let d = self.durable.as_ref().ok_or(ServeError::DurabilityMissing)?;
        Ok(d.wal.sync()?)
    }

    /// The numeric path requests are currently scored through.
    pub fn precision(&self) -> ScoringPrecision {
        self.core.precision
    }

    /// Switches the scoring path. Selecting [`ScoringPrecision::Int8`]
    /// quantises the item tables on first use (kept coherent by every later
    /// delta ingest); switching back to f32 keeps them warm for a cheap
    /// return trip.
    pub fn set_precision(&mut self, precision: ScoringPrecision) {
        if precision == ScoringPrecision::Int8 {
            let ServeCore { scorer, domains, .. } = &mut self.core;
            for domain in [DomainId::X, DomainId::Y] {
                let quant = &mut domains[domain as usize].quant_items;
                quant.get_or_insert_with(|| QuantizedTable::from_tensor(scorer.item_table(domain)));
            }
        }
        self.core.precision = precision;
    }

    /// The int8 mirror of a domain's item table, if int8 scoring has been
    /// enabled (or the engine was loaded from a container that ships one).
    pub fn quantized_items(&self, domain: DomainId) -> Option<&QuantizedTable> {
        self.core.domain(domain).quant_items.as_ref()
    }

    /// The frozen scorer backing this recommender.
    pub fn scorer(&self) -> &EmbeddingScorer {
        &self.core.scorer
    }

    /// Number of candidate items in a domain's catalogue: the rows of its
    /// item table.
    pub fn catalogue_size(&self, domain: DomainId) -> usize {
        self.core.scorer.item_table(domain).rows()
    }

    /// The interaction graph used to filter a domain's already-seen items.
    /// On a zero-copy engine the filter serves from mapped CSR sections and
    /// the graph is materialised (once) by this call.
    pub fn seen_graph(&self, domain: DomainId) -> &BipartiteGraph {
        self.core.domain(domain).seen.graph()
    }

    /// Whether the engine still serves from a mapped artifact region: true
    /// right after a serve v2 container load (or a recovery from one), false
    /// for decoded loads; individual tables migrate to owned storage as deltas
    /// touch them (copy-on-write).
    pub fn is_mapped(&self) -> bool {
        let scorer = &self.core.scorer;
        [DomainId::X, DomainId::Y]
            .into_iter()
            .any(|d| scorer.user_table(d).is_mapped() || scorer.item_table(d).is_mapped() || self.seen_is_mapped(d))
    }

    /// Whether a domain's seen-item filter still serves from the mapped CSR
    /// sections of a serve v2 container. The first delta addressed to the
    /// domain (live or replayed) materialises its graph and drops them; a
    /// domain no delta touches keeps the map.
    pub fn seen_is_mapped(&self, domain: DomainId) -> bool {
        self.core.domain(domain).seen.is_mapped()
    }

    /// The epoch of the currently published tables — the number of deltas
    /// applied since the base: 0 at construction, bumped by every applied
    /// delta, and equal to the number of records replayed right after
    /// [`Recommender::recover`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ingests a batch of new interactions for one domain **online**: the
    /// domain's seen-item graph absorbs the delta in place, the frozen
    /// encoder re-encodes only the entities whose propagated neighbourhood
    /// changed (`InferenceModel::apply_delta`), new items join the scored
    /// catalogue, and the served tables are validated, then patched in place
    /// (see [`crate::delta`]).
    ///
    /// After any delta sequence the engine's embeddings are **bitwise
    /// identical** to a recommender rebuilt from scratch on the post-delta
    /// graph, and its top-K lists are exactly equal under the
    /// `(score desc, item asc)` order — `tests/delta_parity.rs` pins both.
    /// Steady-state batches (no entity/edge growth) allocate nothing.
    ///
    /// Application is atomic: a rejected delta (out-of-range edge, missing
    /// updater) leaves graphs, tables and epoch untouched. If a re-encoded
    /// row comes back non-finite (pathological weights), **both** of the
    /// domain's tables stay unpublished — validation runs across the whole
    /// patch before the first write, so the served tables never straddle two
    /// epochs.
    ///
    /// On a durable engine ([`Recommender::recover`]) the delta is bounds-
    /// validated, appended to the write-ahead log, and only then applied —
    /// a crash at any point loses at most the in-flight record (whose torn
    /// bytes recovery quarantines), never an acknowledged one. The log-
    /// append failure mode leaves the engine untouched; the (practically
    /// unreachable) apply-after-append failure mode wedges durable ingest
    /// with a typed [`WalError::Desynced`] instead of letting the log and
    /// the live state drift apart silently.
    pub fn apply_delta(&mut self, domain: DomainId, delta: &GraphDelta) -> Result<DeltaOutcome> {
        if self.updater.is_none() {
            return Err(ServeError::UpdaterMissing);
        }
        let wal_seq = match self.durable.as_mut() {
            None => None,
            Some(d) => {
                if d.wedged {
                    return Err(ServeError::Wal(WalError::Desynced));
                }
                // Pre-validate against the exact acceptance predicate of the
                // graph apply, so the log only ever records deltas the graph
                // will accept — append-then-apply must not be able to fail
                // between the durable write and the graph mutation.
                let seen = &self.core.domain(domain).seen;
                delta.check_bounds(seen.n_users(), seen.n_items())?;
                Some(d.wal.append(domain, delta)?)
            }
        };
        let outcome = self.apply_delta_inner(domain, delta);
        if let Some(seq) = wal_seq {
            let d = self.durable.as_mut().expect("durable state checked above");
            match &outcome {
                Ok(_) => d.applied_seq = seq,
                // The record is durably logged but was not applied: the log
                // is ahead of the live state. Refuse further durable work
                // rather than desync silently.
                Err(_) => d.wedged = true,
            }
        }
        let mut outcome = outcome?;
        outcome.wal_seq = wal_seq;
        Ok(outcome)
    }

    /// The in-memory delta path of live ingest: the graph step and the
    /// publish step for a group of one delta.
    fn apply_delta_inner(&mut self, domain: DomainId, delta: &GraphDelta) -> Result<DeltaOutcome> {
        let touched = self.graph_step([(domain, delta)].into_iter()).map_err(|(_, e)| e)?;
        let reencoded = self.publish_step(touched)?[domain as usize];
        self.epoch += 1;
        let updater = self.updater.as_ref().ok_or(ServeError::UpdaterMissing)?;
        let effect = &updater.effects[domain as usize];
        Ok(DeltaOutcome {
            epoch: self.epoch,
            users_added: effect.users_added,
            items_added: effect.items_added,
            edges_added: effect.edges_added,
            duplicate_edges: effect.duplicate_edges,
            edges_removed: effect.edges_removed,
            missing_edges: effect.missing_edges,
            users_erased: effect.users_erased,
            items_delisted: effect.items_delisted,
            users_reencoded: reencoded.users_reencoded,
            items_reencoded: reencoded.items_reencoded,
            wal_seq: None,
        })
    }

    /// The graph step of the delta path: bounds-checks and applies `deltas`,
    /// in order, to their domains' seen graphs — one
    /// `cdrib_graph::DeltaGroup` per domain, so the per-delta work is
    /// O(delta) and each domain's receipt is normalised once — accumulating
    /// one receipt per domain in the updater for
    /// [`Recommender::publish_step`]. Returns which domains were addressed
    /// (indexed `DomainId as usize`).
    ///
    /// Each delta is checked against its graph as the deltas before it left
    /// it. The first rejected one stops the step with its position in
    /// `deltas`; it mutated nothing, the ones before it stay applied. Nothing
    /// the read path serves from — tables, mirrors, tombstones — is written
    /// here.
    fn graph_step<'d>(
        &mut self,
        deltas: impl Iterator<Item = (DomainId, &'d GraphDelta)> + Clone,
    ) -> std::result::Result<[bool; 2], (usize, ServeError)> {
        let updater = self.updater.as_mut().ok_or((0, ServeError::UpdaterMissing))?;
        let mut touched = [false; 2];
        for (domain, _) in deltas.clone() {
            touched[domain as usize] = true;
        }
        // Only an addressed domain opens a group: `graph_mut` is the
        // seen-filter's copy-on-write trigger (a mapped CSR filter
        // materialises its graph there and the graph is authoritative from
        // then on), so a domain no delta addresses keeps serving off the map.
        let [state_x, state_y] = &mut self.core.domains;
        let [effect_x, effect_y] = &mut updater.effects;
        let mut groups = [(state_x, effect_x, touched[0]), (state_y, effect_y, touched[1])]
            .map(|(state, effect, addressed)| addressed.then(|| state.seen.graph_mut().delta_group(effect)));
        for (n, (domain, delta)) in deltas.enumerate() {
            let group = groups[domain as usize]
                .as_mut()
                .expect("opened for every addressed domain");
            group.apply(delta).map_err(|e| (n, e.into()))?;
        }
        Ok(touched)
    }

    /// The publish step of the delta path, run once for everything the graph
    /// step applied: incremental re-encode of each touched domain from its
    /// accumulated receipt, then — only once every dirty row of every touched
    /// table has passed the finite check — table patch (new item rows join
    /// the catalogue with it), int8 re-quantise and tombstone merge. Returns
    /// what was re-encoded per domain.
    fn publish_step(&mut self, touched: [bool; 2]) -> Result<[DeltaReencode; 2]> {
        let updater = self.updater.as_mut().ok_or(ServeError::UpdaterMissing)?;
        let ServeCore {
            scorer,
            domains,
            lifecycle,
            ..
        } = &mut self.core;
        let touched_domains = || [DomainId::X, DomainId::Y].into_iter().filter(|&d| touched[d as usize]);
        let mut reencoded = [DeltaReencode::default(); 2];
        for domain in touched_domains() {
            let (seen, effect) = (domains[domain as usize].seen.graph(), &updater.effects[domain as usize]);
            reencoded[domain as usize] = updater.inference.apply_delta(domain, seen, effect)?;
        }
        let [state_x, state_y] = &mut *domains;
        updater.publish(
            scorer,
            [state_x.quant_items.as_mut(), state_y.quant_items.as_mut()],
            touched,
        )?;
        for domain in touched_domains() {
            // The tombstone sets only grow once the patch has published — a
            // group whose patch was rejected must not start excluding items
            // it never managed to apply.
            let effect = &updater.effects[domain as usize];
            merge_sorted(lifecycle.erased_mut(domain), &effect.erased_users);
            merge_sorted(lifecycle.delisted_mut(domain), &effect.delisted_items);
        }
        Ok(reencoded)
    }

    /// Sorted user ids erased (tombstoned) from a domain over the engine's
    /// lifetime — their embedding rows are zero and their neighbourhoods
    /// empty, but the indices stay valid request targets.
    pub fn erased_users(&self, domain: DomainId) -> &[u32] {
        self.core.lifecycle.erased(domain)
    }

    /// Sorted item ids delisted from a domain's catalogue — still occupying
    /// their slots (served ids stay stable) but excluded from every top-K.
    pub fn delisted_items(&self, domain: DomainId) -> &[u32] {
        self.core.lifecycle.delisted(domain)
    }

    /// Installs catalogue tombstones directly (sorted merge), exactly as a
    /// delisting delta would. This is the assembly hook for engines rebuilt
    /// from external state — e.g. a from-scratch reference that must agree
    /// with an incrementally updated engine on the excluded set.
    pub fn install_delisted_items(&mut self, domain: DomainId, items: &[u32]) {
        merge_sorted(self.core.lifecycle.delisted_mut(domain), items);
    }

    /// Answers one request into `out` (best first): the batch of one of the
    /// tile-major traversal every read path shares. Reuses the first worker
    /// scratch, so warm calls allocate nothing.
    pub fn recommend(&mut self, request: &Request, out: &mut Vec<Recommendation>) -> Result<()> {
        let mut outcome = Ok(());
        self.core.recommend_tiled(
            &mut self.scratches[0],
            std::slice::from_ref(request),
            std::slice::from_mut(out),
            std::slice::from_mut(&mut outcome),
        );
        outcome
    }

    /// Allocating convenience wrapper around [`Recommender::recommend`].
    pub fn recommend_vec(&mut self, request: &Request) -> Result<Vec<Recommendation>> {
        let mut out = Vec::new();
        self.recommend(request, &mut out)?;
        Ok(out)
    }

    /// Full-sort reference selection (parity baseline; see
    /// `ServeCore::recommend_full_sort`).
    pub fn recommend_full_sort(&self, request: &Request) -> Result<Vec<Recommendation>> {
        self.core.recommend_full_sort(request)
    }

    /// Answers a batch of requests, one response per request (best first).
    ///
    /// The batch shares one tile-major pass over each target domain's item
    /// table (every tile of rows is scored for all of the batch's users
    /// before the next is read), so its cost per request falls with its
    /// size; each list is bitwise what [`Recommender::recommend`] answers
    /// for that request alone. Behind the `parallel` feature the batch is
    /// split into contiguous sub-batches across `std::thread::scope`
    /// workers, each with its own warm scratch and its own pass; responses
    /// land in `responses[i]` for `requests[i]` either way, and the serial
    /// build produces identical output. `responses` is
    /// resized to match and its per-request `Vec`s are reused across
    /// batches. If any request is rejected, the error of the lowest-index
    /// one is returned (see [`Recommender::recommend_batch_outcomes`] for
    /// one outcome per request).
    pub fn recommend_batch(&mut self, requests: &[Request], responses: &mut Vec<Vec<Recommendation>>) -> Result<()> {
        // One fan-out serves both contracts: run the per-request-outcome
        // splitter over the engine's reusable outcome storage, then report
        // the lowest-index error (if any).
        let mut outcomes = std::mem::take(&mut self.outcomes);
        self.recommend_batch_outcomes(requests, responses, &mut outcomes, cdrib_tensor::kernels::parallelism());
        let first_error = outcomes.drain(..).find_map(Result::err);
        self.outcomes = outcomes;
        first_error.map_or(Ok(()), Err)
    }

    /// Answers a batch with one **typed outcome per request**: `outcomes[i]`
    /// is the result for `requests[i]`, and a rejected request leaves every
    /// other response intact instead of poisoning the whole batch the way
    /// [`Recommender::recommend_batch`]'s first-error contract does.
    ///
    /// This is the primitive the network front-end coalesces through: a
    /// cross-connection batch must not let one stale request — e.g. a user
    /// id that the catalogue-extending delta racing it has not yet published
    /// — fail a hundred strangers' requests. The rejected slot gets its
    /// typed error (never a panic, never a silently truncated list) and a
    /// cleared response; the race regression test in this file pins the
    /// retry-after-delta contract.
    ///
    /// `workers` caps the fan-out: it is clamped to the engine's warm
    /// scratch count (the process-wide parallelism at construction) and to
    /// the batch size, and without the `parallel` feature the batch always
    /// runs serially. Responses are identical at every worker count.
    ///
    /// `responses` and `outcomes` storage is reused across batches, and the
    /// per-request heaps, cursors and int8 user codes live in the worker
    /// scratches, sized by the largest batch seen: warm error-free batches
    /// allocate nothing, whatever their size.
    pub fn recommend_batch_outcomes(
        &mut self,
        requests: &[Request],
        responses: &mut Vec<Vec<Recommendation>>,
        outcomes: &mut Vec<Result<()>>,
        workers: usize,
    ) {
        if responses.len() != requests.len() {
            responses.resize_with(requests.len(), Vec::new);
        }
        outcomes.clear();
        outcomes.resize_with(requests.len(), || Ok(()));
        #[cfg(not(feature = "parallel"))]
        let _ = workers;
        #[cfg(feature = "parallel")]
        {
            let workers = workers.min(self.scratches.len()).min(requests.len());
            if workers > 1 {
                // At most `workers` contiguous chunks, one warm scratch each.
                let per_worker = requests.len().div_ceil(workers);
                let core = &self.core;
                let chunks = requests
                    .chunks(per_worker)
                    .zip(responses.chunks_mut(per_worker))
                    .zip(outcomes.chunks_mut(per_worker));
                std::thread::scope(|scope| {
                    for (((requests, responses), outcomes), scratch) in chunks.zip(self.scratches.iter_mut()) {
                        scope.spawn(move || core.recommend_tiled(scratch, requests, responses, outcomes));
                    }
                });
                return;
            }
        }
        self.core
            .recommend_tiled(&mut self.scratches[0], requests, responses, outcomes);
    }
}
