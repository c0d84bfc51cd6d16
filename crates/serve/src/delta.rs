//! Online delta ingestion for the serving engine.
//!
//! A [`Recommender`](crate::Recommender) built with
//! [`Recommender::from_inference_online`](crate::Recommender::from_inference_online)
//! owns the frozen encoder ([`InferenceModel`]) alongside the served tables
//! and can ingest [`GraphDelta`](cdrib_graph::GraphDelta)s in two steps. The
//! **graph step** applies deltas to the seen-item graphs and accumulates one
//! receipt per domain. The **publish step** then runs once per touched
//! domain: the encoder re-encodes only the affected entities, and the served
//! embedding tables are **validated, then patched in place** — every dirty
//! row of every touched table is checked finite before the first one is
//! written, then the dirty f32 rows overwrite the served ones and the same
//! item rows of the int8 mirror are re-quantised. Live ingest publishes after
//! every delta (a group of one); log replay applies every record, then
//! publishes once. O(dirty rows) per publish, no second copy of any table; a
//! table still served off a mapped artifact goes owned on its first patch
//! (`TableStorage`'s copy-on-write), untouched tables stay mapped.
//!
//! No reader can observe a half-patched table because none can run beside a
//! patch: `apply_delta` takes `&mut self`, the `thread::scope` workers of a
//! batch join before the batch returns, and the network front-end's one
//! coalescer thread applies deltas *between* batches. The engine's epoch
//! counts the deltas applied so far.

use crate::error::{Result, ServeError};
use cdrib_core::InferenceModel;
use cdrib_data::DomainId;
use cdrib_eval::EmbeddingScorer;
use cdrib_graph::DeltaEffect;
use cdrib_tensor::{QuantizedTable, Tensor};

/// Receipt of one [`Recommender::apply_delta`](crate::Recommender::apply_delta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The table epoch the delta published (monotonically increasing).
    pub epoch: u64,
    /// Users appended to the domain.
    pub users_added: usize,
    /// Items appended to the domain (they join the scored catalogue
    /// immediately).
    pub items_added: usize,
    /// Edges inserted into the seen-item graph.
    pub edges_added: usize,
    /// Edges skipped as duplicates.
    pub duplicate_edges: usize,
    /// Edges retracted from the seen-item graph (explicit removals plus
    /// edges dropped by erasures and delistings).
    pub edges_removed: usize,
    /// Removal requests naming an interaction not present — counted no-ops.
    pub missing_edges: usize,
    /// Users erased (tombstoned with zeroed embedding rows).
    pub users_erased: usize,
    /// Items delisted (tombstoned catalogue slots excluded from top-K).
    pub items_delisted: usize,
    /// User embedding rows re-encoded and patched.
    pub users_reencoded: usize,
    /// Item embedding rows re-encoded and patched.
    pub items_reencoded: usize,
    /// Sequence number the delta was durably logged under, when the engine
    /// carries a write-ahead log (see [`crate::wal`]); `None` for
    /// memory-only engines.
    pub wal_seq: Option<u64>,
}

/// The updater a delta-capable recommender carries: the frozen encoder with
/// its incremental caches, and reusable receipt storage.
pub(crate) struct OnlineUpdater {
    pub(crate) inference: InferenceModel,
    /// Per-domain receipts of the graph step (indexed `DomainId as usize`),
    /// read by the publish step.
    pub(crate) effects: [DeltaEffect; 2],
}

/// Static table names per domain (`[users, items]`), matching
/// [`EmbeddingScorer`]'s field names.
pub(crate) const TABLE_NAMES: [[&str; 2]; 2] = [["x_users", "x_items"], ["y_users", "y_items"]];

/// What the encoder holds for one table after a re-encode: the full cached
/// table, and the rows that were re-encoded.
pub(crate) type Reencoded<'a> = (&'a Tensor, &'a [u32]);

/// One domain's share of a publish: the int8 mirror to keep coherent (when
/// the engine carries one) and what the encoder re-encoded.
pub(crate) struct DomainPatch<'a> {
    pub(crate) quant_items: Option<&'a mut QuantizedTable>,
    pub(crate) users: Reencoded<'a>,
    pub(crate) items: Reencoded<'a>,
}

impl OnlineUpdater {
    pub(crate) fn new(inference: InferenceModel) -> Self {
        OnlineUpdater {
            inference,
            effects: [DeltaEffect::new(), DeltaEffect::new()],
        }
    }

    /// Publishes the rows the encoder's last `apply_delta` re-encoded in each
    /// of the `touched` domains into the served tables (see
    /// [`patch_tables`]). `mirrors` are the domains' int8 item mirrors; both
    /// arrays are indexed `DomainId as usize`.
    pub(crate) fn publish(
        &self,
        scorer: &mut EmbeddingScorer,
        mirrors: [Option<&mut QuantizedTable>; 2],
        touched: [bool; 2],
    ) -> Result<()> {
        let enc = &self.inference;
        let mut patches = [None, None];
        for (domain, quant_items) in [DomainId::X, DomainId::Y].into_iter().zip(mirrors) {
            if touched[domain as usize] {
                patches[domain as usize] = Some(DomainPatch {
                    quant_items,
                    users: (enc.cached_user_table(domain)?, enc.last_dirty_users(domain)?),
                    items: (enc.cached_item_table(domain)?, enc.last_dirty_items(domain)?),
                });
            }
        }
        patch_tables(scorer, patches)
    }
}

/// Patches the served tables in place from the encoder's re-encoded rows;
/// `patches[d]` is domain `d`'s share (`DomainId as usize`), `None` when the
/// domain is untouched. **Every** table of every domain is validated before
/// the first write, so a rejected row leaves the served tables (and the int8
/// mirrors) exactly as they were — never with one table, or one domain, ahead
/// of the other. Warm calls (no row growth) are allocation-free.
pub(crate) fn patch_tables(scorer: &mut EmbeddingScorer, mut patches: [Option<DomainPatch<'_>>; 2]) -> Result<()> {
    for (names, patch) in TABLE_NAMES.iter().zip(&patches) {
        if let Some(patch) = patch {
            check_finite(names[0], patch.users.0, patch.users.1)?;
            check_finite(names[1], patch.items.0, patch.items.1)?;
        }
    }
    for (domain, patch) in [DomainId::X, DomainId::Y].into_iter().zip(&mut patches) {
        let Some(patch) = patch else { continue };
        let (served_users, served_items) = scorer.tables_mut(domain);
        copy_rows(served_users, patch.users);
        copy_rows(served_items, patch.items);
        // Exactly the dirty rows are re-quantised from their fresh f32
        // source, so the mirror stays a from-scratch quantisation of the
        // served table.
        if let Some(quant) = patch.quant_items.as_deref_mut() {
            let (fresh, dirty) = patch.items;
            quant.resize_rows(fresh.rows());
            for &r in dirty {
                quant.requantize_row(r as usize, fresh.row(r as usize));
            }
        }
    }
    Ok(())
}

/// Serving must never rank on garbage: rejects non-finite incoming rows
/// before anything is published (same invariant the constructor enforces).
fn check_finite(name: &'static str, src: &Tensor, dirty: &[u32]) -> Result<()> {
    for &r in dirty {
        if src.row(r as usize).iter().any(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteEmbeddings { table: name });
        }
    }
    Ok(())
}

/// Grows `served` to the encoder's row count (new entities) and overwrites
/// its dirty rows.
fn copy_rows(served: &mut Tensor, (fresh, dirty): Reencoded<'_>) {
    served.resize_rows(fresh.rows());
    for &r in dirty {
        served.row_mut(r as usize).copy_from_slice(fresh.row(r as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-row, two-column X-domain engine state: scorer plus the int8
    /// mirror of its item table.
    fn served() -> (EmbeddingScorer, QuantizedTable) {
        let users = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let items = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let quant = QuantizedTable::from_tensor(&items);
        (
            EmbeddingScorer::dot(users, items, Tensor::ones(1, 2), Tensor::ones(1, 2)),
            quant,
        )
    }

    fn rows<'a>(table: &'a Tensor, dirty: &'a [u32]) -> Reencoded<'a> {
        (table, dirty)
    }

    /// A publish that touches domain X only.
    fn x_only<'a>(
        quant_items: Option<&'a mut QuantizedTable>,
        users: Reencoded<'a>,
        items: Reencoded<'a>,
    ) -> [Option<DomainPatch<'a>>; 2] {
        let patch = DomainPatch {
            quant_items,
            users,
            items,
        };
        [Some(patch), None]
    }

    #[test]
    fn successive_deltas_patch_f32_rows_in_place_with_growth() {
        let (mut scorer, _) = served();
        // Delta 1: user row 1 changes and row 2 appears; item row 0 changes.
        let users1 = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let items1 = Tensor::from_vec(2, 2, vec![-5.0, -6.0, 0.0, 0.0]).unwrap();
        patch_tables(&mut scorer, x_only(None, rows(&users1, &[1, 2]), rows(&items1, &[0]))).unwrap();
        assert_eq!(scorer.x_users.rows(), 3);
        assert_eq!(scorer.x_users.row(0), &[1.0, 2.0]);
        assert_eq!(scorer.x_users.row(1), &[30.0, 40.0]);
        assert_eq!(scorer.x_users.row(2), &[50.0, 60.0]);
        assert_eq!(scorer.x_items.as_slice(), &[-5.0, -6.0, 7.0, 8.0]);
        // Delta 2: user row 0 changes, the item table grows by one row; every
        // row delta 1 wrote is still there (rows outside the dirty set of the
        // source are never read).
        let users2 = Tensor::from_vec(3, 2, vec![10.0, 20.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let items2 = Tensor::from_vec(3, 2, vec![0.0, 0.0, 0.0, 0.0, 9.0, 10.0]).unwrap();
        patch_tables(&mut scorer, x_only(None, rows(&users2, &[0]), rows(&items2, &[2]))).unwrap();
        assert_eq!(scorer.x_users.as_slice(), &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(scorer.x_items.as_slice(), &[-5.0, -6.0, 7.0, 8.0, 9.0, 10.0]);
        // The other domain's tables were never touched.
        assert_eq!(scorer.y_users, Tensor::ones(1, 2));
        assert_eq!(scorer.y_items, Tensor::ones(1, 2));
    }

    #[test]
    fn int8_mirror_tracks_the_served_item_table_exactly() {
        // Whatever sequence of deltas runs, the quant mirror must equal a
        // from-scratch quantisation of the post-delta f32 table.
        let (mut scorer, mut quant) = served();
        let users = scorer.x_users.clone();
        // Delta 1: item row 1 changes, row 2 appears.
        let items1 = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        patch_tables(
            &mut scorer,
            x_only(Some(&mut quant), rows(&users, &[]), rows(&items1, &[1, 2])),
        )
        .unwrap();
        assert_eq!(scorer.x_items.as_slice(), &[5.0, 6.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(quant, QuantizedTable::from_tensor(&scorer.x_items));
        // Delta 2: row 0 changes and row 3 appears; rows 1/2 must survive.
        let items2 = Tensor::from_vec(4, 2, vec![10.0, 20.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.5]).unwrap();
        patch_tables(
            &mut scorer,
            x_only(Some(&mut quant), rows(&users, &[]), rows(&items2, &[0, 3])),
        )
        .unwrap();
        assert_eq!(
            scorer.x_items.as_slice(),
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, -1.0, 0.5]
        );
        assert_eq!(quant, QuantizedTable::from_tensor(&scorer.x_items));
        assert!(quant.validate().is_ok());
    }

    #[test]
    fn a_rejected_patch_writes_nothing() {
        // Dirty user rows are finite, one dirty item row is NaN: the typed
        // error names the item table and *nothing* — not the user table that
        // validated first, not the mirror, not a row count — has changed.
        let (mut scorer, mut quant) = served();
        let (before, quant_before) = (scorer.clone(), quant.clone());
        let users = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let mut items = Tensor::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        items.set(2, 1, f32::NAN);
        let err = patch_tables(
            &mut scorer,
            x_only(Some(&mut quant), rows(&users, &[1, 2]), rows(&items, &[0, 2])),
        );
        assert!(matches!(err, Err(ServeError::NonFiniteEmbeddings { table: "x_items" })));
        // The same across domains: X's share is finite throughout, Y's user
        // table is not, and X stays unwritten.
        let finite_items = Tensor::from_vec(2, 2, vec![9.0, 9.0, 9.0, 9.0]).unwrap();
        let bad_users = Tensor::from_vec(1, 2, vec![f32::INFINITY, 0.0]).unwrap();
        let y_items = Tensor::ones(1, 2);
        let [x_patch, _] = x_only(Some(&mut quant), rows(&users, &[1, 2]), rows(&finite_items, &[0, 1]));
        let y_patch = DomainPatch {
            quant_items: None,
            users: rows(&bad_users, &[0]),
            items: rows(&y_items, &[]),
        };
        let err = patch_tables(&mut scorer, [x_patch, Some(y_patch)]);
        assert!(matches!(err, Err(ServeError::NonFiniteEmbeddings { table: "y_users" })));
        for (got, want) in [
            (&scorer.x_users, &before.x_users),
            (&scorer.x_items, &before.x_items),
            (&scorer.y_users, &before.y_users),
            (&scorer.y_items, &before.y_items),
        ] {
            assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want));
        }
        assert_eq!(quant, quant_before);
    }

    #[test]
    fn non_finite_rows_are_rejected_before_any_publish() {
        let mut src = Tensor::ones(2, 2);
        src.set(1, 0, f32::NAN);
        let err = check_finite("y_items", &src, &[1]);
        assert!(matches!(err, Err(ServeError::NonFiniteEmbeddings { table: "y_items" })));
        // Rows outside the dirty set are not inspected.
        check_finite("y_items", &src, &[0]).unwrap();
        check_finite("y_items", &src, &[]).unwrap();
    }
}
