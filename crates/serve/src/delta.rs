//! Online delta ingestion for the serving engine.
//!
//! A [`Recommender`](crate::Recommender) built with
//! [`Recommender::from_inference_online`](crate::Recommender::from_inference_online)
//! owns the frozen encoder ([`InferenceModel`]) alongside the served tables
//! and can ingest [`GraphDelta`](cdrib_graph::GraphDelta)s: the seen-item
//! graphs absorb the new interactions, the encoder re-encodes only the
//! affected entities, and the served embedding tables are **validated, then
//! patched in place**: every dirty row of both of the domain's tables is
//! checked finite before the first one is written, then the dirty f32 rows
//! overwrite the served ones and the same item rows of the int8 mirror are
//! re-quantised. O(dirty rows) per delta, no second copy of any table; a
//! table still served off a mapped artifact goes owned on its first patch
//! (`TableStorage`'s copy-on-write), untouched tables stay mapped.
//!
//! No reader can observe a half-patched table because none can run beside a
//! patch: `apply_delta` takes `&mut self`, the `thread::scope` workers of a
//! batch join before the batch returns, and the network front-end's one
//! coalescer thread applies deltas *between* batches. Each applied delta
//! bumps the engine's epoch, the count of table states published so far.

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
/// its incremental caches, and reusable effect storage.
pub(crate) struct OnlineUpdater {
    pub(crate) inference: InferenceModel,
    /// Reusable receipt storage for graph applies.
    pub(crate) effect: DeltaEffect,
}

/// Static table names per domain (`[users, items]`), matching
/// [`EmbeddingScorer`]'s field names.
pub(crate) const TABLE_NAMES: [[&str; 2]; 2] = [["x_users", "x_items"], ["y_users", "y_items"]];

/// What the encoder holds for one table after a delta: the full cached
/// table, and the rows the delta re-encoded.
pub(crate) type Reencoded<'a> = (&'a Tensor, &'a [u32]);

impl OnlineUpdater {
    pub(crate) fn new(inference: InferenceModel) -> Self {
        OnlineUpdater {
            inference,
            effect: DeltaEffect::new(),
        }
    }

    /// Publishes the rows the encoder's last `apply_delta` re-encoded in
    /// `domain` into the served tables (see [`patch_tables`]).
    pub(crate) fn publish(
        &self,
        scorer: &mut EmbeddingScorer,
        quant_items: Option<&mut QuantizedTable>,
        domain: DomainId,
    ) -> Result<()> {
        let enc = &self.inference;
        let users = (enc.cached_user_table(domain)?, enc.last_dirty_users(domain)?);
        let items = (enc.cached_item_table(domain)?, enc.last_dirty_items(domain)?);
        patch_tables(domain, scorer, quant_items, users, items)
    }
}

/// Patches a domain's served tables in place from the encoder's re-encoded
/// rows. **Both** tables are validated before the first write, so a rejected
/// row leaves the served tables (and the int8 mirror) exactly as they were —
/// never with one table ahead of the other. Warm calls (no row growth) are
/// allocation-free.
pub(crate) fn patch_tables(
    domain: DomainId,
    scorer: &mut EmbeddingScorer,
    quant_items: Option<&mut QuantizedTable>,
    users: Reencoded<'_>,
    items: Reencoded<'_>,
) -> Result<()> {
    let [user_name, item_name] = TABLE_NAMES[domain as usize];
    check_finite(user_name, users.0, users.1)?;
    check_finite(item_name, items.0, items.1)?;
    let (served_users, served_items) = scorer.tables_mut(domain);
    copy_rows(served_users, users);
    copy_rows(served_items, items);
    // Exactly the dirty rows are re-quantised from their fresh f32 source,
    // so the mirror stays a from-scratch quantisation of the served table.
    if let Some(quant) = quant_items {
        let (fresh, dirty) = items;
        quant.resize_rows(fresh.rows());
        for &r in dirty {
            quant.requantize_row(r as usize, fresh.row(r as usize));
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

    #[test]
    fn successive_deltas_patch_f32_rows_in_place_with_growth() {
        let (mut scorer, _) = served();
        // Delta 1: user row 1 changes and row 2 appears; item row 0 changes.
        let users1 = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let items1 = Tensor::from_vec(2, 2, vec![-5.0, -6.0, 0.0, 0.0]).unwrap();
        patch_tables(
            DomainId::X,
            &mut scorer,
            None,
            rows(&users1, &[1, 2]),
            rows(&items1, &[0]),
        )
        .unwrap();
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
        patch_tables(DomainId::X, &mut scorer, None, rows(&users2, &[0]), rows(&items2, &[2])).unwrap();
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
            DomainId::X,
            &mut scorer,
            Some(&mut quant),
            rows(&users, &[]),
            rows(&items1, &[1, 2]),
        )
        .unwrap();
        assert_eq!(scorer.x_items.as_slice(), &[5.0, 6.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(quant, QuantizedTable::from_tensor(&scorer.x_items));
        // Delta 2: row 0 changes and row 3 appears; rows 1/2 must survive.
        let items2 = Tensor::from_vec(4, 2, vec![10.0, 20.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.5]).unwrap();
        patch_tables(
            DomainId::X,
            &mut scorer,
            Some(&mut quant),
            rows(&users, &[]),
            rows(&items2, &[0, 3]),
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
            DomainId::X,
            &mut scorer,
            Some(&mut quant),
            rows(&users, &[1, 2]),
            rows(&items, &[0, 2]),
        );
        assert!(matches!(err, Err(ServeError::NonFiniteEmbeddings { table: "x_items" })));
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
