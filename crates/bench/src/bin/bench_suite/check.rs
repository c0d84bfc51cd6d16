//! Correctness checks: every number this benchmark prints comes from a run
//! whose answers were compared with a twin engine fed the same inputs.

use crate::inputs;
use crate::loadgen::{Checked, LoadGen};
use crate::stack::{fail, Failure};
use crate::workloads::PARITY_REQUESTS;
use cdrib_serve::{ranks_above, Recommendation, Recommender, Request, ScoringPrecision};

pub fn bitwise_equal(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// What the twin says the answer is. F32 is held against the deliberately
/// naive full sort; int8 has no full-sort reference, so it is held against
/// the twin's own int8 path (each precision against itself).
pub fn expected(twin: &mut Recommender, request: &Request) -> Result<Vec<Recommendation>, Failure> {
    match twin.precision() {
        ScoringPrecision::F32 => twin.recommend_full_sort(request),
        ScoringPrecision::Int8 => twin.recommend_vec(request),
    }
    .map_err(fail("twin engine"))
}

/// Shape of an answer, whatever the scores: at most `k` items, ordered by
/// `(score desc, item asc)`, none already seen by the user, none delisted.
pub fn structure_ok(recs: &[Recommendation], request: &Request, twin: &Recommender) -> Result<(), Failure> {
    if recs.len() > request.k {
        return Err(format!("{} items for k = {}", recs.len(), request.k));
    }
    if let Some(w) = recs
        .windows(2)
        .find(|w| !ranks_above((w[0].score, w[0].item), (w[1].score, w[1].item)))
    {
        return Err(format!("{:?} does not rank above {:?}", w[0], w[1]));
    }
    let target = request.direction.target;
    let delisted = twin.delisted_items(target);
    let user = request.user as usize;
    let seen = twin.seen_graph(target);
    let shares_identity = user < twin.shared_user_prefix() && user < seen.n_users();
    for r in recs {
        if delisted.binary_search(&r.item).is_ok() {
            return Err(format!("delisted item {} was recommended", r.item));
        }
        if shares_identity && seen.has_edge(user, r.item as usize) {
            return Err(format!("item {} was already seen by user {user}", r.item));
        }
    }
    Ok(())
}

fn check_answer(got: &[Recommendation], request: &Request, twin: &mut Recommender, what: &str) -> Result<(), Failure> {
    structure_ok(got, request, twin).map_err(|e| format!("{what}: {request:?}: {e}"))?;
    let want = expected(twin, request)?;
    if !bitwise_equal(got, &want) {
        return Err(format!(
            "{what}: {request:?}: served {got:?}, twin engine says {want:?}"
        ));
    }
    Ok(())
}

/// Before any timed phase of a server: [`PARITY_REQUESTS`] seeded requests
/// answered over the socket must equal the twin exactly — item ids and
/// score bits.
pub fn parity_gate(
    gen: &mut LoadGen,
    twin: &mut Recommender,
    n_users: [usize; 2],
    seed: u64,
    label: &str,
) -> Result<(), Failure> {
    for request in inputs::request_mix(n_users, PARITY_REQUESTS, seed, label) {
        let (_, got) = gen.ask(&request).map_err(fail(label))?;
        check_answer(&got, &request, twin, label)?;
    }
    Ok(())
}

/// After a timed phase on a static engine: the one reply in 64 that was
/// kept must equal the twin's answer bit for bit.
pub fn verify_static(checked: &[Checked], mix: &[Request], twin: &mut Recommender, phase: &str) -> Result<(), Failure> {
    for c in checked {
        check_answer(&c.recs, &mix[c.slot], twin, phase)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{scan_parts, ScanShape};
    use cdrib_data::Direction;

    fn small_engine() -> Recommender {
        let parts = scan_parts(
            ScanShape {
                users: 64,
                items: 512,
                dim: 8,
            },
            5,
        );
        Recommender::new(parts.scorer, parts.seen_x, parts.seen_y).unwrap()
    }

    #[test]
    fn a_true_answer_passes_and_every_kind_of_damage_is_caught() {
        let mut twin = small_engine();
        let request = Request {
            direction: Direction::X_TO_Y,
            user: 3,
            k: 10,
        };
        let good = twin.recommend_vec(&request).unwrap();
        assert_eq!(good.len(), 10);
        check_answer(&good, &request, &mut twin, "test").unwrap();

        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(structure_ok(&swapped, &request, &twin).is_err(), "order");

        let mut nudged = good.clone();
        nudged[9].score = f32::from_bits(nudged[9].score.to_bits() - 1);
        assert!(structure_ok(&nudged, &request, &twin).is_ok());
        assert!(
            check_answer(&nudged, &request, &mut twin, "test").is_err(),
            "score bits"
        );

        let seen_item = twin.seen_graph(request.direction.target).items_of(3)[0];
        let mut seen = good.clone();
        seen[0].item = seen_item;
        seen[0].score = f32::MAX;
        assert!(structure_ok(&seen, &request, &twin).is_err(), "seen item");

        twin.install_delisted_items(request.direction.target, &[good[0].item]);
        assert!(structure_ok(&good, &request, &twin).is_err(), "delisted item");

        let mut long = good.clone();
        long.push(good[9]);
        assert!(structure_ok(&long, &request, &twin).is_err(), "more than k");
    }

    #[test]
    fn int8_is_held_against_its_own_precision() {
        let mut twin = small_engine();
        let request = Request {
            direction: Direction::Y_TO_X,
            user: 7,
            k: 10,
        };
        let f32_answer = expected(&mut twin, &request).unwrap();
        twin.set_precision(ScoringPrecision::Int8);
        let int8_answer = expected(&mut twin, &request).unwrap();
        assert_eq!(int8_answer, twin.recommend_vec(&request).unwrap());
        assert!(
            !bitwise_equal(&f32_answer, &int8_answer),
            "quantised scores differ in their bits"
        );
    }
}
