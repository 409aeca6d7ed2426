//! Seeded inputs of a fixed shape.
//!
//! The Quest generator's pattern pool decides how many patterns a
//! database holds and how long they get, and a fresh pool per seed moves
//! the frequent set by ±20% (56K–85K patterns over seeds 1–6 on the
//! `deep-text` configuration), which would swamp any regression bound. So
//! each workload generates its database with the preset's fixed Quest
//! seed, and the benchmark seed renames the items by a random permutation
//! and shuffles the customers. Every seed then mines a different input —
//! other bytes, another comparative order, other partition sizes and
//! reassignment chains — of the same shape: the same pattern count and
//! lengths.

use crate::rng::SplitMix;
use disc_core::{Item, Itemset, Sequence, SequenceDatabase};
use disc_datagen::QuestConfig;

/// In-place Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `config`'s database (at its own Quest seed), with items renamed and
/// customers shuffled by `seed`.
pub fn database(config: &QuestConfig, seed: u64) -> SequenceDatabase {
    let base = config.generate();
    let mut rng = SplitMix::new(seed);
    let mut rename: Vec<u32> = (0..config.nitems).collect();
    shuffle(&mut rename, &mut rng);
    let mut rows: Vec<_> = base
        .rows()
        .iter()
        .map(|row| {
            let itemsets = row.sequence.itemsets().iter().map(|set| {
                Itemset::new(set.iter().map(|x| Item(rename[x.id() as usize])))
                    .expect("renaming keeps itemsets non-empty")
            });
            (row.cid, Sequence::new(itemsets))
        })
        .collect();
    shuffle(&mut rows, &mut rng);
    SequenceDatabase::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_algo::DiscAll;
    use disc_core::{MinSupport, SequentialMiner};

    #[test]
    fn seeds_give_different_inputs_of_one_shape() {
        let config =
            QuestConfig::paper_table11().with_ncust(200).with_nitems(60).with_pools(20, 40);
        let a = database(&config, 1);
        assert_eq!(a.to_text(), database(&config, 1).to_text(), "same seed, same input");
        let b = database(&config, 2);
        assert_ne!(a.to_text(), b.to_text());
        let mine = |db: &SequenceDatabase| DiscAll::default().mine(db, MinSupport::Count(30));
        let (ra, rb) = (mine(&a), mine(&b));
        assert!(ra.max_length() >= 2, "the check needs more than single items");
        assert_eq!(ra.len(), rb.len());
        assert_eq!(ra.length_histogram(), rb.length_histogram());
    }
}
