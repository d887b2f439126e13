//! Property test for the space-saving sketch: [`telemetry::TopK`] finds
//! keys through an index and evicts through a heap, and must stay
//! observably identical to the textbook form it replaced — a linear find
//! and a linear `(count, key)` min-scan — because every committed heat
//! rank and `err` bound was produced by that form. The textbook form is
//! kept here as the reference model.

use proptest::prelude::*;
use telemetry::{TopEntry, TopK};

/// Space-saving with a linear find and a linear min-scan.
struct LinearTopK {
    cap: usize,
    entries: Vec<TopEntry>,
}

impl LinearTopK {
    fn new(cap: usize) -> Self {
        Self { cap, entries: Vec::new() }
    }

    fn offer(&mut self, key: u64, weight: u64) {
        if self.cap == 0 || weight == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.count += weight;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(TopEntry { key, count: weight, err: 0 });
            return;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.count, e.key))
            .map(|(i, _)| i)
            .expect("cap > 0");
        let floor = self.entries[victim].count;
        self.entries[victim] = TopEntry { key, count: floor + weight, err: floor };
    }

    fn estimate_sum(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    fn snapshot(&self) -> Vec<TopEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    fn get(&self, key: u64) -> Option<TopEntry> {
        self.entries.iter().copied().find(|e| e.key == key)
    }
}

/// `(key, weight)` streams over `keys` distinct keys. Weights are mostly
/// 0, 1 or 2, so counts tie constantly and eviction order rides on the
/// key tie-break; one key in eight is shifted into the node bits of a
/// heat key so the index sees both key shapes.
fn offers(keys: u64, len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    let key = (0..keys).prop_map(|k| if k % 8 == 7 { (k << 48) | k } else { k });
    let weight = prop_oneof![0u64..3, 0u64..3, 0u64..3, 1u64..5000];
    proptest::collection::vec((key, weight), 0..len)
}

fn assert_same_after_every_offer(cap: usize, offers: &[(u64, u64)]) -> Result<(), String> {
    let mut sketch = TopK::new(cap);
    let mut model = LinearTopK::new(cap);
    for (step, &(key, weight)) in offers.iter().enumerate() {
        sketch.offer(key, weight);
        model.offer(key, weight);
        prop_assert_eq!(sketch.snapshot(), model.snapshot(), "snapshot after offer {}", step);
        prop_assert_eq!(sketch.estimate_sum(), model.estimate_sum());
        prop_assert_eq!(sketch.get(key), model.get(key));
    }
    // Evicted keys must be gone from the index, survivors reachable.
    for &(key, _) in offers {
        prop_assert_eq!(sketch.get(key), model.get(key), "get({})", key);
    }
    Ok(())
}

proptest! {
    /// Far more keys than slots: almost every offer evicts.
    #[test]
    fn matches_the_linear_model_when_keys_dwarf_the_capacity(
        cap in prop_oneof![Just(0usize), Just(1usize), Just(2usize), Just(32usize)],
        offers in offers(400, 600),
    ) {
        assert_same_after_every_offer(cap, &offers)?;
    }

    /// About as many keys as slots: hits, fills and evictions interleave.
    #[test]
    fn matches_the_linear_model_around_the_capacity(
        cap in 1usize..40,
        offers in offers(48, 400),
    ) {
        assert_same_after_every_offer(cap, &offers)?;
    }

    /// `reset` empties the sketch and leaves it usable.
    #[test]
    fn reset_starts_over(first in offers(100, 200), second in offers(100, 200)) {
        let mut sketch = TopK::new(32);
        for &(key, weight) in &first {
            sketch.offer(key, weight);
        }
        sketch.reset();
        prop_assert_eq!(sketch.snapshot(), Vec::new());
        for &(key, _) in &first {
            prop_assert_eq!(sketch.get(key), None);
        }
        let mut model = LinearTopK::new(32);
        for &(key, weight) in &second {
            sketch.offer(key, weight);
            model.offer(key, weight);
        }
        prop_assert_eq!(sketch.snapshot(), model.snapshot());
    }
}
