//! Seeded input generation for the five engine workloads.
//!
//! `--seed` feeds only this module (and the index workload's twin in
//! `index_probe.rs`): the engine receives nothing but `&[Op]`. Every
//! slice of every session draws from its own generator state derived from
//! `(seed, workload, session, slice)`, so a slice can be produced on
//! demand outside the timed region and the `observed` mode's "first half
//! of the same sequence" is literally the same slices.

use dsmdb::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::zipf::scramble;
use workload::ZipfGenerator;

/// One ghost lock holder per this many `direct_rmw` transactions.
pub const GHOST_EVERY: usize = 50;

/// The key/operation mix of an engine workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `ops` operations per txn on scrambled-zipf keys, `read_pct` % reads,
    /// the rest `Rmw`.
    Zipf {
        theta: f64,
        ops: usize,
        read_pct: u32,
    },
    /// `ops` operations per txn on uniform keys, `read_pct` % reads.
    Uniform { ops: usize, read_pct: u32 },
    /// `min_ops..=max_ops` (uniform) distinct uniform `Rmw`s; one txn in
    /// every [`GHOST_EVERY`] finds one of its lock words held by the
    /// ghost. The size varies so that the median txn is one class among
    /// several, as in a real mix, not the only latency the model emits.
    DistinctRmwGhost { min_ops: usize, max_ops: usize },
    /// Two ops: `cross_pct` % transfers between the session's half of the
    /// keys and the other half, the rest `Rmw` + `Read` in its own half.
    Transfer { cross_pct: u32 },
}

/// One slice of one session's input.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Slice {
    /// Every txn's operations, back to back.
    pub ops: Vec<Op>,
    /// Txn `i` is `ops[starts[i] .. starts[i + 1]]`.
    pub starts: Vec<u32>,
    /// `(txn index in slice, key)`: lock words the ghost holds when that
    /// txn first runs, by txn index.
    pub ghosts: Vec<(usize, u64)>,
}

impl Slice {
    /// The operations of txn `i`.
    pub fn txn(&self, i: usize) -> &[Op] {
        &self.ops[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The key the ghost holds when txn `i` first runs.
    pub fn ghost_key(&self, i: usize) -> Option<u64> {
        self.ghosts
            .binary_search_by_key(&i, |g| g.0)
            .ok()
            .map(|p| self.ghosts[p].1)
    }
}

/// Generator for one session of one workload.
pub struct OpGen {
    mix: Mix,
    seed: u64,
    workload_id: u64,
    session: usize,
    sessions: usize,
    n_records: u64,
    zipf: Option<ZipfGenerator>,
}

/// Generator state for `(seed, stream, session, slice)`: the seed is
/// hashed first, so neighbouring seeds never share a slice.
pub fn slice_rng(seed: u64, stream: u64, session: usize, slice: usize) -> StdRng {
    let hashed: u64 = StdRng::seed_from_u64(seed).gen();
    StdRng::seed_from_u64(hashed ^ (stream << 56) ^ ((session as u64) << 48) ^ slice as u64)
}

impl OpGen {
    /// Generator for `session` of `sessions` over `n_records` keys.
    pub fn new(
        mix: Mix,
        seed: u64,
        workload_id: u64,
        session: usize,
        sessions: usize,
        n_records: u64,
    ) -> Self {
        let zipf = match mix {
            Mix::Zipf { theta, .. } => Some(ZipfGenerator::new(n_records, theta)),
            _ => None,
        };
        Self {
            mix,
            seed,
            workload_id,
            session,
            sessions,
            n_records,
            zipf,
        }
    }

    /// Produce slice `idx` (`txns` transactions) and add every `Rmw` delta
    /// it carries to `expected[key]`.
    pub fn slice(&self, idx: usize, txns: usize, expected: &mut [i64]) -> Slice {
        let mut rng = slice_rng(self.seed, self.workload_id, self.session, idx);
        let mut out = Slice {
            ops: Vec::new(),
            starts: Vec::with_capacity(txns + 1),
            ghosts: Vec::new(),
        };
        let n = self.n_records;
        let mut rmw = |key: u64, delta: i64| {
            expected[key as usize] += delta;
            Op::Rmw { key, delta }
        };
        match self.mix {
            Mix::Zipf { ops, read_pct, .. } | Mix::Uniform { ops, read_pct } => {
                out.starts.extend((0..txns).map(|t| (t * ops) as u32));
                for _ in 0..txns * ops {
                    let key = match &self.zipf {
                        Some(z) => scramble(z.next(&mut rng), n),
                        None => rng.gen_range(0..n),
                    };
                    if rng.gen_range(0..100u32) < read_pct {
                        out.ops.push(Op::Read(key));
                    } else {
                        let delta = rng.gen_range(1..=3i64);
                        out.ops.push(rmw(key, delta));
                    }
                }
            }
            Mix::DistinctRmwGhost { min_ops, max_ops } => {
                // The ghost's victim is drawn per block of GHOST_EVERY
                // txns, so its position (and with it how many locks the
                // victim already took before it hits the held word)
                // varies with the seed while the share stays exact.
                let mut victim = 0;
                for t in 0..txns {
                    if t % GHOST_EVERY == 0 {
                        victim = t + rng.gen_range(0..GHOST_EVERY);
                    }
                    let first = out.ops.len();
                    out.starts.push(first as u32);
                    let ops = rng.gen_range(min_ops..=max_ops);
                    while out.ops.len() < first + ops {
                        let key = rng.gen_range(0..n);
                        if out.ops[first..].iter().all(|o| o.key() != key) {
                            let delta = rng.gen_range(1..=3i64);
                            out.ops.push(rmw(key, delta));
                        }
                    }
                    if t == victim {
                        let pick = rng.gen_range(0..ops);
                        out.ghosts.push((t, out.ops[first + pick].key()));
                    }
                }
            }
            Mix::Transfer { cross_pct } => {
                let half = n / self.sessions as u64;
                let own = self.session as u64 * half;
                let other = ((self.session + 1) % self.sessions) as u64 * half;
                out.starts.extend((0..txns).map(|t| 2 * t as u32));
                for _ in 0..txns {
                    let a = own + rng.gen_range(0..half);
                    if rng.gen_range(0..100u32) < cross_pct {
                        let b = other + rng.gen_range(0..half);
                        out.ops.push(rmw(a, -1));
                        out.ops.push(rmw(b, 1));
                    } else {
                        let mut b = own + rng.gen_range(0..half);
                        while b == a {
                            b = own + rng.gen_range(0..half);
                        }
                        let delta = rng.gen_range(1..=3i64);
                        out.ops.push(rmw(a, delta));
                        out.ops.push(Op::Read(b));
                    }
                }
            }
        }
        out.starts.push(out.ops.len() as u32);
        out
    }
}

/// FNV-1a over the operations and ghost placements of a slice sequence:
/// the fingerprint printed with every run, so two runs can be shown to
/// have executed the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one slice in.
    pub fn slice(&mut self, s: &Slice) {
        for op in &s.ops {
            match op {
                Op::Read(k) => {
                    self.word(0);
                    self.word(*k);
                }
                Op::Rmw { key, delta } => {
                    self.word(1);
                    self.word(*key);
                    self.word(*delta as u64);
                }
                Op::Update { key, value } => {
                    self.word(2);
                    self.word(*key);
                    self.word(value.len() as u64);
                }
            }
        }
        for (t, k) in &s.ghosts {
            self.word(3);
            self.word(*t as u64);
            self.word(*k);
        }
    }

    /// Fold another stream's fingerprint in (sessions are combined in
    /// session order).
    pub fn combine(&mut self, other: StreamHash) {
        self.word(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXES: [Mix; 4] = [
        Mix::Zipf {
            theta: 0.99,
            ops: 16,
            read_pct: 95,
        },
        Mix::Uniform {
            ops: 16,
            read_pct: 50,
        },
        Mix::DistinctRmwGhost {
            min_ops: 3,
            max_ops: 5,
        },
        Mix::Transfer { cross_pct: 10 },
    ];

    fn stream_hash(mix: Mix, seed: u64) -> (StreamHash, Vec<i64>) {
        let gen = OpGen::new(mix, seed, 3, 1, 2, 4096);
        let mut expected = vec![0i64; 4096];
        let mut h = StreamHash::default();
        for idx in 0..4 {
            h.slice(&gen.slice(idx, 500, &mut expected));
        }
        (h, expected)
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for mix in MIXES {
            let (a, ea) = stream_hash(mix, 42);
            let (b, eb) = stream_hash(mix, 42);
            let (c, ec) = stream_hash(mix, 7);
            assert_eq!(a, b, "{mix:?}");
            assert_eq!(ea, eb, "{mix:?}");
            assert_ne!(a, c, "{mix:?}");
            assert_ne!(ea, ec, "{mix:?}");
        }
    }

    #[test]
    fn slices_are_independent_of_generation_order() {
        let gen = OpGen::new(MIXES[0], 42, 0, 0, 1, 4096);
        let mut e = vec![0i64; 4096];
        let late = gen.slice(7, 100, &mut e);
        let _ = gen.slice(0, 100, &mut e);
        assert_eq!(late, gen.slice(7, 100, &mut e));
    }

    #[test]
    fn ghost_share_is_exact_and_keys_are_distinct() {
        let gen = OpGen::new(
            Mix::DistinctRmwGhost {
                min_ops: 3,
                max_ops: 5,
            },
            11,
            2,
            0,
            1,
            65_536,
        );
        let mut e = vec![0i64; 65_536];
        let s = gen.slice(0, 1_000, &mut e);
        assert_eq!(s.ghosts.len(), 1_000 / GHOST_EVERY);
        for (block, (t, key)) in s.ghosts.iter().enumerate() {
            assert_eq!(t / GHOST_EVERY, block);
            assert!(s.txn(*t).iter().any(|o| o.key() == *key));
            assert_eq!(s.ghost_key(*t), Some(*key));
        }
        assert_eq!(s.ghost_key(s.ghosts[0].0 + 1), None);
        let mut sizes = [0usize; 6];
        for t in 0..1_000 {
            let mut keys: Vec<u64> = s.txn(t).iter().map(|o| o.key()).collect();
            sizes[keys.len()] += 1;
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), s.txn(t).len(), "keys of txn {t} are distinct");
        }
        assert_eq!(sizes[3] + sizes[4] + sizes[5], 1_000);
        assert!(sizes[3..=5].iter().all(|&c| c > 250), "{sizes:?}");
    }

    #[test]
    fn transfers_stay_in_their_halves_and_conserve() {
        let gen = OpGen::new(Mix::Transfer { cross_pct: 10 }, 5, 4, 1, 2, 1_000);
        let mut e = vec![0i64; 1_000];
        let s = gen.slice(0, 2_000, &mut e);
        let mut cross = 0;
        for txn in (0..2_000).map(|t| s.txn(t)) {
            assert!(txn[0].key() >= 500, "first op is in the session's own half");
            if txn[1].key() < 500 {
                cross += 1;
                assert!(matches!(txn[0], Op::Rmw { delta: -1, .. }));
                assert!(matches!(txn[1], Op::Rmw { delta: 1, .. }));
            }
        }
        assert!((150..=250).contains(&cross), "{cross} of 2000 cross-shard");
    }
}
