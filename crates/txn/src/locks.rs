//! RDMA lock primitives — §4 Challenge 6.
//!
//! "RDMA can only implement a simple exclusive spinlock within a single
//! round trip through the CAS atomic primitive. Advanced lock types
//! require more RDMA round trips, e.g., an RDMA shared-exclusive lock
//! needs at least 2 round trips."
//!
//! * [`ExclusiveLock`]: one CAS to acquire (1 RT), one write to release.
//!   A whole *set* of words is still one round trip each way: the CASes
//!   (each with whatever READs its holder wants right behind it — the
//!   payload, a coherent cache's sharer word, nothing) leave in one
//!   doorbell, and so do the unlocks, behind the holder's write-back.
//! * [`SharedExclusiveLock`]: footnote 2's construction — a spinlock latch
//!   guarding holder metadata. Round 1: CAS the latch; round 2 (doorbell-
//!   batched): update the metadata and release the latch. Readers admit
//!   concurrently; writers drain readers.
//!
//! Both are *no-wait with bounded retries and backoff*: after
//! `max_retries` failed attempts the caller gets [`LockError::Busy`]
//! (latch contention) or [`LockError::Timeout`] (holder never released
//! within the budget) and — in the protocols — aborts. Blocking remotely
//! is expensive, and an unbounded spin under a holder that crashed would
//! wedge the acquirer forever.
//!
//! [`LeaseLock`] is the recoverable variant: the lock word encodes
//! `owner | epoch | lease-expiry`, so when the owner crashes the lease
//! runs out on the virtual clock and the next acquirer CAS-*steals* the
//! word (Lotus-style recoverable disaggregated locks). The old owner
//! discovers the theft on release/validation and must abort.

use dsm::{DsmError, DsmLayer, GlobalAddr, GlobalWr};
use rdma_sim::Endpoint;

/// Lock acquisition failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Lock still held after the retry budget.
    Busy,
    /// The holder never released within the bounded-retry budget (likely
    /// crashed or stalled; for [`LeaseLock`]s the lease has not expired
    /// yet).
    Timeout,
    /// A lease release/validation found the word changed: the lease
    /// expired and another worker stole the lock. The ex-owner must not
    /// commit.
    Stolen,
    /// A release was issued in a state that cannot be released (e.g.
    /// shared release with zero readers) — a protocol bug surfaced as a
    /// typed error instead of a debug-only assert.
    ReleaseViolation(&'static str),
    /// Fabric/DSM failure.
    Dsm(DsmError),
}

impl From<DsmError> for LockError {
    fn from(e: DsmError) -> Self {
        LockError::Dsm(e)
    }
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Busy => write!(f, "lock busy"),
            LockError::Timeout => write!(f, "lock acquisition timed out"),
            LockError::Stolen => write!(f, "lock lease expired and was stolen"),
            LockError::ReleaseViolation(what) => write!(f, "lock release violation: {what}"),
            LockError::Dsm(e) => write!(f, "lock dsm error: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Exponential virtual-time backoff between lock attempts: 100 ns
/// doubling up to ~25 µs, so contenders drain instead of hammering the
/// remote atomic unit. The wait is attributed to `lock` in the
/// endpoint's hot-key contention tally, and — when the lock word named
/// a holder (`holder_tag != 0`) — annotated with the holder's live
/// trace id so forensics can follow the blocking edge (0 = unknown
/// holder, e.g. a latch or an anonymous writer bit).
#[inline]
fn backoff(ep: &Endpoint, attempt: u32, lock: GlobalAddr, holder_tag: u64) {
    let ns = 100u64 << attempt.min(8);
    ep.charge_local(ns);
    ep.note_lock_wait_traced(lock.to_raw(), ns, holder_tag);
}

/// The 1-round-trip exclusive CAS spinlock.
///
/// Lock word semantics: 0 = free, `owner_tag` = held. The owner tag should
/// be nonzero and unique per worker (e.g. `worker_id + 1`).
pub struct ExclusiveLock;

/// One word of an [`ExclusiveLock`] set and what became of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWord {
    addr: GlobalAddr,
    /// What the latest CAS on the word found there: 0 means that CAS
    /// installed the owner's tag. [`LockWord::UNTRIED`] until one ran.
    prev: u64,
}

impl LockWord {
    /// No owner tag: tags are small worker ids.
    const UNTRIED: u64 = u64::MAX;

    /// The word at `addr`, not yet tried.
    pub fn new(addr: GlobalAddr) -> Self {
        Self { addr, prev: Self::UNTRIED }
    }

    /// Whether the set's owner holds the word.
    pub fn held(&self) -> bool {
        self.prev == 0
    }

    fn cas(&mut self, owner_tag: u64) -> GlobalWr<'_> {
        GlobalWr::Cas { addr: self.addr, expected: 0, new: owner_tag, prev: &mut self.prev }
    }
}

/// A READ that leaves in the acquire doorbell right behind the CAS of
/// one word of an [`ExclusiveLock`] set: same queue pair, so it observes
/// memory after the CAS, and what it fetched is valid iff the word was
/// won.
#[derive(Debug)]
pub struct Rider<'a> {
    /// Index, in the set, of the word the READ rides behind.
    pub word: usize,
    /// Where to read.
    pub addr: GlobalAddr,
    /// Where the bytes go.
    pub dst: &'a mut [u8],
}

impl Rider<'_> {
    fn read(&mut self) -> GlobalWr<'_> {
        GlobalWr::Read { addr: self.addr, dst: &mut *self.dst }
    }
}

impl ExclusiveLock {
    /// Try to acquire: one CAS per attempt, up to `max_retries + 1`
    /// attempts.
    pub fn acquire(
        layer: &DsmLayer,
        ep: &Endpoint,
        lock: GlobalAddr,
        owner_tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        Self::acquire_set(layer, ep, &mut [LockWord::new(lock)], &mut [], owner_tag, max_retries)
    }

    /// Release: one write. Only the owner may call this.
    pub fn release(layer: &DsmLayer, ep: &Endpoint, lock: GlobalAddr) -> Result<(), LockError> {
        layer.write_u64(ep, lock, 0)?;
        Ok(())
    }

    /// Acquire a whole lock set in one round trip: the CAS of every word
    /// of `words` leaves in one doorbell, each followed by its
    /// [`Rider`]s — none, one or several per word, in `riders` sorted by
    /// word.
    ///
    /// A word that came back busy then climbs the scalar ladder on its
    /// own — backoff, CAS (and its riders) again, up to `max_retries`
    /// more attempts — while the words already won stay held; the first
    /// word to exhaust its ladder ends the call with [`LockError::Busy`].
    /// However the call ends, [`LockWord::held`] tells which words the
    /// caller now owns and must pass to [`ExclusiveLock::release_set`].
    pub fn acquire_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        words: &mut [LockWord],
        riders: &mut [Rider<'_>],
        owner_tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        debug_assert!(owner_tag != 0 && owner_tag != LockWord::UNTRIED);
        debug_assert!(riders.windows(2).all(|w| w[0].word <= w[1].word));
        debug_assert!(riders.last().is_none_or(|r| r.word < words.len()));
        if words.len() > 1 {
            Self::post_cas(layer, ep, words, 0, riders, owner_tag)?;
        }
        for i in 0..words.len() {
            let mut attempt = 0;
            while !words[i].held() {
                let LockWord { addr, prev } = words[i];
                if prev != LockWord::UNTRIED {
                    // The failed CAS's `prev` *is* the holder's tag: a
                    // free wait-for edge for the contention observatory.
                    ep.note_wait_edge(owner_tag, prev, addr.to_raw());
                    if attempt == max_retries {
                        return Err(LockError::Busy);
                    }
                    backoff(ep, attempt, addr, prev);
                    attempt += 1;
                }
                let own = riders.partition_point(|r| r.word < i)..riders.partition_point(|r| r.word <= i);
                Self::post_cas(layer, ep, &mut words[i..=i], i, &mut riders[own], owner_tag)?;
            }
        }
        Ok(())
    }

    /// One doorbell: CAS free → `owner_tag` on every word of `words`
    /// (none held yet; `words[0]` is word `first` of the set), each
    /// followed by its riders. Words won stay won even when a later
    /// member failed.
    fn post_cas(
        layer: &DsmLayer,
        ep: &Endpoint,
        words: &mut [LockWord],
        first: usize,
        riders: &mut [Rider<'_>],
        owner_tag: u64,
    ) -> Result<(), DsmError> {
        match (words, riders) {
            // The ladder's usual shapes never leave the stack.
            ([word], []) => layer.doorbell(ep, &mut [word.cas(owner_tag)]),
            ([word], [rider]) => layer.doorbell(ep, &mut [word.cas(owner_tag), rider.read()]),
            (words, riders) => {
                let mut riders = riders.iter_mut().peekable();
                let mut wrs = Vec::with_capacity(words.len() + riders.len());
                for (i, word) in words.iter_mut().enumerate() {
                    wrs.push(word.cas(owner_tag));
                    while let Some(rider) = riders.next_if(|r| r.word == first + i) {
                        wrs.push(rider.read());
                    }
                }
                layer.doorbell(ep, &mut wrs)
            }
        }
    }

    /// The release doorbell of a lock set: every write of `writes` (the
    /// holder's write-back), then the unlock of every held word of
    /// `words` — one round trip, all writes ahead of all unlocks.
    ///
    /// If the doorbell fails, no word may stay locked because another
    /// one's target is down: each held word is then unlocked on its own
    /// and the doorbell's error returned. Those unlocks are CASes from
    /// `owner_tag`, which cannot free a word that the cut-short doorbell
    /// already freed and someone else has taken since.
    pub fn release_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        writes: &[(GlobalAddr, &[u8])],
        words: &mut [LockWord],
        owner_tag: u64,
    ) -> Result<(), LockError> {
        const FREE: [u8; 8] = 0u64.to_le_bytes();
        let held = words.iter().filter(|w| w.held()).count();
        if held == 0 && writes.is_empty() {
            return Ok(());
        }
        let mut wrs = Vec::with_capacity(writes.len() + held);
        wrs.extend(writes.iter().map(|&(addr, src)| GlobalWr::Write { addr, src }));
        wrs.extend(
            words
                .iter()
                .filter(|w| w.held())
                .map(|w| GlobalWr::Write { addr: w.addr, src: &FREE }),
        );
        let posted = layer.doorbell(ep, &mut wrs);
        for word in words.iter_mut().filter(|w| w.held()) {
            if posted.is_ok() || layer.cas(ep, word.addr, owner_tag, 0).is_ok() {
                *word = LockWord::new(word.addr);
            }
        }
        Ok(posted?)
    }
}

/// The shared-exclusive lock is two adjacent words, as footnote 2 builds
/// it: `lock` is the latch that serializes metadata updates, `lock + 8`
/// the metadata — bit 63 set while a writer holds the lock, the low 32
/// bits the reader count. Callers must reserve 16 bytes.
const WRITER_BIT: u64 = 1 << 63;
const READER_MASK: u64 = 0xFFFF_FFFF;

/// The ≥2-round-trip shared-exclusive lock (footnote 2).
pub struct SharedExclusiveLock;

impl SharedExclusiveLock {
    fn latch(addr: GlobalAddr) -> GlobalAddr {
        addr
    }
    fn meta(addr: GlobalAddr) -> GlobalAddr {
        addr.offset_by(8)
    }

    /// Round 1: CAS latch + read metadata. Returns the metadata or Busy.
    fn enter(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<u64, LockError> {
        for attempt in 0..=max_retries {
            if attempt > 0 {
                // The latch word carries no holder identity.
                backoff(ep, attempt - 1, addr, 0);
            }
            if layer.cas(ep, Self::latch(addr), 0, 1)? == 0 {
                // Same round trip in spirit (doorbell-batched with the
                // CAS on real hardware); the read is charged separately
                // but that is exactly the paper's "at least 2 round
                // trips" accounting.
                let meta = layer.read_u64(ep, Self::meta(addr))?;
                return Ok(meta);
            }
        }
        Err(LockError::Busy)
    }

    /// Round 2: write new metadata and release the latch — one doorbell,
    /// retried by the layer like every other lock verb, so a transient
    /// fault cannot leave the latch set with nobody to clear it.
    fn exit(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        new_meta: u64,
    ) -> Result<(), LockError> {
        let meta = new_meta.to_le_bytes();
        let free = 0u64.to_le_bytes();
        layer.doorbell(
            ep,
            &mut [
                GlobalWr::Write { addr: Self::meta(addr), src: &meta },
                GlobalWr::Write { addr: Self::latch(addr), src: &free },
            ],
        )?;
        Ok(())
    }

    /// Acquire in shared mode (2 round trips when uncontended). Bounded:
    /// if a writer holds the lock for the whole budget the caller gets
    /// [`LockError::Timeout`] instead of spinning forever under a holder
    /// that may never release (crash).
    pub fn acquire_shared(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<(), LockError> {
        for attempt in 0..=max_retries {
            let meta = Self::enter(layer, ep, addr, max_retries)?;
            if meta & WRITER_BIT != 0 {
                // Writer holds it: release latch, back off, retry. The
                // meta word stores no holder identity, so the wait-for
                // edge uses holder 0 ("unknown writer").
                ep.note_wait_edge(0, 0, addr.to_raw());
                Self::exit(layer, ep, addr, meta)?;
                if attempt < max_retries {
                    backoff(ep, attempt, addr, 0);
                }
                continue;
            }
            Self::exit(layer, ep, addr, meta + 1)?;
            return Ok(());
        }
        Err(LockError::Timeout)
    }

    /// Release shared mode. Releasing with zero readers is a protocol
    /// bug: surfaced as [`LockError::ReleaseViolation`] (checked in
    /// release builds too), with the latch restored.
    pub fn release_shared(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<(), LockError> {
        let meta = Self::enter(layer, ep, addr, max_retries)?;
        if meta & READER_MASK == 0 {
            Self::exit(layer, ep, addr, meta)?;
            return Err(LockError::ReleaseViolation("release_shared with no readers"));
        }
        Self::exit(layer, ep, addr, meta - 1)?;
        Ok(())
    }

    /// Acquire in exclusive mode: waits for readers to drain (within the
    /// retry budget); [`LockError::Timeout`] if they never do.
    pub fn acquire_exclusive(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<(), LockError> {
        for attempt in 0..=max_retries {
            let meta = Self::enter(layer, ep, addr, max_retries)?;
            if meta != 0 {
                ep.note_wait_edge(0, 0, addr.to_raw());
                Self::exit(layer, ep, addr, meta)?;
                if attempt < max_retries {
                    backoff(ep, attempt, addr, 0);
                }
                continue;
            }
            Self::exit(layer, ep, addr, WRITER_BIT)?;
            return Ok(());
        }
        Err(LockError::Timeout)
    }

    /// Release exclusive mode. Releasing without the writer bit set is a
    /// protocol bug: surfaced as [`LockError::ReleaseViolation`].
    pub fn release_exclusive(
        layer: &DsmLayer,
        ep: &Endpoint,
        addr: GlobalAddr,
        max_retries: u32,
    ) -> Result<(), LockError> {
        let meta = Self::enter(layer, ep, addr, max_retries)?;
        if meta & WRITER_BIT == 0 {
            Self::exit(layer, ep, addr, meta)?;
            return Err(LockError::ReleaseViolation("release_exclusive without writer"));
        }
        Self::exit(layer, ep, addr, meta & !WRITER_BIT)?;
        Ok(())
    }
}

/// A recoverable exclusive lock whose word encodes the holder and a
/// lease deadline:
///
/// ```text
/// bits 48..64   owner    (worker tag, nonzero)
/// bits 32..48   epoch    (owner's membership epoch — fences zombies)
/// bits  0..32   expiry   (virtual microseconds, wrapping)
/// ```
///
/// Acquisition is one CAS when free. When the word is occupied but the
/// lease has *expired* on the acquirer's virtual clock, the acquirer
/// CAS-steals the exact observed word — so two racers can't both steal,
/// and a live holder that refreshed its lease wins the race. Release is
/// a CAS back to zero that fails with [`LockError::Stolen`] if the word
/// changed, which is the ex-owner's only-and-sufficient signal that it
/// lost ownership and must abort.
///
/// Expiry wraps every ~71 virtual minutes (u32 µs); comparisons are
/// wrap-aware over a half-range window, which is sound while leases are
/// far shorter than the wrap period.
pub struct LeaseLock;

/// Proof of (possibly stolen-from-someone) lease ownership: the exact
/// word installed. Needed to release and to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseToken {
    /// The installed lock word.
    pub word: u64,
    /// Whether acquisition stole an expired lease (telemetry).
    pub stole: bool,
}

impl LeaseLock {
    /// Pack owner/epoch/expiry into a lock word.
    pub fn encode(owner: u16, epoch: u16, expiry_us: u32) -> u64 {
        debug_assert!(owner != 0, "owner tag must be nonzero");
        ((owner as u64) << 48) | ((epoch as u64) << 32) | expiry_us as u64
    }

    /// Unpack a lock word into (owner, epoch, expiry_µs).
    pub fn decode(word: u64) -> (u16, u16, u32) {
        ((word >> 48) as u16, (word >> 32) as u16, word as u32)
    }

    /// Wrap-aware "deadline passed" on u32 microseconds.
    fn expired(now_us: u32, expiry_us: u32) -> bool {
        now_us.wrapping_sub(expiry_us) < (1 << 31)
    }

    /// Acquire (or steal) the lease at `lock`. `lease_ns` is the validity
    /// horizon granted to this holder, charged from the acquirer's
    /// virtual clock at CAS time. Bounded by `max_retries` with
    /// exponential backoff; a live unexpired holder yields
    /// [`LockError::Timeout`].
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        layer: &DsmLayer,
        ep: &Endpoint,
        lock: GlobalAddr,
        owner: u16,
        epoch: u16,
        lease_ns: u64,
        max_retries: u32,
    ) -> Result<LeaseToken, LockError> {
        let lease_us = (lease_ns / 1_000).max(1) as u32;
        for attempt in 0..=max_retries {
            let now_us = (ep.clock().now_ns() / 1_000) as u32;
            let word = Self::encode(owner, epoch, now_us.wrapping_add(lease_us));
            let prev = layer.cas(ep, lock, 0, word)?;
            if prev == 0 {
                return Ok(LeaseToken { word, stole: false });
            }
            let (prev_owner, _, prev_expiry) = Self::decode(prev);
            if Self::expired(now_us, prev_expiry) {
                // The holder's lease ran out (it crashed or stalled):
                // steal by CASing the exact expired word we observed.
                let raced = layer.cas(ep, lock, prev, word)?;
                if raced == prev {
                    return Ok(LeaseToken { word, stole: true });
                }
            }
            ep.note_wait_edge(owner as u64, prev_owner as u64, lock.to_raw());
            if attempt < max_retries {
                backoff(ep, attempt, lock, prev_owner as u64);
            }
        }
        Err(LockError::Timeout)
    }

    /// Whether this token still owns the lock (one read). A `false`
    /// means the lease expired and someone stole it.
    pub fn validate(
        layer: &DsmLayer,
        ep: &Endpoint,
        lock: GlobalAddr,
        token: LeaseToken,
    ) -> Result<bool, LockError> {
        Ok(layer.read_u64(ep, lock)? == token.word)
    }

    /// Release via CAS of the exact installed word. [`LockError::Stolen`]
    /// if the word changed — the caller lost the lease (or the word was
    /// wiped by memory-node recovery, which loses unreplicated lock
    /// state by design) and must treat its critical section as fenced.
    pub fn release(
        layer: &DsmLayer,
        ep: &Endpoint,
        lock: GlobalAddr,
        token: LeaseToken,
    ) -> Result<(), LockError> {
        if layer.cas(ep, lock, token.word, 0)? == token.word {
            Ok(())
        } else {
            Err(LockError::Stolen)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, FaultPlan, NetworkProfile};
    use std::sync::Arc;

    fn setup() -> (Arc<Fabric>, Arc<DsmLayer>, GlobalAddr) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 1 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let addr = layer.alloc(16).unwrap();
        (fabric, layer, addr)
    }

    #[test]
    fn exclusive_lock_is_one_round_trip_uncontended() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        ExclusiveLock::acquire(&l, &ep, a, 1, 0).unwrap();
        assert_eq!(ep.stats().cas, 1, "exactly one CAS");
        ExclusiveLock::release(&l, &ep, a).unwrap();
        assert_eq!(ep.stats().writes, 1, "exactly one release write");
    }

    #[test]
    fn exclusive_lock_excludes_and_reports_busy() {
        let (f, l, a) = setup();
        let ep1 = f.endpoint();
        let ep2 = f.endpoint();
        ExclusiveLock::acquire(&l, &ep1, a, 1, 0).unwrap();
        assert_eq!(
            ExclusiveLock::acquire(&l, &ep2, a, 2, 3).unwrap_err(),
            LockError::Busy
        );
        ExclusiveLock::release(&l, &ep1, a).unwrap();
        ExclusiveLock::acquire(&l, &ep2, a, 2, 0).unwrap();
    }

    #[test]
    fn riders_are_per_word_and_a_busy_word_re_posts_only_its_own() {
        let (f, l, _) = setup();
        let locks: Vec<GlobalAddr> = (0..3).map(|_| l.alloc(8).unwrap()).collect();
        let data = l.alloc(24).unwrap();
        let holder = f.endpoint();
        l.write(&holder, data, &std::array::from_fn::<u8, 24, _>(|i| i as u8)).unwrap();
        ExclusiveLock::acquire(&l, &holder, locks[1], 42, 0).unwrap();

        // Word 0 brings nothing, word 1 two READs, word 2 one.
        let ep = f.endpoint();
        let mut words: Vec<LockWord> = locks.iter().map(|&addr| LockWord::new(addr)).collect();
        let mut fetched = [[0u8; 8]; 3];
        let [first, second, third] = &mut fetched;
        let mut riders = [
            Rider { word: 1, addr: data, dst: first },
            Rider { word: 1, addr: data.offset_by(8), dst: second },
            Rider { word: 2, addr: data.offset_by(16), dst: third },
        ];
        let err = ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut riders, 7, 2).unwrap_err();
        assert_eq!(err, LockError::Busy);
        assert_eq!(words.iter().map(LockWord::held).collect::<Vec<_>>(), [true, false, true]);
        // One doorbell of 3 CAS + 3 READs, then two rungs of word 1 alone
        // with its own two READs.
        let s = ep.stats();
        assert_eq!((s.cas, s.cas_failures, s.reads), (3 + 2, 3, 3 + 2 * 2));
        assert_eq!(s.wire_round_trips(), 1 + 2);
        assert_eq!(fetched.concat(), (0..24).collect::<Vec<u8>>());
        ExclusiveLock::release_set(&l, &ep, &[], &mut words, 7).unwrap();
        let left: Vec<u64> = locks.iter().map(|&addr| l.read_u64(&ep, addr).unwrap()).collect();
        assert_eq!(left, [0, 42, 0]);
    }

    #[test]
    fn shared_exclusive_costs_at_least_twice_the_exclusive() {
        // §4 Challenge 6: the shared-exclusive lock needs >= 2 RTs.
        let (f, l, a) = setup();
        let ex = f.endpoint();
        ExclusiveLock::acquire(&l, &ex, a, 1, 0).unwrap();
        let ex_cost = ex.clock().now_ns();
        let (f2, l2, a2) = setup();
        let sh = f2.endpoint();
        SharedExclusiveLock::acquire_shared(&l2, &sh, a2, 0).unwrap();
        assert!(
            sh.clock().now_ns() >= 2 * ex_cost,
            "shared {} vs exclusive {}",
            sh.clock().now_ns(),
            ex_cost
        );
        let _ = a;
    }

    #[test]
    fn a_partition_over_the_exit_doorbell_is_retried_not_left_latched() {
        // When the exit doorbell of an uncontended shared acquire leaves,
        // timed on a fault-free twin: the metadata write and the latch
        // release, one doorbell.
        let (f, l, a) = setup();
        let ep = f.endpoint();
        SharedExclusiveLock::enter(&l, &ep, a, 0).unwrap();
        let exit_at = ep.clock().now_ns();
        SharedExclusiveLock::exit(&l, &ep, a, 1).unwrap();
        let s = ep.stats();
        assert_eq!((s.cas, s.reads, s.writes, s.wire_round_trips()), (1, 1, 2, 3));

        // The lock's node is cut off for exactly that doorbell.
        let (f, l, a) = setup();
        f.install_fault_plan(FaultPlan::new(1).partition(a.node(), exit_at, exit_at + 1));
        let ep = f.endpoint();
        SharedExclusiveLock::acquire_shared(&l, &ep, a, 0).unwrap();
        let region = f.region(a.node()).unwrap();
        assert_eq!(region.read_u64(a.offset()).unwrap(), 0, "the latch was released");
        assert_eq!(region.read_u64(a.offset() + 8).unwrap(), 1, "one reader admitted");
    }

    #[test]
    fn readers_admit_concurrently_writer_excludes() {
        let (f, l, a) = setup();
        let r1 = f.endpoint();
        let r2 = f.endpoint();
        let w = f.endpoint();
        SharedExclusiveLock::acquire_shared(&l, &r1, a, 4).unwrap();
        SharedExclusiveLock::acquire_shared(&l, &r2, a, 4).unwrap();
        assert_eq!(
            SharedExclusiveLock::acquire_exclusive(&l, &w, a, 2).unwrap_err(),
            LockError::Timeout
        );
        SharedExclusiveLock::release_shared(&l, &r1, a, 4).unwrap();
        SharedExclusiveLock::release_shared(&l, &r2, a, 4).unwrap();
        SharedExclusiveLock::acquire_exclusive(&l, &w, a, 4).unwrap();
        // Now readers bounce — with a bounded Timeout, not a livelock.
        assert_eq!(
            SharedExclusiveLock::acquire_shared(&l, &r1, a, 2).unwrap_err(),
            LockError::Timeout
        );
        SharedExclusiveLock::release_exclusive(&l, &w, a, 4).unwrap();
        SharedExclusiveLock::acquire_shared(&l, &r1, a, 4).unwrap();
    }

    #[test]
    fn bounded_shared_acquire_under_stuck_writer_costs_backoff() {
        // A writer that never releases (crashed owner) must not livelock
        // the reader: bounded attempts, virtual-time backoff, Timeout.
        let (f, l, a) = setup();
        let w = f.endpoint();
        let r = f.endpoint();
        SharedExclusiveLock::acquire_exclusive(&l, &w, a, 0).unwrap();
        let before = r.clock().now_ns();
        assert_eq!(
            SharedExclusiveLock::acquire_shared(&l, &r, a, 5).unwrap_err(),
            LockError::Timeout
        );
        // 5 backoffs of 100<<attempt ns = 3100 ns on top of the verbs.
        assert!(r.clock().now_ns() >= before + 3_100);
    }

    #[test]
    fn release_violations_are_checked_errors_not_debug_asserts() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        assert_eq!(
            SharedExclusiveLock::release_shared(&l, &ep, a, 4).unwrap_err(),
            LockError::ReleaseViolation("release_shared with no readers")
        );
        assert_eq!(
            SharedExclusiveLock::release_exclusive(&l, &ep, a, 4).unwrap_err(),
            LockError::ReleaseViolation("release_exclusive without writer")
        );
        // The failed releases restored the latch: the lock still works.
        SharedExclusiveLock::acquire_shared(&l, &ep, a, 4).unwrap();
        SharedExclusiveLock::release_shared(&l, &ep, a, 4).unwrap();
    }

    #[test]
    fn lease_word_roundtrips() {
        let w = LeaseLock::encode(7, 3, 123_456);
        assert_eq!(LeaseLock::decode(w), (7, 3, 123_456));
        let w = LeaseLock::encode(u16::MAX, u16::MAX, u32::MAX);
        assert_eq!(LeaseLock::decode(w), (u16::MAX, u16::MAX, u32::MAX));
    }

    #[test]
    fn lease_acquire_release_roundtrip() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        let t = LeaseLock::acquire(&l, &ep, a, 1, 1, 1_000_000, 3).unwrap();
        assert!(!t.stole);
        assert!(LeaseLock::validate(&l, &ep, a, t).unwrap());
        LeaseLock::release(&l, &ep, a, t).unwrap();
        assert_eq!(l.read_u64(&ep, a).unwrap(), 0);
    }

    #[test]
    fn unexpired_lease_times_out_other_acquirers() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let other = f.endpoint();
        let _t = LeaseLock::acquire(&l, &owner, a, 1, 1, 10_000_000, 0).unwrap();
        assert_eq!(
            LeaseLock::acquire(&l, &other, a, 2, 1, 10_000_000, 3).unwrap_err(),
            LockError::Timeout
        );
    }

    #[test]
    fn expired_lease_is_stolen_and_owner_release_fences() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let thief = f.endpoint();
        // Short lease: 50 µs.
        let t = LeaseLock::acquire(&l, &owner, a, 1, 1, 50_000, 0).unwrap();
        // The thief's clock sails past the expiry (owner "crashed").
        thief.charge_local(200_000);
        let s = LeaseLock::acquire(&l, &thief, a, 2, 1, 1_000_000, 0).unwrap();
        assert!(s.stole, "expired lease must be stealable");
        // The zombie owner wakes up: validation and release both fence.
        assert!(!LeaseLock::validate(&l, &owner, a, t).unwrap());
        assert_eq!(
            LeaseLock::release(&l, &owner, a, t).unwrap_err(),
            LockError::Stolen
        );
        // The thief's lease is intact and releasable.
        LeaseLock::release(&l, &thief, a, s).unwrap();
        assert_eq!(l.read_u64(&thief, a).unwrap(), 0);
    }

    #[test]
    fn steal_race_has_exactly_one_winner() {
        // Two thieves race a CAS-steal of the same expired word: the CAS
        // on the observed word guarantees a single winner.
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let _t = LeaseLock::acquire(&l, &owner, a, 1, 1, 1_000, 0).unwrap();
        let wins = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for tid in 2..=5u16 {
                let (f, l) = (f.clone(), l.clone());
                let wins = &wins;
                s.spawn(move || {
                    let ep = f.endpoint();
                    ep.charge_local(10_000_000); // lease long dead
                    if let Ok(tok) = LeaseLock::acquire(&l, &ep, a, tid, 1, 1_000_000, 0) {
                        assert!(tok.stole);
                        wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_for_snapshot_exposes_a_real_two_session_cycle() {
        // Session 1 holds lock A and wants lock B; session 2 holds B and
        // wants A. No-wait bounded acquires fail on both sides, each
        // recording the waiter→holder edge read straight out of the
        // failed CAS; the merged snapshot must report exactly one cycle.
        let (f, l, a) = setup();
        let b = l.alloc(16).unwrap();
        let ep1 = f.endpoint();
        let ep2 = f.endpoint();
        // The contention profile is a fold over the flight recorder.
        ep1.enable_flight_recorder(64);
        ep2.enable_flight_recorder(64);
        ExclusiveLock::acquire(&l, &ep1, a, 1, 0).unwrap();
        ExclusiveLock::acquire(&l, &ep2, b, 2, 0).unwrap();
        assert_eq!(
            ExclusiveLock::acquire(&l, &ep1, b, 1, 1).unwrap_err(),
            LockError::Busy
        );
        assert_eq!(
            ExclusiveLock::acquire(&l, &ep2, a, 2, 1).unwrap_err(),
            LockError::Busy
        );
        let mut merged = ep1.contention_snapshot();
        merged.merge(&ep2.contention_snapshot());
        let wf = merged.wait_for();
        assert!(wf.edges.contains(&rdma_sim::WaitEdge {
            waiter: 1,
            holder: 2,
            addr: b.to_raw()
        }));
        assert!(wf.edges.contains(&rdma_sim::WaitEdge {
            waiter: 2,
            holder: 1,
            addr: a.to_raw()
        }));
        assert_eq!(wf.cycles, 1, "the 1⇄2 deadlock shape must be visible");
        assert!(wf.max_depth >= 2);
        // The backoff waits were attributed to the contended addresses.
        assert!(merged.wait_ns_total > 0);
        assert!(merged
            .wait_top
            .ranked()
            .iter()
            .any(|e| e.key == a.to_raw() || e.key == b.to_raw()));
    }

    #[test]
    fn lock_words_track_holds_and_steals_transfer_ownership() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let thief = f.endpoint();
        let region = f.region(a.node()).unwrap();
        let word = |at: u64| region.read_u64(a.offset() + at).unwrap();

        // Plain exclusive: the holder's tag, then free.
        ExclusiveLock::acquire(&l, &owner, a, 1, 0).unwrap();
        assert_eq!(word(0), 1);
        ExclusiveLock::release(&l, &owner, a).unwrap();
        assert_eq!(word(0), 0);

        // Shared-exclusive: the metadata word counts the reader, then
        // carries the writer bit; the latch is free between calls.
        SharedExclusiveLock::acquire_shared(&l, &owner, a, 4).unwrap();
        assert_eq!((word(0), word(8)), (0, 1));
        SharedExclusiveLock::release_shared(&l, &owner, a, 4).unwrap();
        SharedExclusiveLock::acquire_exclusive(&l, &owner, a, 4).unwrap();
        assert_eq!((word(0), word(8)), (0, WRITER_BIT));
        SharedExclusiveLock::release_exclusive(&l, &owner, a, 4).unwrap();
        assert_eq!(word(8), 0);

        // Lease steal: the word moves from the zombie to the thief, the
        // zombie's fenced release leaves it alone, the thief's frees it.
        let t = LeaseLock::acquire(&l, &owner, a, 1, 1, 50_000, 0).unwrap();
        assert_eq!(word(0), t.word);
        thief.charge_local(200_000);
        let s = LeaseLock::acquire(&l, &thief, a, 2, 1, 1_000_000, 0).unwrap();
        assert!(s.stole);
        assert_eq!(word(0), s.word, "steal is a transfer");
        assert_eq!(
            LeaseLock::release(&l, &owner, a, t).unwrap_err(),
            LockError::Stolen
        );
        assert_eq!(word(0), s.word, "fenced release is a no-op");
        LeaseLock::release(&l, &thief, a, s).unwrap();
        assert_eq!(word(0), 0);
    }

    #[test]
    fn exclusive_lock_mutual_exclusion_under_threads() {
        let (f, l, a) = setup();
        let data = l.alloc(8).unwrap();
        std::thread::scope(|s| {
            for tid in 1..=4u64 {
                let (f, l) = (f.clone(), l.clone());
                s.spawn(move || {
                    let ep = f.endpoint();
                    for _ in 0..500 {
                        loop {
                            if ExclusiveLock::acquire(&l, &ep, a, tid, 50).is_ok() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        let v = l.read_u64(&ep, data).unwrap();
                        l.write_u64(&ep, data, v + 1).unwrap();
                        ExclusiveLock::release(&l, &ep, a).unwrap();
                    }
                });
            }
        });
        let ep = f.endpoint();
        assert_eq!(l.read_u64(&ep, data).unwrap(), 2000);
    }

    #[test]
    fn shared_exclusive_counts_are_exact_under_threads() {
        // Readers and writers hammering the same lock: meta must end at 0
        // and a protected counter must equal the number of writer
        // sections.
        //
        // Backoff only advances *virtual* time, so a call's retry budget
        // is real CPU burnt (up to (budget + 1)^2 CAS/READ/WRITE rounds)
        // while a descheduled latch holder waits for a core. Keep the
        // budget small and let the loop around the call yield the core.
        const BUDGET: u32 = 4;
        fn until_done(mut op: impl FnMut() -> Result<(), LockError>) {
            loop {
                match op() {
                    Ok(()) => return,
                    Err(LockError::Busy | LockError::Timeout) => std::thread::yield_now(),
                    Err(e) => panic!("lock protocol error: {e}"),
                }
            }
        }
        let (f, l, a) = setup();
        let data = l.alloc(8).unwrap();
        let writes_done = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (f, l) = (f.clone(), l.clone());
                let writes_done = &writes_done;
                s.spawn(move || {
                    let ep = f.endpoint();
                    for i in 0..200 {
                        if (t + i) % 4 == 0 {
                            until_done(|| SharedExclusiveLock::acquire_exclusive(&l, &ep, a, BUDGET));
                            let v = l.read_u64(&ep, data).unwrap();
                            l.write_u64(&ep, data, v + 1).unwrap();
                            writes_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            until_done(|| SharedExclusiveLock::release_exclusive(&l, &ep, a, BUDGET));
                        } else {
                            until_done(|| SharedExclusiveLock::acquire_shared(&l, &ep, a, BUDGET));
                            let _ = l.read_u64(&ep, data).unwrap();
                            until_done(|| SharedExclusiveLock::release_shared(&l, &ep, a, BUDGET));
                        }
                    }
                });
            }
        });
        let ep = f.endpoint();
        let final_meta = l.read_u64(&ep, a.offset_by(8)).unwrap();
        assert_eq!(final_meta, 0, "all holders released");
        assert_eq!(
            l.read_u64(&ep, data).unwrap(),
            writes_done.load(std::sync::atomic::Ordering::Relaxed)
        );
    }
}
