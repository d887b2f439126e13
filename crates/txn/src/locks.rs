//! RDMA lock primitives — §4 Challenge 6.
//!
//! "RDMA can only implement a simple exclusive spinlock within a single
//! round trip through the CAS atomic primitive. Advanced lock types
//! require more RDMA round trips, e.g., an RDMA shared-exclusive lock
//! needs at least 2 round trips." That holds for footnote 2's lock, an
//! exclusive latch guarding holder metadata; with fetch-and-add as well
//! as CAS, one word and one round trip each way suffice (experiment C2
//! measures both).
//!
//! [`ExclusiveLock`] takes and gives back a *set* of words, one round trip
//! each way, each word of the set in one of two modes:
//!
//! * exclusive ([`LockWord::new`]): one CAS to acquire, one WRITE on the
//!   primary to release ([`GlobalWr::Unlock`]: lock words are not
//!   mirrored, and a rebuilt memory node comes up with them free) — or
//!   none of its own: a holder's write-back that runs on into the word
//!   frees it, in the WRITE that lands the payload on the primary.
//! * as one of its readers ([`LockWord::reader`]): the shared-exclusive
//!   lock in one word, held by its writer's plain owner tag, or by `n`
//!   readers as `n << 32`. A reader CASes 0 or the reader word it found to
//!   one more reader; a reader's release is one fetch-and-add of
//!   `-(1 << 32)` on the primary, which no contention can refuse.
//!
//! The CASes of a set (each with whatever READs its holder wants right
//! behind it — the payload, a coherent cache's sharer word, nothing) leave
//! in one doorbell, and so do the write-backs and the unlocks.
//!
//! Both are *no-wait with bounded retries and backoff*: after
//! `max_retries` failed attempts the caller gets [`LockError::Busy`] and
//! — in the protocols — aborts. Blocking remotely is expensive, and an
//! unbounded spin under a holder that crashed would wedge the acquirer
//! forever. So a stream of readers holds a writer off only until the
//! writer's retries run out: the no-wait rule, not starvation.
//!
//! An exclusive word may carry a lease, in the format of [`LeaseLock`]:
//! `owner | epoch | lease-expiry`. When its owner crashes the lease runs
//! out on the virtual clock and the next acquirer CAS-*steals* the word
//! (Lotus-style recoverable disaggregated locks). Before it writes, the
//! owner seals its words ([`ExclusiveLock::fence`]): that finds a theft
//! and bars any later one. A reader word never sets the owner bits, so it
//! is never read as a lease.

use dsm::{DsmError, DsmLayer, GlobalAddr, GlobalWr};
use rdma_sim::{Endpoint, Metric};

/// Lock acquisition failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Lock still held after the retry budget.
    Busy,
    /// A leased word changed under its holder: the lease expired and
    /// another worker stole the lock. The ex-owner must not commit.
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
/// holder, e.g. a word held by readers).
#[inline]
fn backoff(ep: &Endpoint, attempt: u32, lock: GlobalAddr, holder_tag: u64) {
    let ns = 100u64 << attempt.min(8);
    ep.charge_local(ns);
    ep.note_lock_wait_traced(lock.to_raw(), ns, holder_tag);
}

/// The endpoint's virtual clock in the lease format's wrapping µs.
fn now_us(ep: &Endpoint) -> u32 {
    (ep.clock().now_ns() / 1_000) as u32
}

/// The 1-round-trip exclusive CAS spinlock, taken and given back a set of
/// words at a time; a set may take some of its words as one of their
/// readers.
///
/// Lock word semantics: 0 = free, otherwise the holder's word. An owner
/// tag is nonzero and unique per worker (e.g. `worker_id + 1`); a plain
/// tag is the word itself, a leased one ([`LeaseLock`]) is stamped with
/// its expiry at each CAS. Readers hold a word as their count
/// ([`LockWord::reader`]).
pub struct ExclusiveLock;

/// One reader's share of a word taken by [`LockWord::reader`]: `n`
/// readers hold it as `n * READER` (`n < 1 << 16`, so the owner bits of
/// [`LeaseLock`] stay clear), a writer as its plain tag, below `READER`.
const READER: u64 = 1 << 32;

/// Whether a reader may join `word`: it is free or held by readers alone.
fn shareable(word: u64) -> bool {
    word.is_multiple_of(READER) && !LeaseLock::leased(word)
}

/// One word of an [`ExclusiveLock`] set and what became of it.
///
/// A word enters [`ExclusiveLock::acquire_set`]'s ladder from the `prev`
/// it carries: what its last CAS found there, or a mark that no CAS ran
/// yet. So each new call takes words built with [`LockWord::new`] or
/// [`LockWord::reader`]. A word passed in again after a failed call is
/// judged busy from a stale `prev` before any CAS, and one still held would
/// be re-CASed from its `expected`, fail against its own tag, read as not
/// held, and never be released. A held word is what
/// [`ExclusiveLock::release_set`] gives back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWord {
    addr: GlobalAddr,
    /// What the latest CAS expected there: 0, the lease it stole, or the
    /// readers it joined.
    expected: u64,
    /// What the latest CAS found there: `expected` means it installed
    /// `mine`. [`LockWord::UNTRIED`] until one ran.
    prev: u64,
    /// The word the latest CAS installed. A reader's is a reader word
    /// from the start ([`LockWord::reader`]), so it tells the mode.
    mine: u64,
}

impl LockWord {
    /// No owner tag, and read as a sealed lease: neither free nor stolen.
    const UNTRIED: u64 = u64::MAX;

    /// The word at `addr`, to be held by the set's owner alone, not yet
    /// tried.
    pub fn new(addr: GlobalAddr) -> Self {
        Self { addr, expected: 0, prev: Self::UNTRIED, mine: 0 }
    }

    /// The word at `addr`, to be held as one of its readers, not yet
    /// tried: it joins readers at once and waits out a writer, and its
    /// release is a fetch-and-add.
    pub fn reader(addr: GlobalAddr) -> Self {
        Self { mine: READER, ..Self::new(addr) }
    }

    /// Whether the word is taken as one of its readers, not by the owner
    /// alone: it installs a reader word, never a tag or a lease.
    fn shared(&self) -> bool {
        self.mine != 0 && shareable(self.mine)
    }

    /// Whether the set's owner holds the word.
    pub fn held(&self) -> bool {
        self.prev == self.expected
    }

    fn cas(&mut self, owner_tag: u64, now_us: u32) -> GlobalWr<'_> {
        self.mine = if self.shared() { self.expected + READER } else { LeaseLock::stamp(owner_tag, now_us) };
        GlobalWr::Cas { addr: self.addr, expected: self.expected, new: self.mine, prev: &mut self.prev }
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

/// A WRITE of a release doorbell ([`ExclusiveLock::release_set`]), which
/// lands ahead of every unlock of the doorbell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBack<'a> {
    /// Where to write.
    pub addr: GlobalAddr,
    /// The bytes.
    pub src: &'a [u8],
    /// Whether `src` runs on into the lock word of its key, its last 8
    /// bytes 0 there: a lock holder's write-back, which frees the word as
    /// it lands ([`RecordTable::write_back`](crate::table::RecordTable::write_back)).
    pub frees: bool,
}

impl<'a> WriteBack<'a> {
    /// `src` at `addr`, no lock word in it.
    pub fn new(addr: GlobalAddr, src: &'a [u8]) -> Self {
        Self { addr, src, frees: false }
    }

    /// The lock word the write frees, if it runs on into one.
    fn frees_at(&self) -> Option<GlobalAddr> {
        self.frees.then(|| self.addr.offset_by(self.src.len() as u64 - 8))
    }
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

    /// Release: one WRITE on the group primary. Only the owner may call
    /// this.
    pub fn release(layer: &DsmLayer, ep: &Endpoint, lock: GlobalAddr) -> Result<(), LockError> {
        Ok(layer.doorbell(ep, &mut [GlobalWr::Unlock { addr: lock, faa: None }])?)
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
    /// A word found free, or holding a lease that expired on `ep`'s
    /// clock, is re-posted at once as a CAS from exactly what was found:
    /// the latter is a steal (noted as [`Metric::LockSteals`]), and
    /// neither costs an attempt. A plain owner tag is never stolen. A
    /// reader's word ([`LockWord::reader`]) found held by readers alone is
    /// re-posted at once too, and joins them; a set with a reader's word
    /// is taken under a plain owner tag (debug builds assert it). However
    /// the call ends, [`LockWord::held`] tells which words the caller now
    /// owns and must pass to [`ExclusiveLock::release_set`].
    ///
    /// Each word enters the ladder from the `prev` it carries, so each
    /// call takes words built with [`LockWord::new`] or
    /// [`LockWord::reader`], none of them held (debug builds assert it).
    pub fn acquire_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        words: &mut [LockWord],
        riders: &mut [Rider<'_>],
        owner_tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        debug_assert!(owner_tag != 0 && owner_tag != LockWord::UNTRIED);
        debug_assert!(owner_tag < READER || !words.iter().any(LockWord::shared), "a writer's word is its plain tag");
        debug_assert!(words.iter().all(|w| !w.held()), "a word enters the ladder held: build it with LockWord::new");
        debug_assert!(riders.windows(2).all(|w| w[0].word <= w[1].word));
        debug_assert!(riders.last().is_none_or(|r| r.word < words.len()));
        if words.len() > 1 {
            Self::post_cas(layer, ep, words, 0, riders, owner_tag)?;
        }
        let waiter = LeaseLock::holder(owner_tag);
        for i in 0..words.len() {
            let mut attempt = 0;
            while !words[i].held() {
                let LockWord { addr, prev, .. } = words[i];
                if prev == 0 || LeaseLock::expired(prev, now_us(ep)) || (words[i].shared() && shareable(prev)) {
                    words[i].expected = prev;
                } else if prev != LockWord::UNTRIED {
                    // The failed CAS's `prev` names the holder (none for
                    // readers): a free wait-for edge for the contention
                    // observatory.
                    let holder = if shareable(prev) { 0 } else { LeaseLock::holder(prev) };
                    ep.note_wait_edge(waiter, holder, addr.to_raw());
                    if attempt == max_retries {
                        return Err(LockError::Busy);
                    }
                    backoff(ep, attempt, addr, holder);
                    attempt += 1;
                    words[i].expected = 0;
                }
                let own = riders.partition_point(|r| r.word < i)..riders.partition_point(|r| r.word <= i);
                Self::post_cas(layer, ep, &mut words[i..=i], i, &mut riders[own], owner_tag)?;
                if words[i].held() && LeaseLock::leased(words[i].expected) {
                    ep.series_note(Metric::LockSteals, 1);
                }
            }
        }
        Ok(())
    }

    /// One doorbell: CAS from what each word of `words` is expected to
    /// hold to the owner's word (none held yet; `words[0]` is word
    /// `first` of the set), each followed by its riders. Words won stay
    /// won even when a later member failed.
    fn post_cas(
        layer: &DsmLayer,
        ep: &Endpoint,
        words: &mut [LockWord],
        first: usize,
        riders: &mut [Rider<'_>],
        owner_tag: u64,
    ) -> Result<(), DsmError> {
        let now = now_us(ep);
        match (words, riders) {
            // The ladder's usual shapes never leave the stack.
            ([word], []) => layer.doorbell(ep, &mut [word.cas(owner_tag, now)]),
            ([word], [rider]) => layer.doorbell(ep, &mut [word.cas(owner_tag, now), rider.read()]),
            (words, riders) => {
                let mut riders = riders.iter_mut().peekable();
                let mut wrs = Vec::with_capacity(words.len() + riders.len());
                for (i, word) in words.iter_mut().enumerate() {
                    wrs.push(word.cas(owner_tag, now));
                    while let Some(rider) = riders.next_if(|r| r.word == first + i) {
                        wrs.push(rider.read());
                    }
                }
                layer.doorbell(ep, &mut wrs)
            }
        }
    }

    /// The fence of a leased set, after its holder executed and before it
    /// writes: one doorbell of CASes seals every held lease word
    /// ([`LeaseLock::SEALED`]), so no steal can land between the fence and
    /// the writes, and any word that is no longer the one installed — its
    /// lease ran out and another worker took it — fails the call with
    /// [`LockError::Stolen`]. A set that holds no lease posts nothing.
    pub fn fence(layer: &DsmLayer, ep: &Endpoint, words: &mut [LockWord]) -> Result<(), LockError> {
        let mut leases: Vec<&mut LockWord> =
            words.iter_mut().filter(|w| w.held() && LeaseLock::leased(w.mine)).collect();
        if leases.is_empty() {
            return Ok(());
        }
        let mut found = vec![0u64; leases.len()];
        let mut seals: Vec<GlobalWr<'_>> = (leases.iter().zip(&mut found))
            .map(|(w, prev)| GlobalWr::Cas { addr: w.addr, expected: w.mine, new: w.mine | LeaseLock::SEALED, prev })
            .collect();
        let posted = layer.doorbell(ep, &mut seals);
        drop(seals);
        // A cut-short doorbell may have sealed some: each word keeps what it holds.
        let mut intact = true;
        for (w, found) in leases.iter_mut().zip(found) {
            let sealed = found == w.mine;
            w.mine |= if sealed { LeaseLock::SEALED } else { 0 };
            intact &= sealed;
        }
        posted?;
        intact.then_some(()).ok_or(LockError::Stolen)
    }

    /// The release doorbell of a lock set: every write of `writes` (the
    /// holder's write-back), then the unlock of every held word of `words`
    /// that no write freed — one round trip. A write that
    /// [`frees`](WriteBack::frees) a word of `words` held by a plain tag
    /// is the word's unlock: a [`GlobalWr::Write`] with `unlock`, which
    /// lands on every backup without the word, then on the primary with it.
    /// A write lands word by word, low to high, so the word comes free only
    /// after the bytes in front of it. A reader's or a lease's word is not
    /// a write's to free: that write is posted without its last 8 bytes.
    /// A plain word that no write frees unlocks by a WRITE of 0 on its
    /// primary ([`GlobalWr::Unlock`]; none if the primary is down), a
    /// reader by a fetch-and-add of `-READER` there, a lease by a CAS from
    /// the word it holds, so a thief's word stays: such an unlock is not
    /// retried, and the call ends in [`LockError::Stolen`] (never once
    /// sealed). A reader whose fetch-and-add found no reader is a protocol
    /// bug: the add is undone and the call ends in
    /// [`LockError::ReleaseViolation`].
    ///
    /// If the doorbell fails, no word may stay locked because another
    /// one's target is down: each held word is then unlocked on its own
    /// and the doorbell's error returned. A word unlocks alone by a CAS
    /// from the word installed — whether a write was to free it or an
    /// unlock — which cannot free a word that the cut-short doorbell
    /// already freed and someone else has taken since, and a reader by its
    /// fetch-and-add again, only if the doorbell never ran it.
    pub fn release_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        writes: &[WriteBack<'_>],
        words: &mut [LockWord],
    ) -> Result<(), LockError> {
        let held = words.iter().filter(|w| w.held()).count();
        if held == 0 && writes.is_empty() {
            return Ok(());
        }
        debug_assert!(
            writes.iter().filter(|wb| wb.frees).all(|wb| wb.src.ends_with(&[0; 8])
                && words.iter().any(|w| w.held() && Some(w.addr) == wb.frees_at())),
            "a write frees a held word of the set, by 8 zero bytes"
        );
        let mut wrs = Vec::with_capacity(writes.len() + held);
        wrs.extend(writes.iter().map(|wb| GlobalWr::Write { addr: wb.addr, src: wb.src, unlock: wb.frees }));
        for w in words.iter_mut().filter(|w| w.held()) {
            // Still held, the word keeps what it installed in `expected`;
            // a lease's unlock or a reader's fetch-and-add leaves in `mine`
            // what it found (a reader's stays `UNTRIED` if its add never
            // ran).
            (w.expected, w.prev) = (w.mine, w.mine);
            if let Some(i) = writes.iter().position(|wb| wb.frees_at() == Some(w.addr)) {
                if !w.shared() && !LeaseLock::leased(w.mine) {
                    continue;
                }
                if let GlobalWr::Write { src, unlock, .. } = &mut wrs[i] {
                    let body = *src;
                    (*src, *unlock) = (&body[..body.len() - 8], false);
                }
            }
            wrs.push(if w.shared() {
                w.mine = LockWord::UNTRIED;
                GlobalWr::Unlock { addr: w.addr, faa: Some((READER.wrapping_neg(), &mut w.mine)) }
            } else if LeaseLock::leased(w.mine) {
                GlobalWr::Cas { addr: w.addr, expected: w.expected, new: 0, prev: &mut w.mine }
            } else {
                GlobalWr::Unlock { addr: w.addr, faa: None }
            });
        }
        let posted = layer.doorbell(ep, &mut wrs);
        drop(wrs);
        let (mut stolen, mut readerless) = (false, false);
        for w in words.iter_mut().filter(|w| w.held()) {
            if shareable(w.expected) {
                // A reader's word: what its add found, and `mine` back.
                let mut prev = std::mem::replace(&mut w.mine, w.expected);
                if posted.is_err() && prev == LockWord::UNTRIED {
                    match layer.faa(ep, w.addr, READER.wrapping_neg()) {
                        Ok(was) => prev = was,
                        Err(_) => continue,
                    }
                }
                if prev < READER {
                    layer.faa(ep, w.addr, READER)?;
                    readerless = true;
                }
            } else if posted.is_ok() {
                stolen |= w.mine != w.expected;
            } else if layer.cas(ep, w.addr, w.expected, 0).is_err() {
                continue;
            }
            *w = LockWord::new(w.addr);
        }
        posted?;
        if readerless {
            return Err(LockError::ReleaseViolation("shared release with no readers"));
        }
        (!stolen).then_some(()).ok_or(LockError::Stolen)
    }
}

/// The format of a leased [`ExclusiveLock`] word: the holder and a lease
/// deadline.
///
/// ```text
/// bits 48..64   owner    (worker id, nonzero)
/// bits 32..48   epoch    (owner's membership epoch — fences zombies)
/// bits  0..32   expiry   (virtual microseconds, wrapping)
/// ```
///
/// A leased *owner tag* ([`LeaseLock::tag`]) is the same word with the
/// lease's length where the expiry goes: each CAS of
/// [`ExclusiveLock::acquire_set`] installs it with `now + length` from
/// the acquirer's clock. Plain owner tags are small ids that never set
/// the owner bits, so a word says by itself whether it is a lease. An
/// expired lease is stolen by a CAS of the exact word seen, so two racers
/// cannot both steal it. A word sealed at its holder's fence
/// ([`LeaseLock::SEALED`], the epoch's top bit) is never stolen: only a
/// clock, the acquirer's own, could tell its writing holder from a dead one.
///
/// Expiry wraps every ~71 virtual minutes (u32 µs); comparisons are
/// wrap-aware over a half-range window, which is sound while leases are
/// far shorter than the wrap period.
pub struct LeaseLock;

impl LeaseLock {
    /// The bit [`ExclusiveLock::fence`] sets in a lease word it seals.
    pub const SEALED: u64 = 1 << 47;

    /// Pack owner/epoch/expiry into a lock word.
    pub fn encode(owner: u16, epoch: u16, expiry_us: u32) -> u64 {
        debug_assert!(owner != 0, "owner tag must be nonzero");
        ((owner as u64) << 48) | ((epoch as u64) << 32) | expiry_us as u64
    }

    /// Unpack a lock word into (owner, epoch, expiry_µs).
    pub fn decode(word: u64) -> (u16, u16, u32) {
        ((word >> 48) as u16, (word >> 32) as u16, word as u32)
    }

    /// The leased owner tag of `owner` in `epoch`, whose words last
    /// `lease_ns` (in whole µs, at least one).
    pub fn tag(owner: u16, epoch: u16, lease_ns: u64) -> u64 {
        debug_assert!(epoch < 1 << 15, "the epoch's top bit is the seal");
        Self::encode(owner, epoch, (lease_ns / 1_000).max(1) as u32)
    }

    /// Whether `word` is in the lease format: its owner bits are set.
    pub fn leased(word: u64) -> bool {
        word >> 48 != 0
    }

    /// Who holds `word`: a lease's owner, or the plain tag itself.
    pub fn holder(word: u64) -> u64 {
        if Self::leased(word) {
            word >> 48
        } else {
            word
        }
    }

    /// Whether `word` is an unsealed lease whose deadline passed by
    /// `now_us`.
    fn expired(word: u64, now_us: u32) -> bool {
        Self::leased(word) && word & Self::SEALED == 0 && now_us.wrapping_sub(word as u32) < (1 << 31)
    }

    /// The word `owner_tag` installs at `now_us`.
    fn stamp(owner_tag: u64, now_us: u32) -> u64 {
        if Self::leased(owner_tag) {
            (owner_tag & !0xFFFF_FFFF) | (owner_tag as u32).wrapping_add(now_us) as u64
        } else {
            owner_tag
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RecordTable;
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
            },
        );
        let addr = layer.alloc(16).unwrap();
        (fabric, layer, addr)
    }

    /// Two groups of 2-way mirrors.
    fn mirrored() -> (Arc<Fabric>, Arc<DsmLayer>) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 4,
                capacity_per_node: 1 << 20,
                replication: 2,
                mem_cores: 1,
            },
        );
        (fabric, layer)
    }

    /// On 2-way mirrors a write-back lands on both members of its group,
    /// an unlock on the primary alone: 4 of each are 12 WRITEs, in one
    /// wire round trip.
    #[test]
    fn a_mirrored_release_set_is_one_round_trip_of_twelve_writes() {
        let (f, l) = mirrored();
        let ep = f.endpoint();
        let locks: Vec<GlobalAddr> = (0..4).map(|i| l.alloc_on(i % 2, 8).unwrap()).collect();
        let data: Vec<GlobalAddr> = (0..4).map(|i| l.alloc_on(i % 2, 64).unwrap()).collect();
        let mut words: Vec<LockWord> = locks.iter().map(|&addr| LockWord::new(addr)).collect();
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0).unwrap();
        let page = [0xC3u8; 64];
        let writes: Vec<WriteBack<'_>> = data.iter().map(|&addr| WriteBack::new(addr, &page)).collect();
        let before = ep.stats();
        ExclusiveLock::release_set(&l, &ep, &writes, &mut words).unwrap();
        let s = ep.stats();
        let posted = (s.writes - before.writes, s.bytes_written - before.bytes_written);
        assert_eq!(posted, (4 * 2 + 4, 4 * 2 * 64 + 4 * 8));
        assert_eq!(s.wire_round_trips() - before.wire_round_trips(), 1);
        assert!(words.iter().all(|w| !w.held()));
        for &lock in &locks {
            assert_eq!(l.read_u64(&ep, lock).unwrap(), 0);
        }
    }

    /// A write-back that runs on into its key's lock word frees it: on
    /// 2-way mirrors each backup takes the payload, the primary the payload
    /// and the word's 0 last, in one WRITE — 4 keys are 8 WRITEs and the
    /// bytes of a write-back and an unlock, in one wire round trip.
    #[test]
    fn a_write_back_that_ends_at_its_lock_word_frees_it() {
        let (f, l) = mirrored();
        let ep = f.endpoint();
        let t = RecordTable::create(&l, 4, 64, 1).unwrap();
        let mut words: Vec<LockWord> = (0..4).map(|key| LockWord::new(t.lock_addr(key))).collect();
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0).unwrap();
        let mut copy = vec![0xC3u8; t.copy_len()];
        copy[64..].fill(0);
        let writes: Vec<WriteBack<'_>> = (0..4).flat_map(|key| t.write_back(key, &copy)).collect();
        let before = ep.stats();
        ExclusiveLock::release_set(&l, &ep, &writes, &mut words).unwrap();
        let s = ep.stats();
        let posted = (s.writes - before.writes, s.bytes_written - before.bytes_written);
        assert_eq!(posted, (4 * 2, 4 * 2 * 64 + 4 * 8));
        assert_eq!(s.wire_round_trips() - before.wire_round_trips(), 1);
        assert!(words.iter().all(|w| !w.held()));
        for key in 0..4 {
            let (lock, payload) = (t.lock_addr(key), t.payload_addr(key, 0));
            assert_eq!(lock, payload.offset_by(64));
            assert_eq!(word_at(&f, lock), 0);
            for m in l.group_members(l.group_index_of(lock.node()).unwrap()) {
                let mut got = [0u8; 64];
                m.region().read(payload.offset(), &mut got).unwrap();
                assert_eq!(got, [0xC3; 64], "member {}", m.id());
            }
        }
        // Under a lease the same write-back lands without the word, which
        // a CAS frees.
        let lease = LeaseLock::tag(3, 1, 1_000_000_000);
        let mut words = [LockWord::new(t.lock_addr(0))];
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], lease, 0).unwrap();
        let before = ep.stats();
        ExclusiveLock::release_set(&l, &ep, &t.write_back(0, &copy).collect::<Vec<_>>(), &mut words).unwrap();
        let s = ep.stats();
        assert_eq!((s.writes - before.writes, s.bytes_written - before.bytes_written, s.cas - before.cas), (2, 128, 1));
        assert_eq!(word_at(&f, t.lock_addr(0)), 0);
    }

    /// The order a fused release lands in: a holder's payload, every word
    /// equal to a counter, is all there by the time the next holder's CAS
    /// finds the word free. Threads take one key's lock on a 2-replica
    /// layer, its payload READ riding the CAS, and check that the payload's
    /// words agree and never go back past what a release that returned had
    /// written; each then writes the next count through
    /// [`ExclusiveLock::release_set`]. No update is lost. The first thread
    /// to see a violation stops them all.
    #[test]
    fn a_fused_release_lands_the_payload_before_the_word_comes_free() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        // One thread per core of a 2-core host, spinning on the word; a
        // long payload widens the window a bad order would open.
        const THREADS: u64 = 2;
        const ROUNDS: u64 = 2_000;
        const PAYLOAD: usize = 4_096;
        let (f, l) = mirrored();
        let t = RecordTable::create(&l, 1, PAYLOAD, 1).unwrap();
        let (lock, at) = (t.lock_addr(0), t.payload_read_addr(0, 0));
        let (released, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        let violation = parking_lot::Mutex::new(None);
        std::thread::scope(|s| {
            for tag in 1..=THREADS {
                let (f, l, t, released, stop, violation) = (&f, &l, &t, &released, &stop, &violation);
                s.spawn(move || {
                    let ep = f.endpoint();
                    let mut copy = vec![0u8; t.copy_len()];
                    for _ in 0..ROUNDS {
                        let floor = released.load(Ordering::Acquire);
                        let mut words = [LockWord::new(lock)];
                        while !stop.load(Ordering::Relaxed) {
                            let mut riders = [Rider { word: 0, addr: at, dst: &mut copy[..PAYLOAD] }];
                            match ExclusiveLock::acquire_set(l, &ep, &mut words, &mut riders, tag, 2) {
                                Ok(()) => break,
                                Err(LockError::Busy) => std::thread::yield_now(),
                                Err(e) => panic!("{e}"),
                            }
                            words = [LockWord::new(lock)];
                        }
                        if !words[0].held() {
                            return;
                        }
                        let count = u64::from_le_bytes(copy[..8].try_into().unwrap());
                        let torn = copy[..PAYLOAD].chunks_exact(8).any(|w| u64::from_le_bytes(w.try_into().unwrap()) != count);
                        let seen = if torn {
                            Some(format!("the payload under the lock is torn around {count}"))
                        } else {
                            (count < floor).then(|| format!("read {count} after a release of {floor} returned"))
                        };
                        if let Some(seen) = seen {
                            violation.lock().get_or_insert(seen);
                            stop.store(true, Ordering::Relaxed);
                            ExclusiveLock::release_set(l, &ep, &[], &mut words).unwrap();
                            return;
                        }
                        for w in copy[..PAYLOAD].chunks_exact_mut(8) {
                            w.copy_from_slice(&(count + 1).to_le_bytes());
                        }
                        let writes: Vec<WriteBack<'_>> = t.write_back(0, &copy).collect();
                        ExclusiveLock::release_set(l, &ep, &writes, &mut words).unwrap();
                        released.fetch_max(count + 1, Ordering::Release);
                    }
                });
            }
        });
        assert_eq!(violation.into_inner(), None);
        let ep = f.endpoint();
        assert_eq!(l.read_u64(&ep, at).unwrap(), THREADS * ROUNDS, "no update is lost");
        assert_eq!(l.read_u64(&ep, lock).unwrap(), 0);
    }

    /// A primary lost while its word is held costs the release nothing:
    /// the unlock is dropped with the word, the write-back lands on the
    /// backup, and the rebuilt primary comes up with the word free.
    #[test]
    fn a_primary_lost_between_acquire_and_release_leaves_the_word_free() {
        let (f, l) = mirrored();
        let ep = f.endpoint();
        let (lock, data) = (l.alloc_on(0, 8).unwrap(), l.alloc_on(0, 8).unwrap());
        let mut words = [LockWord::new(lock)];
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0).unwrap();
        l.crash_member(0, 0).unwrap();
        ExclusiveLock::release_set(&l, &ep, &[WriteBack::new(data, &42u64.to_le_bytes())], &mut words).unwrap();
        assert!(!words[0].held());
        let backup = l.group_members(0)[1].id();
        assert_eq!(f.region(backup).unwrap().read_u64(data.offset()).unwrap(), 42);
        l.recover_member_from_mirror(&ep, 0, 0).unwrap();
        ExclusiveLock::acquire(&l, &ep, lock, 8, 0).unwrap();
        assert_eq!(l.read_u64(&ep, data).unwrap(), 42);
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

    /// A word still held from an earlier call would be re-CASed from its
    /// `expected` value, fail against its own tag, read as not held, and
    /// never be released.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a word enters the ladder held")]
    fn a_held_word_passed_in_again_is_refused() {
        let (f, l, a) = setup();
        let b = l.alloc(8).unwrap();
        let ep = f.endpoint();
        let mut words = [LockWord::new(a), LockWord::new(b)];
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0).unwrap();
        let _ = ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0);
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
        ExclusiveLock::release_set(&l, &ep, &[], &mut words).unwrap();
        let left: Vec<u64> = locks.iter().map(|&addr| l.read_u64(&ep, addr).unwrap()).collect();
        assert_eq!(left, [0, 42, 0]);
    }

    /// The word at `a`, to be held `exclusive` or as one of its readers.
    fn word(a: GlobalAddr, exclusive: bool) -> LockWord {
        if exclusive {
            LockWord::new(a)
        } else {
            LockWord::reader(a)
        }
    }

    /// `tag` takes the lock at `a`, `exclusive` or shared, within
    /// `max_retries`, and gets the word back.
    fn take(
        l: &DsmLayer,
        ep: &Endpoint,
        a: GlobalAddr,
        exclusive: bool,
        tag: u64,
        max_retries: u32,
    ) -> Result<LockWord, LockError> {
        let mut words = [word(a, exclusive)];
        ExclusiveLock::acquire_set(l, ep, &mut words, &mut [], tag, max_retries).map(|()| words[0])
    }

    /// Give back the word `take` got.
    fn give(l: &DsmLayer, ep: &Endpoint, held: LockWord) -> Result<(), LockError> {
        ExclusiveLock::release_set(l, ep, &[], &mut [held])
    }

    /// The word at `a`, read off its node (no verb, no fault plan).
    fn word_at(f: &Fabric, a: GlobalAddr) -> u64 {
        f.region(a.node()).unwrap().read_u64(a.offset()).unwrap()
    }

    /// With fetch-and-add beside CAS, a shared hold is one CAS and one
    /// fetch-and-add, a round trip each way, as an exclusive hold is one
    /// CAS and one WRITE (experiment C2's primitive rows, beside footnote
    /// 2's latch and metadata at two each way).
    #[test]
    fn shared_exclusive_is_one_round_trip_each_way_like_exclusive() {
        let (f, l, a) = setup();
        let ex = f.endpoint();
        ExclusiveLock::acquire(&l, &ex, a, 1, 0).unwrap();
        assert_eq!((ex.stats().wire_round_trips(), ex.clock().now_ns()), (1, 1_850));

        let (f, l, b) = setup();
        let sh = f.endpoint();
        let held = take(&l, &sh, b, false, 2, 0).unwrap();
        assert_eq!((sh.stats().wire_round_trips(), sh.clock().now_ns()), (1, 1_850));
        give(&l, &sh, held).unwrap();
        let s = sh.stats();
        assert_eq!((s.cas, s.faa, s.reads, s.writes, s.wire_round_trips()), (1, 1, 0, 0, 2));
        assert_eq!(sh.clock().now_ns(), 3_700, "an atomic each way");
        assert_eq!(word_at(&f, b), 0);
    }

    #[test]
    fn readers_admit_concurrently_writer_excludes() {
        let (f, l, a) = setup();
        let r1 = f.endpoint();
        let r2 = f.endpoint();
        let w = f.endpoint();
        let first = take(&l, &r1, a, false, 1, 4).unwrap();
        let second = take(&l, &r2, a, false, 2, 4).unwrap();
        assert_eq!(word_at(&f, a), 2 * READER);
        assert_eq!(take(&l, &w, a, true, 3, 2).unwrap_err(), LockError::Busy);
        give(&l, &r1, first).unwrap();
        give(&l, &r2, second).unwrap();
        let writer = take(&l, &w, a, true, 3, 4).unwrap();
        assert_eq!(word_at(&f, a), 3);
        // Now readers bounce — with a bounded Busy, not a livelock.
        assert_eq!(take(&l, &r1, a, false, 1, 2).unwrap_err(), LockError::Busy);
        give(&l, &w, writer).unwrap();
        take(&l, &r1, a, false, 1, 4).unwrap();
    }

    /// A reader that finds readers joins them at once: its CAS is posted
    /// again from the word found, its rider behind it, at no attempt and
    /// no backoff.
    #[test]
    fn a_reader_joins_readers_at_once_with_its_riders() {
        let (f, l, a) = setup();
        let data = l.alloc(8).unwrap();
        l.write_u64(&f.endpoint(), data, 5).unwrap();
        take(&l, &f.endpoint(), a, false, 1, 0).unwrap();
        let ep = f.endpoint();
        let mut fetched = [0u8; 8];
        let mut riders = [Rider { word: 0, addr: data, dst: &mut fetched }];
        ExclusiveLock::acquire_set(&l, &ep, &mut [LockWord::reader(a)], &mut riders, 2, 0).unwrap();
        assert_eq!((u64::from_le_bytes(fetched), word_at(&f, a)), (5, 2 * READER));
        let s = ep.stats();
        assert_eq!((s.cas, s.cas_failures, s.reads, s.wire_round_trips()), (2, 1, 2, 2));
        assert_eq!(ep.clock().now_ns(), 4_050, "two round trips, no backoff");
    }

    /// Three locks, two of them already read by another set: the free
    /// one admits in the set's doorbell, the shared one joins its reader
    /// at once; the writer, blocked, retries alone, its payload READ
    /// riding each rung; and the two it took go back in one doorbell.
    #[test]
    fn a_blocked_lock_retries_alone_with_its_riders() {
        let (f, l, _) = setup();
        let locks: Vec<GlobalAddr> = (0..3).map(|_| l.alloc(8).unwrap()).collect();
        let data = l.alloc(24).unwrap();
        let other = f.endpoint();
        let mut theirs = [LockWord::reader(locks[1]), LockWord::reader(locks[2])];
        ExclusiveLock::acquire_set(&l, &other, &mut theirs, &mut [], 9, 0).unwrap();

        let ep = f.endpoint();
        let mut fetched = [[0u8; 8]; 3];
        let [first, second, third] = &mut fetched;
        let mut riders = [
            Rider { word: 0, addr: data, dst: first },
            Rider { word: 1, addr: data.offset_by(8), dst: second },
            Rider { word: 2, addr: data.offset_by(16), dst: third },
        ];
        let mut words = [LockWord::reader(locks[0]), LockWord::reader(locks[1]), LockWord::new(locks[2])];
        let err = ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut riders, 7, 2).unwrap_err();
        assert_eq!(err, LockError::Busy);
        ExclusiveLock::release_set(&l, &ep, &[], &mut words).unwrap();
        // The set's doorbell: 3 CAS, each with its payload READ; the
        // reader of lock 1 joins at once with its READ; two rungs of the
        // writer alone, each a CAS and a READ; then the release of the two
        // held: 2 fetch-and-adds.
        let s = ep.stats();
        let cost = (s.cas, s.reads, s.faa, s.writes, s.wire_round_trips());
        assert_eq!(cost, (3 + 1 + 2, 3 + 1 + 2, 2, 0, 1 + 1 + 2 + 1));
        let words: Vec<u64> = locks.iter().map(|&a| word_at(&f, a)).collect();
        assert_eq!(words, [0, READER, READER], "only the other set's readers are left");
    }

    /// A reader blocked by a writer reads the payload the writer's
    /// release carried: a rider that came back while the lock blocked is
    /// read again under the reader's own hold.
    #[test]
    fn a_reader_blocked_by_a_writer_reads_what_the_writer_wrote() {
        let (f, l, a) = setup();
        let data = l.alloc(8).unwrap();
        l.write_u64(&f.endpoint(), data, 7).unwrap();
        let taken = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let writer = f.endpoint();
                let held = take(&l, &writer, a, true, 1, 0).unwrap();
                taken.wait();
                // Only makes the reader's blocked rungs likely: the
                // assertion holds however the two threads interleave.
                std::thread::sleep(std::time::Duration::from_millis(2));
                let eight = 8u64.to_le_bytes();
                let writes = [WriteBack::new(data, &eight)];
                ExclusiveLock::release_set(&l, &writer, &writes, &mut [held]).unwrap();
            });
            taken.wait();
            let reader = f.endpoint();
            let mut fetched = [0u8; 8];
            let mut riders = [Rider { word: 0, addr: data, dst: &mut fetched }];
            ExclusiveLock::acquire_set(&l, &reader, &mut [LockWord::reader(a)], &mut riders, 2, u32::MAX).unwrap();
            assert_eq!(u64::from_le_bytes(fetched), 8);
        });
    }

    #[test]
    fn bounded_shared_acquire_under_stuck_writer_costs_backoff() {
        // A writer that never releases (crashed owner) must not livelock
        // the reader: bounded attempts, virtual-time backoff, Busy.
        let (f, l, a) = setup();
        let w = f.endpoint();
        let r = f.endpoint();
        take(&l, &w, a, true, 1, 0).unwrap();
        let before = r.clock().now_ns();
        assert_eq!(take(&l, &r, a, false, 2, 5).unwrap_err(), LockError::Busy);
        // 5 backoffs of 100<<attempt ns = 3100 ns on top of the verbs.
        assert!(r.clock().now_ns() >= before + 3_100);
    }

    /// A release doorbell that a fault plan cuts short — a burst of
    /// transient faults that outlasts the layer's retry budget — leaves
    /// no hold: each word of the set, reader or writer, is given back on
    /// its own, and a writer takes every one at once afterwards.
    #[test]
    fn a_release_doorbell_cut_short_leaves_no_hold() {
        let (f, l, _) = setup();
        let locks: Vec<GlobalAddr> = (0..3).map(|_| l.alloc(8).unwrap()).collect();
        let data = l.alloc(8).unwrap();
        let mut words = [LockWord::reader(locks[0]), LockWord::new(locks[1]), LockWord::reader(locks[2])];
        let ep = f.endpoint();
        ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut [], 7, 0).unwrap();
        let attempts = dsm::RetryPolicy::MAX_ATTEMPTS;
        f.install_fault_plan(FaultPlan::new().transient_first_n(data.node(), attempts));
        let err = ExclusiveLock::release_set(&l, &ep, &[WriteBack::new(data, &[1; 8])], &mut words).unwrap_err();
        assert!(matches!(err, LockError::Dsm(e) if e.is_transient()), "{err:?}");
        assert_eq!(l.read_u64(&ep, data).unwrap(), 0, "the write-back did not land");
        f.clear_fault_plan();
        assert!(words.iter().all(|w| !w.held()));
        for &lock in &locks {
            assert_eq!(word_at(&f, lock), 0);
            ExclusiveLock::acquire(&l, &f.endpoint(), lock, 9, 0).unwrap();
        }
    }

    /// A reader's fetch-and-add that landed before its doorbell was cut
    /// short is not posted again: the doorbell ends at a member that fails
    /// after the pre-flight, as at a node that died mid-doorbell (here a
    /// reader's word past the end of its region, as if held), and the count
    /// is taken once.
    #[test]
    fn a_reader_release_that_landed_is_not_posted_again() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        take(&l, &f.endpoint(), a, false, 1, 0).unwrap();
        let held = take(&l, &ep, a, false, 2, 0).unwrap();
        let beyond = GlobalAddr::new(a.node(), 1 << 20);
        let lost = LockWord { addr: beyond, expected: READER, prev: READER, mine: READER };
        let err = ExclusiveLock::release_set(&l, &ep, &[], &mut [held, lost]).unwrap_err();
        assert!(matches!(err, LockError::Dsm(DsmError::Rdma(rdma_sim::RdmaError::OutOfBounds { .. }))), "{err:?}");
        assert_eq!(word_at(&f, a), READER, "the other reader's share is left");
    }

    /// A reader's release that finds no reader — on a word cleared under
    /// it, or on a writer's — is undone and returned as a checked error;
    /// the word stays as it was.
    #[test]
    fn release_violations_are_checked_errors_not_debug_asserts() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        let region = f.region(a.node()).unwrap();
        let violation = LockError::ReleaseViolation("shared release with no readers");
        for found in [0, 1] {
            let held = take(&l, &ep, a, false, 1, 0).unwrap();
            region.write(a.offset(), &u64::to_le_bytes(found)).unwrap();
            assert_eq!(give(&l, &ep, held).unwrap_err(), violation, "found {found}");
            assert_eq!(word_at(&f, a), found, "the word stays as it was");
            region.write(a.offset(), &[0; 8]).unwrap();
        }
        let held = take(&l, &ep, a, false, 1, 0).unwrap();
        give(&l, &ep, held).unwrap();
        assert_eq!(word_at(&f, a), 0);
    }

    #[test]
    fn lease_word_roundtrips() {
        let w = LeaseLock::encode(7, 3, 123_456);
        assert_eq!(LeaseLock::decode(w), (7, 3, 123_456));
        let w = LeaseLock::encode(u16::MAX, u16::MAX, u32::MAX);
        assert_eq!(LeaseLock::decode(w), (u16::MAX, u16::MAX, u32::MAX));
    }

    /// `owner` takes the one word at `a` under a leased tag of `lease_ns`
    /// and gets the word back.
    fn lease(l: &DsmLayer, ep: &Endpoint, a: GlobalAddr, owner: u16, lease_ns: u64) -> LockWord {
        let mut word = [LockWord::new(a)];
        ExclusiveLock::acquire_set(l, ep, &mut word, &mut [], LeaseLock::tag(owner, 1, lease_ns), 0).unwrap();
        word[0]
    }

    #[test]
    fn lease_acquire_release_roundtrip() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        ep.charge_local(5_000);
        let mut word = [lease(&l, &ep, a, 1, 1_000_000)];
        // Stamped from the acquirer's clock: 5 µs + the lease's 1 000 µs.
        let installed = l.read_u64(&ep, a).unwrap();
        assert_eq!(LeaseLock::decode(installed), (1, 1, 1_005));
        ExclusiveLock::fence(&l, &ep, &mut word).unwrap();
        assert_eq!(l.read_u64(&ep, a).unwrap(), installed | LeaseLock::SEALED);
        ExclusiveLock::release_set(&l, &ep, &[], &mut word).unwrap();
        assert_eq!(l.read_u64(&ep, a).unwrap(), 0);
        // The seal and the unlock are CASes from the word held, not WRITEs.
        let s = ep.stats();
        assert_eq!((s.cas, s.cas_failures, s.writes, s.reads), (3, 0, 0, 3));
    }

    /// Their bounded retries run out on a live lease: the word stays busy.
    #[test]
    fn unexpired_lease_times_out_other_acquirers() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let other = f.endpoint();
        lease(&l, &owner, a, 1, 10_000_000);
        let tag = LeaseLock::tag(2, 1, 10_000_000);
        let err = ExclusiveLock::acquire_set(&l, &other, &mut [LockWord::new(a)], &mut [], tag, 3).unwrap_err();
        assert_eq!(err, LockError::Busy);
        assert_eq!(other.stats().cas, 4, "no steal was tried");
    }

    #[test]
    fn expired_lease_is_stolen_and_owner_release_fences() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let thief = f.endpoint();
        // Short lease: 50 µs.
        let mut stale = [lease(&l, &owner, a, 1, 50_000)];
        // The thief's clock sails past the expiry (owner "crashed").
        thief.charge_local(200_000);
        thief.enable_timeseries(1_000_000);
        let mut stolen = [lease(&l, &thief, a, 2, 1_000_000)];
        assert_eq!(thief.series_snapshot().total(Metric::LockSteals), 1, "the steal is noted");
        // The zombie owner wakes up: its fence and its unlock both fail.
        assert_eq!(ExclusiveLock::fence(&l, &owner, &mut stale).unwrap_err(), LockError::Stolen);
        assert_eq!(ExclusiveLock::release_set(&l, &owner, &[], &mut stale).unwrap_err(), LockError::Stolen);
        assert!(!stale[0].held(), "a failed unlock is not retried");
        // The thief's lease is intact and releasable.
        ExclusiveLock::fence(&l, &thief, &mut stolen).unwrap();
        ExclusiveLock::release_set(&l, &thief, &[], &mut stolen).unwrap();
        assert_eq!(l.read_u64(&thief, a).unwrap(), 0);
    }

    /// Once its holder passed the fence, an expired lease is not stolen
    /// however far ahead the acquirer's clock runs: the write-back that
    /// follows the fence cannot land under a thief's lock.
    #[test]
    fn a_sealed_lease_is_never_stolen() {
        let (f, l, a) = setup();
        let owner = f.endpoint();
        let mut held = [lease(&l, &owner, a, 1, 50_000)];
        ExclusiveLock::fence(&l, &owner, &mut held).unwrap();
        let thief = f.endpoint();
        thief.charge_local(1_000_000_000);
        let tag = LeaseLock::tag(2, 1, 1_000_000);
        let err = ExclusiveLock::acquire_set(&l, &thief, &mut [LockWord::new(a)], &mut [], tag, 2).unwrap_err();
        assert_eq!(err, LockError::Busy);
        ExclusiveLock::release_set(&l, &owner, &[], &mut held).unwrap();
        ExclusiveLock::acquire_set(&l, &thief, &mut [LockWord::new(a)], &mut [], tag, 0).unwrap();
    }

    /// A plain tag carries no expiry: whatever its low bits read as a
    /// deadline, a clock 10⁹ µs past it does not steal the word.
    #[test]
    fn a_plain_tag_is_never_stolen() {
        let (f, l, a) = setup();
        let holder = f.endpoint();
        ExclusiveLock::acquire(&l, &holder, a, 7, 0).unwrap();
        let thief = f.endpoint();
        thief.charge_local(1_000_000_000 * 1_000);
        let tag = LeaseLock::tag(2, 1, 1_000_000);
        let err = ExclusiveLock::acquire_set(&l, &thief, &mut [LockWord::new(a)], &mut [], tag, 2).unwrap_err();
        assert_eq!(err, LockError::Busy);
        assert_eq!(l.read_u64(&thief, a).unwrap(), 7);
    }

    /// The steal is a rung like any other: its riders follow its CAS, so
    /// the thief reads the payload as it is under its own lock.
    #[test]
    fn a_steal_re_posts_the_words_riders() {
        let (f, l, a) = setup();
        let data = l.alloc(8).unwrap();
        let crashed = f.endpoint();
        lease(&l, &crashed, a, 1, 50_000);
        l.write(&crashed, data, &42u64.to_le_bytes()).unwrap();
        let thief = f.endpoint();
        thief.charge_local(200_000);
        let mut fetched = [0u8; 8];
        let mut riders = [Rider { word: 0, addr: data, dst: &mut fetched }];
        let mut word = [LockWord::new(a)];
        let tag = LeaseLock::tag(2, 1, 1_000_000);
        ExclusiveLock::acquire_set(&l, &thief, &mut word, &mut riders, tag, 0).unwrap();
        assert_eq!(u64::from_le_bytes(fetched), 42);
        // The CAS that found the lease, then the steal: each with its READ.
        let s = thief.stats();
        assert_eq!((s.cas, s.cas_failures, s.reads, s.wire_round_trips()), (2, 1, 2, 2));
    }

    #[test]
    fn steal_race_has_exactly_one_winner() {
        // Two thieves both found the same expired word and race to steal
        // it: the CAS from that exact word has a single winner, and the
        // loser finds the winner's live lease.
        let (f, l, a) = setup();
        let owner = f.endpoint();
        lease(&l, &owner, a, 1, 1_000);
        let expired = l.read_u64(&owner, a).unwrap();
        let race = |tid: u16| {
            let ep = f.endpoint();
            ep.charge_local(10_000_000); // lease long dead
            let mut seen = [LockWord { prev: expired, ..LockWord::new(a) }];
            ExclusiveLock::acquire_set(&l, &ep, &mut seen, &mut [], LeaseLock::tag(tid, 1, 1_000_000), 0)
        };
        assert_eq!([race(2), race(3)], [Ok(()), Err(LockError::Busy)]);
        assert_eq!(LeaseLock::decode(l.read_u64(&owner, a).unwrap()).0, 2);
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

        // Shared-exclusive: a reader's share of the word, then the
        // writer's tag, then free.
        let held = take(&l, &owner, a, false, 1, 4).unwrap();
        assert_eq!(word(0), READER);
        give(&l, &owner, held).unwrap();
        let held = take(&l, &owner, a, true, 1, 4).unwrap();
        assert_eq!(word(0), 1);
        give(&l, &owner, held).unwrap();
        assert_eq!(word(0), 0);

        // Lease steal: the word moves from the zombie to the thief, the
        // zombie's fenced release leaves it alone, the thief's frees it.
        let mut stale = [lease(&l, &owner, a, 1, 50_000)];
        assert!(matches!(LeaseLock::decode(word(0)), (1, 1, _)));
        thief.charge_local(200_000);
        let mut stolen = [lease(&l, &thief, a, 2, 1_000_000)];
        assert!(matches!(LeaseLock::decode(word(0)), (2, 1, _)), "steal is a transfer");
        assert_eq!(ExclusiveLock::release_set(&l, &owner, &[], &mut stale).unwrap_err(), LockError::Stolen);
        assert_eq!(LeaseLock::decode(word(0)).0, 2, "fenced release is a no-op");
        ExclusiveLock::release_set(&l, &thief, &[], &mut stolen).unwrap();
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
        // Readers and writers hammering the same lock: the word must end
        // at 0 and a protected counter must equal the number of writer
        // sections.
        //
        // Backoff only advances *virtual* time, so a call's retry budget
        // is real CPU burnt while a descheduled holder waits for a core.
        // Keep the budget small and let the loop around the call yield
        // the core.
        const BUDGET: u32 = 4;
        fn until_done(mut op: impl FnMut() -> Result<(), LockError>) {
            loop {
                match op() {
                    Ok(()) => return,
                    Err(LockError::Busy) => std::thread::yield_now(),
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
                    let tag = t as u64 + 1;
                    for i in 0..200 {
                        let exclusive = (t + i) % 4 == 0;
                        let mut words = [word(a, exclusive)];
                        let mut seen = [0u8; 8];
                        until_done(|| {
                            words = [word(a, exclusive)];
                            let mut riders = [Rider { word: 0, addr: data, dst: &mut seen }];
                            ExclusiveLock::acquire_set(&l, &ep, &mut words, &mut riders, tag, BUDGET)
                        });
                        let next = (u64::from_le_bytes(seen) + exclusive as u64).to_le_bytes();
                        let writes: &[WriteBack<'_>] = if exclusive { &[WriteBack::new(data, &next)] } else { &[] };
                        writes_done.fetch_add(exclusive as u64, std::sync::atomic::Ordering::Relaxed);
                        ExclusiveLock::release_set(&l, &ep, writes, &mut words).unwrap();
                    }
                });
            }
        });
        let ep = f.endpoint();
        assert_eq!(l.read_u64(&ep, a).unwrap(), 0, "all holders released");
        assert_eq!(
            l.read_u64(&ep, data).unwrap(),
            writes_done.load(std::sync::atomic::Ordering::Relaxed)
        );
    }
}
