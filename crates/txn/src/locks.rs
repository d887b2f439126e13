//! RDMA lock primitives — §4 Challenge 6.
//!
//! "RDMA can only implement a simple exclusive spinlock within a single
//! round trip through the CAS atomic primitive. Advanced lock types
//! require more RDMA round trips, e.g., an RDMA shared-exclusive lock
//! needs at least 2 round trips."
//!
//! * [`ExclusiveLock`]: one CAS to acquire (1 RT), one WRITE on the
//!   primary to release ([`GlobalWr::Unlock`]: lock words are not
//!   mirrored, and a rebuilt memory node comes up with them free).
//!   A whole *set* of words is still one round trip each way: the CASes
//!   (each with whatever READs its holder wants right behind it — the
//!   payload, a coherent cache's sharer word, nothing) leave in one
//!   doorbell, and so do the unlocks, behind the holder's write-back.
//! * [`SharedExclusiveLock`]: footnote 2's construction — an exclusive
//!   latch guarding holder metadata, taken as an [`ExclusiveLock`] set.
//!   Round 1: CAS every latch, the metadata READ riding each; round 2:
//!   write the new metadata, then free the latches. Two round trips to
//!   acquire a whole set and two to release it. Readers admit
//!   concurrently; writers drain readers.
//!
//! Both are *no-wait with bounded retries and backoff*: after
//! `max_retries` failed attempts the caller gets [`LockError::Busy`]
//! (latch contention, an exclusive word still held) or
//! [`LockError::Timeout`] (shared-exclusive holders that never drained
//! within the budget) and — in the protocols — aborts. Blocking remotely
//! is expensive, and an unbounded spin under a holder that crashed would
//! wedge the acquirer forever.
//!
//! An exclusive word may carry a lease, in the format of [`LeaseLock`]:
//! `owner | epoch | lease-expiry`. When its owner crashes the lease runs
//! out on the virtual clock and the next acquirer CAS-*steals* the word
//! (Lotus-style recoverable disaggregated locks). Before it writes, the
//! owner seals its words ([`ExclusiveLock::fence`]): that finds a theft
//! and bars any later one.

use dsm::{DsmError, DsmLayer, GlobalAddr, GlobalWr};
use rdma_sim::{Endpoint, Metric, Phase};

/// Lock acquisition failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Lock still held after the retry budget.
    Busy,
    /// A shared-exclusive lock's holders never drained within the
    /// bounded-retry budget (likely crashed or stalled).
    Timeout,
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

/// The endpoint's virtual clock in the lease format's wrapping µs.
fn now_us(ep: &Endpoint) -> u32 {
    (ep.clock().now_ns() / 1_000) as u32
}

/// The 1-round-trip exclusive CAS spinlock.
///
/// Lock word semantics: 0 = free, otherwise the holder's word. An owner
/// tag is nonzero and unique per worker (e.g. `worker_id + 1`); a plain
/// tag is the word itself, a leased one ([`LeaseLock`]) is stamped with
/// its expiry at each CAS.
pub struct ExclusiveLock;

/// One word of an [`ExclusiveLock`] set and what became of it.
///
/// A word enters [`ExclusiveLock::acquire_set`]'s ladder from the `prev`
/// it carries: what its last CAS found there, or a mark that no CAS ran
/// yet. So each new call takes words built with [`LockWord::new`]. A word
/// passed in again after a failed call is judged busy from a stale `prev`
/// before any CAS, and one still held would be re-CASed from its
/// `expected`, fail against its own tag, read as not held, and never be
/// released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWord {
    addr: GlobalAddr,
    /// What the latest CAS expected there: 0, or the lease it stole.
    expected: u64,
    /// What the latest CAS found there: `expected` means it installed
    /// `mine`. [`LockWord::UNTRIED`] until one ran.
    prev: u64,
    /// The word the latest CAS installed.
    mine: u64,
}

impl LockWord {
    /// No owner tag, and read as a sealed lease: neither free nor stolen.
    const UNTRIED: u64 = u64::MAX;

    /// The word at `addr`, not yet tried.
    pub fn new(addr: GlobalAddr) -> Self {
        Self { addr, expected: 0, prev: Self::UNTRIED, mine: 0 }
    }

    /// Whether the set's owner holds the word.
    pub fn held(&self) -> bool {
        self.prev == self.expected
    }

    fn cas(&mut self, owner_tag: u64, now_us: u32) -> GlobalWr<'_> {
        self.mine = LeaseLock::stamp(owner_tag, now_us);
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
        Ok(layer.doorbell(ep, &mut [GlobalWr::Unlock { addr: lock }])?)
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
    /// that is a steal (noted as [`Metric::LockSteals`]), and it costs no
    /// attempt. A plain owner tag is never stolen. However the call ends,
    /// [`LockWord::held`] tells which words the caller now owns and must
    /// pass to [`ExclusiveLock::release_set`].
    ///
    /// Each word enters the ladder from the `prev` it carries, so each
    /// call takes words built with [`LockWord::new`], none of them held
    /// (debug builds assert it).
    pub fn acquire_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        words: &mut [LockWord],
        riders: &mut [Rider<'_>],
        owner_tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        debug_assert!(owner_tag != 0 && owner_tag != LockWord::UNTRIED);
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
                if prev == 0 || LeaseLock::expired(prev, now_us(ep)) {
                    words[i].expected = prev;
                } else if prev != LockWord::UNTRIED {
                    // The failed CAS's `prev` names the holder: a free
                    // wait-for edge for the contention observatory.
                    let holder = LeaseLock::holder(prev);
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
                if words[i].held() && words[i].expected != 0 {
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
    /// holder's write-back), then the unlock of every held word of
    /// `words` — one round trip, all writes ahead of all unlocks. A plain
    /// word unlocks by a WRITE of 0 on its primary ([`GlobalWr::Unlock`];
    /// none if the primary is down), a lease by a CAS from the word it
    /// holds, so a thief's word stays: such an unlock is not retried, and
    /// the call ends in [`LockError::Stolen`] (never once sealed).
    ///
    /// If the doorbell fails, no word may stay locked because another
    /// one's target is down: each held word is then unlocked on its own
    /// and the doorbell's error returned. Those unlocks are CASes from
    /// the word installed, which cannot free a word that the cut-short
    /// doorbell already freed and someone else has taken since.
    pub fn release_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        writes: &[(GlobalAddr, &[u8])],
        words: &mut [LockWord],
    ) -> Result<(), LockError> {
        let held = words.iter().filter(|w| w.held()).count();
        if held == 0 && writes.is_empty() {
            return Ok(());
        }
        let mut wrs = Vec::with_capacity(writes.len() + held);
        wrs.extend(writes.iter().map(|&(addr, src)| GlobalWr::Write { addr, src }));
        for w in words.iter_mut().filter(|w| w.held()) {
            // Still held, the word keeps what it installed in `expected`;
            // a lease's unlock leaves in `mine` what it found.
            (w.expected, w.prev) = (w.mine, w.mine);
            wrs.push(if LeaseLock::leased(w.mine) {
                GlobalWr::Cas { addr: w.addr, expected: w.expected, new: 0, prev: &mut w.mine }
            } else {
                GlobalWr::Unlock { addr: w.addr }
            });
        }
        let posted = layer.doorbell(ep, &mut wrs);
        drop(wrs);
        let mut stolen = false;
        for w in words.iter_mut().filter(|w| w.held()) {
            if posted.is_ok() {
                stolen |= w.mine != w.expected;
            } else if layer.cas(ep, w.addr, w.expected, 0).is_err() {
                continue;
            }
            *w = LockWord::new(w.addr);
        }
        posted?;
        (!stolen).then_some(()).ok_or(LockError::Stolen)
    }
}

/// The shared-exclusive lock is two adjacent words, as footnote 2 builds
/// it: `lock` is the latch that serializes metadata updates, an
/// [`ExclusiveLock`] word holding its taker's owner tag, and `lock + 8`
/// the metadata — bit 63 set while a writer holds the lock, the low 32
/// bits the reader count. Callers must reserve 16 bytes.
const WRITER_BIT: u64 = 1 << 63;
const READER_MASK: u64 = 0xFFFF_FFFF;

/// Latch rounds a release makes: a hold must eventually be given back.
const RELEASE_RETRIES: u32 = 10_000;

/// The ≥2-round-trip shared-exclusive lock (footnote 2), taken and given
/// back a whole set at a time: a set is `(latch, exclusive)` per lock.
pub struct SharedExclusiveLock;

/// The metadata with a hold in mode `exclusive` admitted, or — while
/// `meta` blocks it: a reader waits out a writer, a writer every holder —
/// the error the wait ends in.
fn admit(exclusive: bool, meta: u64) -> Result<u64, LockError> {
    match exclusive {
        true if meta == 0 => Ok(WRITER_BIT),
        false if meta & WRITER_BIT == 0 => Ok(meta + 1),
        _ => Err(LockError::Timeout),
    }
}

/// The metadata with a hold in mode `exclusive` given back, or the
/// violation when `meta` does not show it.
fn give_back(exclusive: bool, meta: u64) -> Result<u64, LockError> {
    match exclusive {
        true if meta & WRITER_BIT != 0 => Ok(meta & !WRITER_BIT),
        true => Err(LockError::ReleaseViolation("exclusive release without writer")),
        false if meta & READER_MASK != 0 => Ok(meta - 1),
        false => Err(LockError::ReleaseViolation("shared release with no readers")),
    }
}

impl SharedExclusiveLock {
    /// Take every lock of `set` in its mode, each latch's [`Rider`]s
    /// (`riders`, sorted by lock) behind its metadata READ: two round
    /// trips for the whole set when nothing blocks it. A busy latch climbs
    /// [`ExclusiveLock::acquire_set`]'s ladder, whose exhaustion is
    /// [`LockError::Busy`]. A lock whose metadata blocks then retries
    /// alone after a backoff, both rounds with its riders read again, up
    /// to `max_retries` times, and then the call ends in
    /// [`LockError::Timeout`]. A call that fails gives back what it took
    /// first; one that succeeds holds every lock, and its riders' bytes
    /// are valid.
    pub fn acquire_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        set: &[(GlobalAddr, bool)],
        riders: &mut [Rider<'_>],
        owner_tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        debug_assert!(!LeaseLock::leased(owner_tag), "a latch is never leased");
        let mut held = vec![false; set.len()];
        let ladder = (max_retries, 0);
        let grown = (|| {
            let admitted = Self::rounds(layer, ep, set, 0, riders, &[], owner_tag, ladder, admit)?;
            for (held, admitted) in held.iter_mut().zip(admitted) {
                *held = admitted.is_ok();
            }
            for (i, &(latch, _)) in set.iter().enumerate() {
                let mut attempt = 0;
                while !held[i] {
                    // The metadata names no holder.
                    ep.note_wait_edge(owner_tag, 0, latch.to_raw());
                    if attempt == max_retries {
                        return Err(LockError::Timeout);
                    }
                    backoff(ep, attempt, latch, 0);
                    attempt += 1;
                    let own = riders.partition_point(|r| r.word < i)..riders.partition_point(|r| r.word <= i);
                    let alone = &set[i..=i];
                    held[i] = Self::rounds(layer, ep, alone, i, &mut riders[own], &[], owner_tag, ladder, admit)?[0].is_ok();
                }
            }
            Ok(())
        })();
        if let Err(e) = grown {
            let taken: Vec<(GlobalAddr, bool)> =
                set.iter().zip(&held).filter_map(|(&lock, &held)| held.then_some(lock)).collect();
            Self::release_set(layer, ep, &[], &taken, owner_tag)?;
            return Err(e);
        }
        Ok(())
    }

    /// Give back every lock of `set`, which the caller holds, `writes` (its
    /// write-back) landing first: two round trips for the whole set. A
    /// hold the metadata does not show is a protocol bug, surfaced as
    /// [`LockError::ReleaseViolation`] (in release builds too): its latch
    /// is freed without a metadata write, and `writes` are dropped.
    pub fn release_set(
        layer: &DsmLayer,
        ep: &Endpoint,
        writes: &[(GlobalAddr, &[u8])],
        set: &[(GlobalAddr, bool)],
        owner_tag: u64,
    ) -> Result<(), LockError> {
        if set.is_empty() {
            return Ok(());
        }
        let given = Self::rounds(layer, ep, set, 0, &mut [], writes, owner_tag, (0, RELEASE_RETRIES), give_back)?;
        given.into_iter().try_for_each(|given| given.map(drop))
    }

    /// Rounds 1 and 2 over `set`, whose first lock is lock `first` of the
    /// caller's set; returns what `next` made of each lock's metadata.
    ///
    /// Round 1 is one [`ExclusiveLock::acquire_set`] over the latches, each
    /// CAS with the metadata READ and then its `riders` behind it, a busy
    /// latch climbing `ladder` rungs. If one stays busy, the latches won
    /// are freed and, after a backoff, the round starts again, up to
    /// `again` times: a round that kept some latches while it waited for
    /// another could wait out a round that holds that one and waits for
    /// them. Round 2 is one [`ExclusiveLock::release_set`]: `writes` if
    /// `next` took every lock's metadata (a [`Phase::Writeback`] span),
    /// then each new metadata, then every latch unlock.
    #[allow(clippy::too_many_arguments)]
    fn rounds(
        layer: &DsmLayer,
        ep: &Endpoint,
        set: &[(GlobalAddr, bool)],
        first: usize,
        riders: &mut [Rider<'_>],
        writes: &[(GlobalAddr, &[u8])],
        owner_tag: u64,
        (ladder, again): (u32, u32),
        next: fn(bool, u64) -> Result<u64, LockError>,
    ) -> Result<Vec<Result<u64, LockError>>, LockError> {
        let mut metas = vec![[0u8; 8]; set.len()];
        let mut attempt = 0;
        let mut latches = loop {
            let mut latches: Vec<LockWord> = set.iter().map(|&(latch, _)| LockWord::new(latch)).collect();
            let latched = {
                let mut riders = riders.iter_mut().peekable();
                let mut all = Vec::with_capacity(set.len() + riders.len());
                for (word, (&(latch, _), dst)) in set.iter().zip(&mut metas).enumerate() {
                    all.push(Rider { word, addr: latch.offset_by(8), dst });
                    while let Some(r) = riders.next_if(|r| r.word == first + word) {
                        all.push(Rider { word, addr: r.addr, dst: &mut *r.dst });
                    }
                }
                ExclusiveLock::acquire_set(layer, ep, &mut latches, &mut all, owner_tag, ladder)
            };
            let Err(e) = latched else { break latches };
            let busy = latches.iter().find(|w| !w.held()).map(|w| w.addr);
            let freed = ExclusiveLock::release_set(layer, ep, &[], &mut latches);
            let Some(busy) = busy.filter(|_| e == LockError::Busy && attempt < again) else {
                return Err(e);
            };
            freed?;
            backoff(ep, attempt, busy, 0);
            // The backoff is virtual time only: let a latch holder that
            // waits for a core run, or the attempts run out in moments.
            std::thread::yield_now();
            attempt += 1;
        };
        let next: Vec<Result<u64, LockError>> =
            set.iter().zip(&metas).map(|(&(_, exclusive), meta)| next(exclusive, u64::from_le_bytes(*meta))).collect();
        let stamps: Vec<(GlobalAddr, [u8; 8])> = (set.iter().zip(&next))
            .filter_map(|(&(latch, _), next)| Some((latch.offset_by(8), next.as_ref().ok()?.to_le_bytes())))
            .collect();
        let writes = if next.iter().all(Result::is_ok) { writes } else { &[] };
        let mut all = writes.to_vec();
        all.extend(stamps.iter().map(|(addr, meta)| (*addr, &meta[..])));
        let _span = (!writes.is_empty()).then(|| ep.span(Phase::Writeback));
        ExclusiveLock::release_set(layer, ep, &all, &mut latches)?;
        Ok(next)
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
                weak_cpu_factor: 4.0,
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
        let writes: Vec<(GlobalAddr, &[u8])> = data.iter().map(|&addr| (addr, &page[..])).collect();
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
        ExclusiveLock::release_set(&l, &ep, &[(data, &42u64.to_le_bytes())], &mut words).unwrap();
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

    /// `tag` takes the lock at `a`, `exclusive` or shared, within
    /// `max_retries`.
    fn take(
        l: &DsmLayer,
        ep: &Endpoint,
        a: GlobalAddr,
        exclusive: bool,
        tag: u64,
        max_retries: u32,
    ) -> Result<(), LockError> {
        SharedExclusiveLock::acquire_set(l, ep, &[(a, exclusive)], &mut [], tag, max_retries)
    }

    /// `tag` gives back the lock at `a`, held `exclusive` or shared.
    fn give(l: &DsmLayer, ep: &Endpoint, a: GlobalAddr, exclusive: bool, tag: u64) -> Result<(), LockError> {
        SharedExclusiveLock::release_set(l, ep, &[], &[(a, exclusive)], tag)
    }

    /// §4 Challenge 6: the exclusive lock is one round trip, the
    /// shared-exclusive lock "needs at least 2" — exactly 2 here, and as
    /// many again to give it back (experiment C2's primitive rows).
    #[test]
    fn shared_exclusive_is_two_round_trips_each_way_and_exclusive_one() {
        let (f, l, a) = setup();
        let ex = f.endpoint();
        ExclusiveLock::acquire(&l, &ex, a, 1, 0).unwrap();
        assert_eq!((ex.stats().wire_round_trips(), ex.clock().now_ns()), (1, 1_850));

        let b = l.alloc(16).unwrap();
        let sh = f.endpoint();
        take(&l, &sh, b, false, 2, 0).unwrap();
        assert_eq!((sh.stats().wire_round_trips(), sh.clock().now_ns()), (2, 3_800));
        give(&l, &sh, b, false, 2).unwrap();
        let s = sh.stats();
        assert_eq!((s.cas, s.reads, s.writes, s.wire_round_trips()), (2, 2, 4, 4));
        assert_eq!(sh.clock().now_ns(), 7_550);
    }

    #[test]
    fn a_partition_over_the_exit_doorbell_is_retried_not_left_latched() {
        // When the metadata doorbell of an uncontended shared acquire
        // leaves, timed on a fault-free twin: the metadata write and the
        // latch release, one doorbell, once the latch doorbell's metadata
        // READ returned.
        let (f, l, a) = setup();
        let ep = f.endpoint();
        ep.enable_flight_recorder(16);
        take(&l, &ep, a, false, 1, 0).unwrap();
        let s = ep.stats();
        assert_eq!((s.cas, s.reads, s.writes, s.wire_round_trips()), (1, 1, 2, 2));
        let read = rdma_sim::EventKind::Verb(rdma_sim::OpKind::Read);
        let exit_at = ep.flight_events().iter().find(|e| e.kind == read).expect("the metadata READ").end_ns;

        // The lock's node is cut off for exactly that doorbell.
        let (f, l, a) = setup();
        f.install_fault_plan(FaultPlan::new(1).partition(a.node(), exit_at, exit_at + 1));
        let ep = f.endpoint();
        take(&l, &ep, a, false, 1, 0).unwrap();
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
        take(&l, &r1, a, false, 1, 4).unwrap();
        take(&l, &r2, a, false, 2, 4).unwrap();
        assert_eq!(take(&l, &w, a, true, 3, 2).unwrap_err(), LockError::Timeout);
        give(&l, &r1, a, false, 1).unwrap();
        give(&l, &r2, a, false, 2).unwrap();
        take(&l, &w, a, true, 3, 4).unwrap();
        // Now readers bounce — with a bounded Timeout, not a livelock.
        assert_eq!(take(&l, &r1, a, false, 1, 2).unwrap_err(), LockError::Timeout);
        give(&l, &w, a, true, 3).unwrap();
        take(&l, &r1, a, false, 1, 4).unwrap();
    }

    /// Three locks, two of them already read by another set: the free
    /// one and the shared one admit in the set's two doorbells; the
    /// writer, blocked, retries alone, its payload READ riding each rung;
    /// and the call that times out gives back the two it took.
    #[test]
    fn a_blocked_lock_retries_alone_with_its_riders() {
        let (f, l, _) = setup();
        let locks: Vec<GlobalAddr> = (0..3).map(|_| l.alloc(16).unwrap()).collect();
        let data = l.alloc(24).unwrap();
        let other = f.endpoint();
        let theirs = [(locks[1], false), (locks[2], false)];
        SharedExclusiveLock::acquire_set(&l, &other, &theirs, &mut [], 9, 0).unwrap();

        let ep = f.endpoint();
        let mut fetched = [[0u8; 8]; 3];
        let [first, second, third] = &mut fetched;
        let mut riders = [
            Rider { word: 0, addr: data, dst: first },
            Rider { word: 1, addr: data.offset_by(8), dst: second },
            Rider { word: 2, addr: data.offset_by(16), dst: third },
        ];
        let set = [(locks[0], false), (locks[1], false), (locks[2], true)];
        let err = SharedExclusiveLock::acquire_set(&l, &ep, &set, &mut riders, 7, 2).unwrap_err();
        assert_eq!(err, LockError::Timeout);
        // Latch doorbell: 3 CAS, each with its metadata and payload READs;
        // metadata doorbell: 2 metadata WRITEs, 3 unlocks; two rungs of the
        // writer alone, each a CAS, two READs and an unlock; then the
        // release of the two held: 2 CAS and READs, 2 WRITEs and unlocks.
        let s = ep.stats();
        let cost = (s.cas, s.reads, s.writes, s.wire_round_trips());
        assert_eq!(cost, (3 + 2 + 2, 6 + 2 * 2 + 2, 5 + 2 + 4, 2 + 2 * 2 + 2));
        let region = f.region(locks[0].node()).unwrap();
        let metas: Vec<u64> = locks.iter().map(|a| region.read_u64(a.offset() + 8).unwrap()).collect();
        assert_eq!(metas, [0, 1, 1], "only the other set's readers are left");
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
                take(&l, &writer, a, true, 1, 0).unwrap();
                taken.wait();
                // Only makes the reader's blocked rungs likely: the
                // assertion holds however the two threads interleave.
                std::thread::sleep(std::time::Duration::from_millis(2));
                SharedExclusiveLock::release_set(&l, &writer, &[(data, &8u64.to_le_bytes())], &[(a, true)], 1).unwrap();
            });
            taken.wait();
            let reader = f.endpoint();
            let mut fetched = [0u8; 8];
            let mut riders = [Rider { word: 0, addr: data, dst: &mut fetched }];
            SharedExclusiveLock::acquire_set(&l, &reader, &[(a, false)], &mut riders, 2, u32::MAX).unwrap();
            assert_eq!(u64::from_le_bytes(fetched), 8);
        });
    }

    #[test]
    fn bounded_shared_acquire_under_stuck_writer_costs_backoff() {
        // A writer that never releases (crashed owner) must not livelock
        // the reader: bounded attempts, virtual-time backoff, Timeout.
        let (f, l, a) = setup();
        let w = f.endpoint();
        let r = f.endpoint();
        take(&l, &w, a, true, 1, 0).unwrap();
        let before = r.clock().now_ns();
        assert_eq!(take(&l, &r, a, false, 2, 5).unwrap_err(), LockError::Timeout);
        // 5 backoffs of 100<<attempt ns = 3100 ns on top of the verbs.
        assert!(r.clock().now_ns() >= before + 3_100);
    }

    #[test]
    fn release_violations_are_checked_errors_not_debug_asserts() {
        let (f, l, a) = setup();
        let ep = f.endpoint();
        assert_eq!(
            give(&l, &ep, a, false, 1).unwrap_err(),
            LockError::ReleaseViolation("shared release with no readers")
        );
        assert_eq!(
            give(&l, &ep, a, true, 1).unwrap_err(),
            LockError::ReleaseViolation("exclusive release without writer")
        );
        // The failed releases freed the latch and wrote no metadata: the
        // lock still works.
        let region = f.region(a.node()).unwrap();
        assert_eq!([0, 8].map(|off| region.read_u64(a.offset() + off).unwrap()), [0, 0]);
        take(&l, &ep, a, false, 1, 4).unwrap();
        give(&l, &ep, a, false, 1).unwrap();
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

        // Shared-exclusive: the metadata word counts the reader, then
        // carries the writer bit; the latch is free between calls.
        take(&l, &owner, a, false, 1, 4).unwrap();
        assert_eq!((word(0), word(8)), (0, 1));
        give(&l, &owner, a, false, 1).unwrap();
        take(&l, &owner, a, true, 1, 4).unwrap();
        assert_eq!((word(0), word(8)), (0, WRITER_BIT));
        give(&l, &owner, a, true, 1).unwrap();
        assert_eq!(word(8), 0);

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
        // Readers and writers hammering the same lock: meta must end at 0
        // and a protected counter must equal the number of writer
        // sections.
        //
        // Backoff only advances *virtual* time, so a call's retry budget
        // is real CPU burnt while a descheduled latch holder waits for a
        // core. Keep the budget small and let the loop around the call
        // yield the core.
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
                    let tag = t as u64 + 1;
                    for i in 0..200 {
                        let set = [(a, (t + i) % 4 == 0)];
                        let mut seen = [0u8; 8];
                        until_done(|| {
                            let mut riders = [Rider { word: 0, addr: data, dst: &mut seen }];
                            SharedExclusiveLock::acquire_set(&l, &ep, &set, &mut riders, tag, BUDGET)
                        });
                        let next = (u64::from_le_bytes(seen) + set[0].1 as u64).to_le_bytes();
                        let writes: &[(GlobalAddr, &[u8])] = if set[0].1 { &[(data, &next)] } else { &[] };
                        writes_done.fetch_add(set[0].1 as u64, std::sync::atomic::Ordering::Relaxed);
                        SharedExclusiveLock::release_set(&l, &ep, writes, &set, tag).unwrap();
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
