//! Fixed-width virtual-time windows: the one geometry behind the
//! counter series ([`crate::timeseries`]), the gauge plane
//! ([`crate::live`]) and the per-node utilization tracks
//! ([`crate::utilization`]).
//!
//! A sample at virtual time `t` lands in window `t / width`. Widths only
//! ever grow by integer factors — a recorder doubles its width when a run
//! outgrows [`MAX_WINDOWS`], a merge aligns both sides to the least
//! common multiple — and `floor(floor(t/w)/f) == floor(t/(w*f))`, so
//! folding later is the same as having recorded coarse from the start.
//! That is what makes every fold here exact and cross-session merges
//! independent of when each session doubled.
//!
//! The element type supplies only how two windows fold ([`Window`]);
//! what a window *means* (counts, net gauge deltas, load with a
//! high-water mark) stays with the plane that owns it.

use std::cell::{Cell, RefCell, RefMut};

use crate::timeseries::MAX_WINDOWS;

/// One window's worth of samples.
pub(crate) trait Window: Copy {
    /// The window no sample has landed in; the identity of `absorb`.
    const ZERO: Self;

    /// Fold `other`, a window covering an adjacent or identical span,
    /// into `self`. Must be associative and commutative.
    fn absorb(&mut self, other: &Self);
}

impl<const N: usize> Window for [u64; N] {
    const ZERO: Self = [0; N];

    fn absorb(&mut self, other: &Self) {
        for (d, s) in self.iter_mut().zip(other) {
            *d += s;
        }
    }
}

impl<const N: usize> Window for [i64; N] {
    const ZERO: Self = [0; N];

    fn absorb(&mut self, other: &Self) {
        for (d, s) in self.iter_mut().zip(other) {
            *d += s;
        }
    }
}

/// The recording side: contiguous windows from virtual time 0, grown on
/// demand. Width 0 means off — [`Windowed::update`] is then a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug)]
pub(crate) struct Windowed<W> {
    /// Configured width; restored by [`Windowed::clear`].
    base_width_ns: Cell<u64>,
    /// Current width (doubles when a run outgrows [`MAX_WINDOWS`]).
    width_ns: Cell<u64>,
    /// `(start, idx)` of the window found last. A session's clock mostly
    /// stays inside it from one sample to the next, which saves dividing.
    last: Cell<(u64, usize)>,
    windows: RefCell<Vec<W>>,
}

impl<W: Window> Default for Windowed<W> {
    /// Off until [`Windowed::enable`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl<W: Window> Windowed<W> {
    /// No windows yet, `width_ns` wide once there are.
    pub fn new(width_ns: u64) -> Self {
        Self {
            base_width_ns: Cell::new(width_ns),
            width_ns: Cell::new(width_ns),
            last: Cell::new((0, 0)),
            windows: RefCell::new(Vec::new()),
        }
    }

    /// Drop every window and restart at `width_ns` (0 turns recording off).
    pub fn enable(&self, width_ns: u64) {
        self.base_width_ns.set(width_ns);
        self.clear();
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.width_ns.get() != 0
    }

    /// Current width — reported even while there are no windows.
    pub fn width_ns(&self) -> u64 {
        self.width_ns.get()
    }

    /// Apply `f` to the window covering `now_ns`.
    #[inline]
    pub fn update(&self, now_ns: u64, f: impl FnOnce(&mut W)) {
        if let Some((mut windows, idx)) = self.locate(now_ns) {
            f(&mut windows[idx]);
        }
    }

    /// Apply `then_f` to the window covering `then_ns` and `now_f` to the
    /// one covering the later `now_ns`: the same as two [`Windowed::update`]s
    /// in that order, with one lookup when both fall in one window.
    #[inline]
    pub fn update_pair(
        &self,
        then_ns: u64,
        now_ns: u64,
        then_f: impl FnOnce(&mut W),
        now_f: impl FnOnce(&mut W),
    ) {
        debug_assert!(then_ns <= now_ns);
        if let Some((mut windows, idx)) = self.locate(now_ns) {
            let then_idx = if then_ns >= self.last.get().0 {
                idx
            } else {
                (then_ns / self.width_ns.get()) as usize
            };
            then_f(&mut windows[then_idx]);
            now_f(&mut windows[idx]);
        }
    }

    /// The windows, grown to cover `now_ns` (and widened first if that
    /// would take more than [`MAX_WINDOWS`]), with the index of the one
    /// that does; `None` while recording is off. Leaves that window in
    /// `last`.
    #[inline]
    fn locate(&self, now_ns: u64) -> Option<(RefMut<'_, Vec<W>>, usize)> {
        let width = self.width_ns.get();
        if width == 0 {
            return None;
        }
        let (start, mut idx) = self.last.get();
        // Also false for a `now_ns` before `start`: the difference wraps.
        if now_ns.wrapping_sub(start) >= width {
            idx = (now_ns / width) as usize;
            if idx >= MAX_WINDOWS {
                idx = self.coalesce_until(now_ns);
            }
            self.last.set((idx as u64 * self.width_ns.get(), idx));
        }
        let mut windows = self.windows.borrow_mut();
        if windows.len() <= idx {
            windows.resize(idx + 1, W::ZERO);
        }
        Some((windows, idx))
    }

    /// Double the width, folding windows pairwise, until `now_ns` falls
    /// under [`MAX_WINDOWS`]; returns its window index. Runs at most a
    /// few dozen times per run, so it stays out of `update`'s inlined body.
    #[cold]
    fn coalesce_until(&self, now_ns: u64) -> usize {
        let mut width = self.width_ns.get();
        let mut windows = self.windows.borrow_mut();
        while now_ns / width >= MAX_WINDOWS as u64 {
            let doubled = width * 2;
            coarsen_to(&mut width, &mut windows, doubled);
        }
        self.width_ns.set(width);
        (now_ns / width) as usize
    }

    /// Drop every window and restore the configured width.
    pub fn clear(&self) {
        self.width_ns.set(self.base_width_ns.get());
        self.last.set((0, 0));
        self.windows.borrow_mut().clear();
    }

    /// Copy out the windows recorded so far.
    pub fn windows(&self) -> Vec<W> {
        self.windows.borrow().clone()
    }
}

/// Re-bucket `windows` from `*width_ns` to `new_width` (must be a
/// multiple). Exact: a sample only moves into the coarser window that
/// already contains its original one. A track without windows just
/// adopts the wider of the two widths.
pub(crate) fn coarsen_to<W: Window>(width_ns: &mut u64, windows: &mut Vec<W>, new_width: u64) {
    if *width_ns == new_width || windows.is_empty() {
        *width_ns = new_width.max(*width_ns);
        return;
    }
    assert!(
        new_width.is_multiple_of(*width_ns),
        "coarsen_to({new_width}) not a multiple of {width_ns}"
    );
    let f = (new_width / *width_ns) as usize;
    let coarse_len = windows.len().div_ceil(f);
    for i in 0..coarse_len {
        let mut folded = windows[i * f];
        for w in &windows[i * f + 1..windows.len().min((i + 1) * f)] {
            folded.absorb(w);
        }
        windows[i] = folded;
    }
    windows.truncate(coarse_len);
    *width_ns = new_width;
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The narrowest width both `a`- and `b`-wide windows coarsen to exactly.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Fold the equally wide `src` into `dst` window by window.
pub(crate) fn absorb_aligned<W: Window>(dst: &mut Vec<W>, src: &[W]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), W::ZERO);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb(s);
    }
}

/// Fold the series `(other_width, other)` into `(width_ns, windows)`.
/// Both sides are first coarsened to the least common multiple of their
/// widths, so the operation is associative, commutative and lossless. A
/// side without windows is the identity.
pub(crate) fn merge<W: Window>(
    width_ns: &mut u64,
    windows: &mut Vec<W>,
    mut other_width: u64,
    other: &[W],
) {
    if other.is_empty() {
        return;
    }
    if windows.is_empty() {
        *width_ns = other_width;
        *windows = other.to_vec();
        return;
    }
    let target = lcm(*width_ns, other_width);
    coarsen_to(width_ns, windows, target);
    let mut other = other.to_vec();
    coarsen_to(&mut other_width, &mut other, target);
    absorb_aligned(windows, &other);
}

#[cfg(test)]
mod tests {
    //! One set of geometry tests, run over the element type of every
    //! plane: counter vectors, signed gauge deltas, and utilization
    //! windows (whose `queue_hwm_ns` folds by max, not by addition).

    use std::fmt::Debug;

    use super::*;
    use crate::live::GAUGES;
    use crate::timeseries::METRICS;
    use crate::utilization::UtilWindow;

    /// A deterministic stream of distinct samples of one element type.
    trait Sample: Window + PartialEq + Debug {
        fn sample(i: u64) -> Self;
    }

    impl Sample for [u64; METRICS] {
        fn sample(i: u64) -> Self {
            let mut w = [0; METRICS];
            w[0] = 1;
            w[(i % 5) as usize + 1] = i + 1;
            w
        }
    }

    impl Sample for [i64; GAUGES] {
        fn sample(i: u64) -> Self {
            let mut w = [0; GAUGES];
            w[0] = 1;
            // Signed: releases as well as acquires.
            w[(i % 3) as usize + 1] = 2 - (i % 5) as i64;
            w
        }
    }

    impl Sample for UtilWindow {
        fn sample(i: u64) -> Self {
            UtilWindow {
                ingress_bytes: 8 * (i % 2),
                egress_bytes: 8 * ((i + 1) % 2),
                verbs: 1,
                remote_ns: 5 + i,
                queue_hwm_ns: (i % 7) * 10,
            }
        }
    }

    fn fold<W: Sample>(samples: impl IntoIterator<Item = u64>) -> W {
        let mut out = W::ZERO;
        for i in samples {
            out.absorb(&W::sample(i));
        }
        out
    }

    /// Record sample `i` at time `t` for every `(t, i)`, `width` wide.
    fn record<W: Sample>(width: u64, at: &[(u64, u64)]) -> (u64, Vec<W>) {
        let r = Windowed::<W>::new(width);
        for &(t, i) in at {
            r.update(t, |w| w.absorb(&W::sample(i)));
        }
        (r.width_ns(), r.windows())
    }

    fn merged<W: Sample>(a: &(u64, Vec<W>), b: &(u64, Vec<W>)) -> (u64, Vec<W>) {
        let mut out = a.clone();
        merge(&mut out.0, &mut out.1, b.0, &b.1);
        out
    }

    /// Instantiate each generic check once per plane's element type.
    macro_rules! for_every_element_type {
        ($($check:ident),* $(,)?) => {$(
            mod $check {
                use super::*;

                #[test]
                fn counters() {
                    super::$check::<[u64; METRICS]>();
                }

                #[test]
                fn gauge_deltas() {
                    super::$check::<[i64; GAUGES]>();
                }

                #[test]
                fn util_windows() {
                    super::$check::<UtilWindow>();
                }
            }
        )*};
    }

    for_every_element_type!(
        off_recorder_records_nothing,
        overflow_doubles_width_without_losing_samples,
        clear_restores_base_width,
        coarsen_equals_recording_coarse_from_the_start,
        merge_aligns_widths_and_is_commutative,
        merge_identity_and_empties,
        merge_single_window_inputs_adds_without_padding,
        merge_all_zero_windows_change_nothing_but_geometry,
    );

    fn off_recorder_records_nothing<W: Sample>() {
        let (width, windows) = record::<W>(0, &[(100, 0)]);
        assert_eq!(width, 0);
        assert!(windows.is_empty());
        let r = Windowed::<W>::default();
        assert!(!r.enabled());
        r.enable(10);
        assert!(r.enabled());
        // The width is reported before the first window exists.
        assert_eq!((r.width_ns(), r.windows().len()), (10, 0));
    }

    fn overflow_doubles_width_without_losing_samples<W: Sample>() {
        // One sample per base window across 4x the cap: two doublings.
        let n = 4 * MAX_WINDOWS as u64;
        let at: Vec<(u64, u64)> = (0..n).map(|i| (i * 10, i)).collect();
        let (width, windows) = record::<W>(10, &at);
        assert_eq!(width, 40);
        assert_eq!(windows.len(), MAX_WINDOWS);
        // Every sample stayed in the window covering its timestamp —
        // sums add up and maxima survive.
        for (k, w) in windows.iter().enumerate() {
            let k = k as u64;
            assert_eq!(*w, fold(4 * k..4 * k + 4), "window {k}");
        }
        let mut total = W::ZERO;
        windows.iter().for_each(|w| total.absorb(w));
        assert_eq!(total, fold(0..n));
    }

    fn clear_restores_base_width<W: Sample>() {
        let r = Windowed::<W>::new(10);
        r.update(10 * (MAX_WINDOWS as u64 + 1), |w| w.absorb(&W::sample(0)));
        assert_eq!(r.width_ns(), 20);
        r.clear();
        assert_eq!(r.width_ns(), 10);
        assert!(r.windows().is_empty());
        r.update(15, |w| w.absorb(&W::sample(1)));
        assert_eq!(r.windows(), [W::ZERO, W::sample(1)]);
    }

    const TRAFFIC: [(u64, u64); 6] = [(0, 0), (60, 1), (199, 2), (250, 3), (10, 4), (150, 5)];

    fn coarsen_equals_recording_coarse_from_the_start<W: Sample>() {
        for factor in [1, 2, 3, 7] {
            let (mut width, mut windows) = record::<W>(50, &TRAFFIC);
            coarsen_to(&mut width, &mut windows, 50 * factor);
            assert_eq!((width, windows), record::<W>(50 * factor, &TRAFFIC));
        }
        // A track without windows adopts the wider width, never a narrower one.
        let (mut width, mut none) = (50, Vec::<W>::new());
        coarsen_to(&mut width, &mut none, 75);
        assert_eq!(width, 75);
        coarsen_to(&mut width, &mut none, 50);
        assert_eq!(width, 75);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn coarsen_rejects_a_non_multiple() {
        let (mut width, mut windows) = record::<UtilWindow>(50, &TRAFFIC);
        coarsen_to(&mut width, &mut windows, 75);
    }

    fn merge_aligns_widths_and_is_commutative<W: Sample>() {
        // Equal widths, one a multiple of the other, and neither (lcm 300).
        for (wa, wb) in [(100, 100), (50, 100), (300, 100), (100, 150)] {
            let a = record::<W>(wa, &TRAFFIC[..4]);
            let b = record::<W>(wb, &TRAFFIC[4..]);
            let ab = merged(&a, &b);
            assert_eq!(ab, merged(&b, &a), "merge must be commutative");
            assert_eq!(ab.0, lcm(wa, wb));
            // Lossless: the same as one recorder seeing all the traffic.
            assert_eq!(ab, record::<W>(lcm(wa, wb), &TRAFFIC));
        }
    }

    fn merge_identity_and_empties<W: Sample>() {
        let s = record::<W>(1_000, &[(500, 0)]);
        let empty = (0, Vec::new());
        assert_eq!(merged(&s, &empty), s);
        assert_eq!(merged(&empty, &s), s);
        assert_eq!(merged(&empty, &empty), empty);
        // An enabled recorder that saw nothing is the identity too, and
        // does not impose its width.
        let idle = record::<W>(7, &[]);
        assert_eq!(merged(&s, &idle), s);
        assert_eq!(merged(&idle, &s), s);
    }

    fn merge_single_window_inputs_adds_without_padding<W: Sample>() {
        let a = record::<W>(100, &[(10, 0)]);
        let b = record::<W>(100, &[(90, 1)]);
        assert_eq!(merged(&a, &b), (100, vec![fold(0..2)]));
    }

    fn merge_all_zero_windows_change_nothing_but_geometry<W: Sample>() {
        let a = record::<W>(100, &[(50, 0)]);
        let zeros = (100, vec![W::ZERO; 3]);
        // The merged length covers the longer input; no value moves.
        assert_eq!(merged(&a, &zeros), (100, vec![W::sample(0), W::ZERO, W::ZERO]));
    }
}
