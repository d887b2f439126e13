//! Fixed-width virtual-time windows: the one geometry behind the
//! counter series ([`crate::timeseries`]) and the per-node utilization
//! tracks ([`crate::utilization::fold`]).
//!
//! A sample at virtual time `t` lands in window `t / width`. Widths only
//! ever grow by integer factors — a recorder doubles its width when a run
//! outgrows [`MAX_WINDOWS`] ([`width_covering`]), a merge aligns both
//! sides to the least common multiple — and
//! `floor(floor(t/w)/f) == floor(t/(w*f))`, so folding later is the same
//! as having recorded coarse from the start. That is what makes every
//! fold here exact, cross-session merges independent of when each
//! session doubled, and the utilization fold free to pick its width once,
//! from the last sample.

use std::cell::{Cell, RefCell};

use crate::timeseries::{MAX_WINDOWS, METRICS};

/// One window of the series: a count per `Metric`.
pub(crate) type Counts = [u64; METRICS];

/// Fold `src`, a window covering an adjacent or identical span, into
/// `dst`.
fn absorb(dst: &mut Counts, src: &Counts) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `width_ns` doubled until a sample at `t_ns` falls inside the first
/// [`MAX_WINDOWS`] windows: the width a recorder that started
/// `width_ns` wide holds once it has seen `t_ns`, whatever it saw
/// before.
pub(crate) fn width_covering(mut width_ns: u64, t_ns: u64) -> u64 {
    while t_ns / width_ns >= MAX_WINDOWS as u64 {
        width_ns *= 2;
    }
    width_ns
}

/// The recording side: contiguous windows from virtual time 0, grown on
/// demand. Width 0 means off — [`Windowed::update`] is then a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug, Default)]
pub(crate) struct Windowed {
    /// Configured width; restored by [`Windowed::clear`].
    base_width_ns: Cell<u64>,
    /// Current width (doubles when a run outgrows [`MAX_WINDOWS`]).
    width_ns: Cell<u64>,
    /// `(start, idx)` of the window found last. A session's clock mostly
    /// stays inside it from one sample to the next, which saves dividing.
    last: Cell<(u64, usize)>,
    windows: RefCell<Vec<Counts>>,
}

impl Windowed {
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

    /// Apply `f` to the window covering `now_ns`, growing the windows to
    /// cover it (and widening them first if that would take more than
    /// [`MAX_WINDOWS`]). Leaves that window in `last`.
    #[inline]
    pub fn update(&self, now_ns: u64, f: impl FnOnce(&mut Counts)) {
        let width = self.width_ns.get();
        if width == 0 {
            return;
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
            windows.resize(idx + 1, [0; METRICS]);
        }
        f(&mut windows[idx]);
    }

    /// Widen to [`width_covering`] `now_ns`, folding the windows; returns
    /// its window index. Runs at most a few dozen times per run, so it
    /// stays out of `update`'s inlined body.
    #[cold]
    fn coalesce_until(&self, now_ns: u64) -> usize {
        let mut width = self.width_ns.get();
        let target = width_covering(width, now_ns);
        coarsen_to(&mut width, &mut self.windows.borrow_mut(), target);
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
    pub fn windows(&self) -> Vec<Counts> {
        self.windows.borrow().clone()
    }
}

/// Re-bucket `windows` from `*width_ns` to `new_width` (must be a
/// multiple). Exact: a sample only moves into the coarser window that
/// already contains its original one. A track without windows just
/// adopts the wider of the two widths.
pub(crate) fn coarsen_to(width_ns: &mut u64, windows: &mut Vec<Counts>, new_width: u64) {
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
            absorb(&mut folded, w);
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
fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Fold the series `(other_width, other)` into `(width_ns, windows)`.
/// Both sides are first coarsened to the least common multiple of their
/// widths, so the operation is associative, commutative and lossless. A
/// side without windows is the identity.
pub(crate) fn merge(width_ns: &mut u64, windows: &mut Vec<Counts>, mut other_width: u64, other: &[Counts]) {
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
    if windows.len() < other.len() {
        windows.resize(other.len(), [0; METRICS]);
    }
    for (d, s) in windows.iter_mut().zip(&other) {
        absorb(d, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample `i` of a deterministic stream of distinct samples.
    fn sample(i: u64) -> Counts {
        let mut w = [0; METRICS];
        w[0] = 1;
        w[(i % 5) as usize + 1] = i + 1;
        w
    }

    fn fold(samples: impl IntoIterator<Item = u64>) -> Counts {
        let mut out = [0; METRICS];
        for i in samples {
            absorb(&mut out, &sample(i));
        }
        out
    }

    /// A recorder `width` wide.
    fn windowed(width: u64) -> Windowed {
        let r = Windowed::default();
        r.enable(width);
        r
    }

    /// Record sample `i` at time `t` for every `(t, i)`, `width` wide.
    fn record(width: u64, at: &[(u64, u64)]) -> (u64, Vec<Counts>) {
        let r = windowed(width);
        for &(t, i) in at {
            r.update(t, |w| absorb(w, &sample(i)));
        }
        (r.width_ns(), r.windows())
    }

    fn merged(a: &(u64, Vec<Counts>), b: &(u64, Vec<Counts>)) -> (u64, Vec<Counts>) {
        let mut out = a.clone();
        merge(&mut out.0, &mut out.1, b.0, &b.1);
        out
    }

    #[test]
    fn off_recorder_records_nothing() {
        let (width, windows) = record(0, &[(100, 0)]);
        assert_eq!(width, 0);
        assert!(windows.is_empty());
        let r = Windowed::default();
        assert!(!r.enabled());
        r.enable(10);
        assert!(r.enabled());
        // The width is reported before the first window exists.
        assert_eq!((r.width_ns(), r.windows().len()), (10, 0));
    }

    #[test]
    fn overflow_doubles_width_without_losing_samples() {
        // One sample per base window across 4x the cap: two doublings.
        let n = 4 * MAX_WINDOWS as u64;
        let at: Vec<(u64, u64)> = (0..n).map(|i| (i * 10, i)).collect();
        let (width, windows) = record(10, &at);
        assert_eq!(width, 40);
        assert_eq!(width, width_covering(10, (n - 1) * 10), "the width depends on the last sample only");
        assert_eq!(windows.len(), MAX_WINDOWS);
        // Every sample stayed in the window covering its timestamp.
        for (k, w) in windows.iter().enumerate() {
            let k = k as u64;
            assert_eq!(*w, fold(4 * k..4 * k + 4), "window {k}");
        }
        let mut total = [0; METRICS];
        windows.iter().for_each(|w| absorb(&mut total, w));
        assert_eq!(total, fold(0..n));
    }

    #[test]
    fn clear_restores_base_width() {
        let r = windowed(10);
        r.update(10 * (MAX_WINDOWS as u64 + 1), |w| absorb(w, &sample(0)));
        assert_eq!(r.width_ns(), 20);
        r.clear();
        assert_eq!(r.width_ns(), 10);
        assert!(r.windows().is_empty());
        r.update(15, |w| absorb(w, &sample(1)));
        assert_eq!(r.windows(), [[0; METRICS], sample(1)]);
    }

    const TRAFFIC: [(u64, u64); 6] = [(0, 0), (60, 1), (199, 2), (250, 3), (10, 4), (150, 5)];

    #[test]
    fn coarsen_equals_recording_coarse_from_the_start() {
        for factor in [1, 2, 3, 7] {
            let (mut width, mut windows) = record(50, &TRAFFIC);
            coarsen_to(&mut width, &mut windows, 50 * factor);
            assert_eq!((width, windows), record(50 * factor, &TRAFFIC));
        }
        // A track without windows adopts the wider width, never a narrower one.
        let (mut width, mut none) = (50, Vec::new());
        coarsen_to(&mut width, &mut none, 75);
        assert_eq!(width, 75);
        coarsen_to(&mut width, &mut none, 50);
        assert_eq!(width, 75);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn coarsen_rejects_a_non_multiple() {
        let (mut width, mut windows) = record(50, &TRAFFIC);
        coarsen_to(&mut width, &mut windows, 75);
    }

    #[test]
    fn merge_aligns_widths_and_is_commutative() {
        // Equal widths, one a multiple of the other, and neither (lcm 300).
        for (wa, wb) in [(100, 100), (50, 100), (300, 100), (100, 150)] {
            let a = record(wa, &TRAFFIC[..4]);
            let b = record(wb, &TRAFFIC[4..]);
            let ab = merged(&a, &b);
            assert_eq!(ab, merged(&b, &a), "merge must be commutative");
            assert_eq!(ab.0, lcm(wa, wb));
            // Lossless: the same as one recorder seeing all the traffic.
            assert_eq!(ab, record(lcm(wa, wb), &TRAFFIC));
        }
    }

    #[test]
    fn merge_identity_and_empties() {
        let s = record(1_000, &[(500, 0)]);
        let empty = (0, Vec::new());
        assert_eq!(merged(&s, &empty), s);
        assert_eq!(merged(&empty, &s), s);
        assert_eq!(merged(&empty, &empty), empty);
        // An enabled recorder that saw nothing is the identity too, and
        // does not impose its width.
        let idle = record(7, &[]);
        assert_eq!(merged(&s, &idle), s);
        assert_eq!(merged(&idle, &s), s);
    }

    #[test]
    fn merge_single_window_inputs_adds_without_padding() {
        let a = record(100, &[(10, 0)]);
        let b = record(100, &[(90, 1)]);
        assert_eq!(merged(&a, &b), (100, vec![fold(0..2)]));
    }

    #[test]
    fn merge_all_zero_windows_change_nothing_but_geometry() {
        let a = record(100, &[(50, 0)]);
        let zeros = (100, vec![[0; METRICS]; 3]);
        // The merged length covers the longer input; no value moves.
        assert_eq!(merged(&a, &zeros), (100, vec![sample(0), [0; METRICS], [0; METRICS]]));
    }
}
