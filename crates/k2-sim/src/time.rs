//! Simulated time.
//!
//! All timing in the simulation is expressed in integer nanoseconds, which is
//! fine enough to represent single instructions on a 1.2 GHz core (0.83 ns)
//! while keeping arithmetic exact and the simulation deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since boot.
///
/// `SimTime` is an absolute point in time; the difference between two
/// `SimTime`s is a [`SimDuration`].
///
/// # Examples
///
/// ```
/// use k2_sim::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_us(5);
/// assert_eq!(t1 - t0, SimDuration::from_us(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use k2_sim::time::SimDuration;
///
/// let d = SimDuration::from_ms(1) + SimDuration::from_us(500);
/// assert_eq!(d.as_ns(), 1_500_000);
/// assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (boot time).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for timeouts.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant at `ns` nanoseconds since boot.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns nanoseconds since boot.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the time since boot as a floating-point number of seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration since an earlier instant (zero if `earlier` is
    /// actually later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Addition that saturates at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds, rounding
    /// to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ns = s * 1e9;
        assert!(ns <= u64::MAX as f64, "duration overflow: {s}");
        SimDuration(ns.round() as u64)
    }

    /// Returns the duration in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as floating-point microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as floating-point milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction (zero if `rhs > self`).
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics (in debug builds) if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Nanoseconds per second: the scale between cycles and durations.
const NS_PER_SEC: u64 = 1_000_000_000;

/// `a * b / d`, rounded up and saturated at `u64::MAX`. The product is
/// formed in `u64` whenever it fits, so only overflowing operands pay for
/// a `u128` division; both paths give the same value.
#[inline]
fn mul_div_ceil(a: u64, b: u64, d: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p.div_ceil(d),
        None => {
            let q = (a as u128 * b as u128).div_ceil(d as u128);
            q.min(u64::MAX as u128) as u64
        }
    }
}

/// Converts a cycle count at a given core frequency into a duration,
/// rounding up so that work never takes zero time and saturating at
/// [`SimDuration::MAX`]. Counts below 18,446,744,074 cycles (where
/// `cycles × 10⁹` fits in a `u64`) are converted in `u64` arithmetic;
/// only larger ones take a `u128` path.
///
/// # Examples
///
/// ```
/// use k2_sim::time::cycles_to_duration;
///
/// // 350 cycles at 350 MHz is exactly 1 us.
/// assert_eq!(cycles_to_duration(350, 350_000_000).as_ns(), 1_000);
/// // A single cycle still takes at least 1 ns.
/// assert!(cycles_to_duration(1, 1_200_000_000).as_ns() >= 1);
/// ```
#[inline]
pub fn cycles_to_duration(cycles: u64, hz: u64) -> SimDuration {
    assert!(hz > 0, "core frequency must be non-zero");
    SimDuration(mul_div_ceil(cycles, NS_PER_SEC, hz))
}

/// Converts a duration into whole cycles at `hz`, rounding up and
/// saturating at `u64::MAX`: the inverse of [`cycles_to_duration`], with
/// the same `u64` fast path whenever `ns × hz` fits.
///
/// # Examples
///
/// ```
/// use k2_sim::time::{dur_to_cycles, SimDuration};
///
/// assert_eq!(dur_to_cycles(SimDuration::from_us(1), 350_000_000), 350);
/// // A partial cycle counts as a whole one.
/// assert_eq!(dur_to_cycles(SimDuration::from_ns(1), 350_000_000), 1);
/// ```
#[inline]
pub fn dur_to_cycles(d: SimDuration, hz: u64) -> u64 {
    mul_div_ceil(d.0, hz, NS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_ns(1_000);
        let d = SimDuration::from_us(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_ns(), 4_000);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_ns(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_ns(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ns(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_ns(1).saturating_sub(SimDuration::from_ns(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cycles_conversion_rounds_up() {
        assert_eq!(cycles_to_duration(1, 1_000_000_000).as_ns(), 1);
        assert_eq!(cycles_to_duration(3, 2_000_000_000).as_ns(), 2);
        assert_eq!(cycles_to_duration(0, 100).as_ns(), 0);
    }

    /// `a × b / d` rounded up and saturated, computed in `u128` throughout:
    /// what both conversions are defined to return.
    fn reference(a: u64, b: u64, d: u64) -> u64 {
        (a as u128 * b as u128)
            .div_ceil(d as u128)
            .min(u64::MAX as u128) as u64
    }

    /// 1 Hz and the model's core frequencies (M3, A9 operating points).
    const FREQS: [u64; 5] = [1, 100_000_000, 200_000_000, 350_000_000, 1_200_000_000];

    #[test]
    fn cycles_to_duration_matches_u128_across_the_fast_path_boundary() {
        // The largest count whose `cycles × 10⁹` fits in a u64.
        let edge = u64::MAX / NS_PER_SEC;
        assert_eq!(edge, 18_446_744_073);
        assert!((edge + 1).checked_mul(NS_PER_SEC).is_none());
        for hz in FREQS {
            for cycles in [
                0,
                1,
                edge - 1,
                edge,
                edge + 1,
                edge + 2,
                u64::MAX / 2,
                u64::MAX,
            ] {
                assert_eq!(
                    cycles_to_duration(cycles, hz).as_ns(),
                    reference(cycles, NS_PER_SEC, hz),
                    "{cycles} cycles at {hz} Hz"
                );
            }
        }
        // Saturates instead of wrapping.
        assert_eq!(cycles_to_duration(u64::MAX, 350_000_000), SimDuration::MAX);
        assert_eq!(cycles_to_duration(edge + 1, 1), SimDuration::MAX);
    }

    #[test]
    fn dur_to_cycles_matches_u128_across_the_fast_path_boundary() {
        for hz in FREQS {
            // `ns × hz` fits in a u64 up to `last` and overflows above it
            // (at 1 Hz it never does).
            let last = u64::MAX / hz;
            let mut durations = vec![0, 1, last - 1, last, u64::MAX];
            if let Some(over) = last.checked_add(1) {
                assert!(over.checked_mul(hz).is_none());
                durations.extend([over, over.saturating_add(1)]);
            }
            for ns in durations {
                assert_eq!(
                    dur_to_cycles(SimDuration::from_ns(ns), hz),
                    reference(ns, hz, NS_PER_SEC),
                    "{ns} ns at {hz} Hz"
                );
            }
        }
    }

    #[test]
    fn dur_to_cycles_saturates() {
        // Truncating the u128 quotient gave the true value mod 2⁶⁴
        // (3,689,348,814,741,910,322) here.
        assert_eq!(dur_to_cycles(SimDuration::MAX, 1_200_000_000), u64::MAX);
        // Below 1 GHz the product overflows but the quotient fits.
        assert_eq!(
            dur_to_cycles(SimDuration::MAX, 350_000_000),
            6_456_360_425_798_343_066
        );
        assert_eq!(dur_to_cycles(SimDuration::MAX, 1), 18_446_744_074);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn mul_div_scale() {
        let d = SimDuration::from_us(10);
        assert_eq!(d * 3, SimDuration::from_us(30));
        assert_eq!(d / 2, SimDuration::from_us(5));
    }
}
