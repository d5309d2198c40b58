//! Virtual time for stream simulation.
//!
//! Streams in this workspace run on a *virtual clock* measured in
//! milliseconds since stream start. Using virtual time (rather than wall
//! time) makes every experiment deterministic and lets a 10-hour paper
//! stream be replayed in seconds.

/// A point in virtual time, in milliseconds since the stream started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The stream origin, `t = 0`.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Milliseconds since stream start.
    #[inline]
    pub const fn millis(self) -> u64 {
        self.0
    }

    /// The timestamp `d` later than `self`.
    #[inline]
    pub const fn after(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }

    /// The timestamp `d` earlier than `self`, saturating at zero.
    #[inline]
    pub const fn before(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// Elapsed time since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[inline]
    pub const fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }

    /// Builds a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000)
    }

    /// Builds a duration from minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Duration {
        Duration(m * 60_000)
    }

    /// The duration in milliseconds.
    #[inline]
    pub const fn millis(self) -> u64 {
        self.0
    }

    /// Scales the duration by an integer factor.
    #[inline]
    pub const fn times(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        self.after(rhs)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t.after(Duration::from_secs(2)), Timestamp(3_000));
        assert_eq!(t.before(Duration::from_secs(2)), Timestamp::ZERO);
        assert_eq!(Timestamp(5_000).since(t), Duration(4_000));
        assert_eq!(t.since(Timestamp(5_000)), Duration::ZERO);
        assert_eq!(t + Duration(5), Timestamp(1_005));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_secs(3).millis(), 3_000);
        assert_eq!(Duration::from_mins(2).millis(), 120_000);
        assert_eq!(Duration::from_millis(7).millis(), 7);
        assert_eq!(Duration::from_secs(1).times(3), Duration::from_secs(3));
        assert_eq!(Duration(1) + Duration(2), Duration(3));
    }

    #[test]
    fn ordering() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(Duration(10) > Duration(9));
    }
}
