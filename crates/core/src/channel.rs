//! Channels and validated channel sets.

use std::fmt;

/// A spectrum channel, numbered `1..=n` as in the paper's `[n]`.
///
/// The zero value is reserved (channels are 1-indexed); [`ChannelSet`]
/// enforces this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(u64);

impl Channel {
    /// Wraps a raw channel number.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0`; channels are 1-indexed.
    pub fn new(id: u64) -> Self {
        assert!(id != 0, "channels are numbered from 1");
        Channel(id)
    }

    /// The raw channel number.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<Channel> for u64 {
    fn from(c: Channel) -> u64 {
        c.0
    }
}

/// Error produced when validating a [`ChannelSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelSetError {
    /// Channel sets must be non-empty.
    Empty,
    /// A channel number was zero (channels are 1-indexed).
    ZeroChannel,
    /// The same channel appeared twice.
    Duplicate(u64),
}

impl fmt::Display for ChannelSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelSetError::Empty => write!(f, "channel set is empty"),
            ChannelSetError::ZeroChannel => write!(f, "channel 0 is invalid (1-indexed)"),
            ChannelSetError::Duplicate(c) => write!(f, "duplicate channel {c}"),
        }
    }
}

impl std::error::Error for ChannelSetError {}

/// A non-empty, duplicate-free set of channels, stored sorted.
///
/// The sorted order defines the *indexing* `a_0 < a_1 < … < a_{k-1}` that
/// the general construction's modular index arithmetic relies on; because
/// the order is canonical, the schedule depends only on the set — the
/// anonymity requirement.
///
/// # Example
///
/// ```
/// use rdv_core::channel::ChannelSet;
///
/// let s = ChannelSet::new(vec![9, 3, 17]).unwrap();
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.channel(0).get(), 3); // sorted
/// assert!(s.contains(17));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelSet {
    sorted: Vec<u64>,
}

impl ChannelSet {
    /// Validates and sorts a collection of channel numbers.
    ///
    /// # Errors
    ///
    /// Returns an error if the collection is empty, contains zero, or
    /// contains duplicates.
    pub fn new(channels: impl IntoIterator<Item = u64>) -> Result<Self, ChannelSetError> {
        let mut sorted: Vec<u64> = channels.into_iter().collect();
        if sorted.is_empty() {
            return Err(ChannelSetError::Empty);
        }
        if sorted.contains(&0) {
            return Err(ChannelSetError::ZeroChannel);
        }
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(ChannelSetError::Duplicate(w[0]));
            }
        }
        Ok(ChannelSet { sorted })
    }

    /// The contiguous set `{1, …, n}` — the full universe, for symmetric
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn full_universe(n: u64) -> Self {
        assert!(n > 0, "empty universe");
        ChannelSet {
            sorted: (1..=n).collect(),
        }
    }

    /// Number of channels `k = |A|`.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Channel sets are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `i`-th smallest channel `a_i` (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn channel(&self, i: usize) -> Channel {
        Channel(self.sorted[i])
    }

    /// The position of `c` in sorted order, if present.
    pub fn index_of(&self, c: u64) -> Option<usize> {
        self.sorted.binary_search(&c).ok()
    }

    /// Whether the set contains channel `c`.
    pub fn contains(&self, c: u64) -> bool {
        self.index_of(c).is_some()
    }

    /// The smallest channel `min A` (the `c₀` of the symmetric wrapper).
    pub fn min_channel(&self) -> Channel {
        Channel(self.sorted[0])
    }

    /// The largest channel `max A`.
    pub fn max_channel(&self) -> Channel {
        Channel(*self.sorted.last().expect("non-empty"))
    }

    /// Iterates over channels in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Channel> + '_ {
        self.sorted.iter().map(|&c| Channel(c))
    }

    /// The sorted raw channel numbers.
    pub fn as_slice(&self) -> &[u64] {
        &self.sorted
    }

    /// The channels common to both sets, in increasing order.
    pub fn intersection(&self, other: &ChannelSet) -> Vec<Channel> {
        self.sorted
            .iter()
            .filter(|c| other.contains(**c))
            .map(|&c| Channel(c))
            .collect()
    }

    /// Whether the two sets overlap (the precondition for rendezvous).
    pub fn overlaps(&self, other: &ChannelSet) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.sorted.iter().any(|&c| large.contains(c))
    }
}

impl fmt::Display for ChannelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.sorted.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rules() {
        assert_eq!(ChannelSet::new(vec![]), Err(ChannelSetError::Empty));
        assert_eq!(
            ChannelSet::new(vec![0, 3]),
            Err(ChannelSetError::ZeroChannel)
        );
        assert_eq!(
            ChannelSet::new(vec![5, 3, 5]),
            Err(ChannelSetError::Duplicate(5))
        );
        assert!(ChannelSet::new(vec![42]).is_ok());
    }

    #[test]
    fn sorted_indexing() {
        let s = ChannelSet::new(vec![30, 10, 20]).unwrap();
        assert_eq!(s.channel(0).get(), 10);
        assert_eq!(s.channel(1).get(), 20);
        assert_eq!(s.channel(2).get(), 30);
        assert_eq!(s.index_of(20), Some(1));
        assert_eq!(s.index_of(25), None);
        assert_eq!(s.min_channel().get(), 10);
        assert_eq!(s.max_channel().get(), 30);
    }

    #[test]
    fn construction_is_order_insensitive() {
        // Anonymity: the set, not the presentation, defines the schedule.
        let a = ChannelSet::new(vec![7, 1, 9]).unwrap();
        let b = ChannelSet::new(vec![9, 7, 1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = ChannelSet::new(vec![1, 3, 5, 7]).unwrap();
        let b = ChannelSet::new(vec![2, 3, 7, 8]).unwrap();
        let c = ChannelSet::new(vec![4, 6]).unwrap();
        let common: Vec<u64> = a.intersection(&b).iter().map(|c| c.get()).collect();
        assert_eq!(common, vec![3, 7]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&b));
    }

    #[test]
    fn full_universe() {
        let u = ChannelSet::full_universe(5);
        assert_eq!(u.len(), 5);
        assert_eq!(u.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn display_formats() {
        let s = ChannelSet::new(vec![2, 1]).unwrap();
        assert_eq!(s.to_string(), "{1,2}");
        assert_eq!(Channel::new(4).to_string(), "ch4");
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn zero_channel_panics() {
        Channel::new(0);
    }

    #[test]
    fn debug_output_lists_every_channel() {
        let s = ChannelSet::new(vec![3, 1, 4]).unwrap();
        let debug = format!("{s:?}");
        assert!(debug.contains('1') && debug.contains('3') && debug.contains('4'));
    }
}
