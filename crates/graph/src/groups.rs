//! Values grouped by a dense key in one flat buffer.

/// Values grouped by a dense key in one flat buffer: the values of key `k`
/// are `values[starts[k]..starts[k + 1]]`, in the order they were listed.
/// Built by a counting sort: two passes over the pairs and three
/// allocations, whatever the key count.
#[derive(Debug)]
pub struct Groups<T> {
    starts: Vec<usize>,
    values: Vec<T>,
}

impl<T: Copy> Groups<T> {
    /// Groups the `(key, value)` pairs that `pairs()` lists, every key below
    /// `key_count`. `pairs` is called twice: to count, then to place.
    pub fn by_key<I>(key_count: usize, pairs: impl Fn() -> I) -> Groups<T>
    where
        I: Iterator<Item = (usize, T)>,
    {
        let mut starts = vec![0usize; key_count + 1];
        let mut first = None;
        for (k, value) in pairs() {
            starts[k + 1] += 1;
            first.get_or_insert(value);
        }
        for k in 0..key_count {
            starts[k + 1] += starts[k];
        }
        // Every slot is overwritten below; `first` only fills them.
        let mut values = first.map_or_else(Vec::new, |first| vec![first; starts[key_count]]);
        let mut next = starts.clone();
        for (k, value) in pairs() {
            values[next[k]] = value;
            next[k] += 1;
        }
        Groups { starts, values }
    }

    /// The values of key `k`; none for a key out of range.
    pub fn get(&self, k: usize) -> &[T] {
        match self.starts.get(k..k.saturating_add(2)) {
            Some(&[from, to]) => &self.values[from..to],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_listing_order_within_a_key() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let groups = Groups::by_key(4, || pairs.iter().copied());
        assert_eq!(groups.get(0), ['b', 'd']);
        assert_eq!(groups.get(1), [] as [char; 0]);
        assert_eq!(groups.get(2), ['a', 'c']);
        assert_eq!(groups.get(3), [] as [char; 0]);
        assert_eq!(groups.get(9), [] as [char; 0]);
        let empty = Groups::<char>::by_key(0, std::iter::empty);
        assert_eq!(empty.get(0), [] as [char; 0]);
    }
}
