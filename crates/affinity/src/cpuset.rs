//! Affinity masks (cpusets) over the hardware threads of a node.

use std::fmt;

/// A set of OS processor IDs, the unit in which all affinity interfaces
/// (`sched_setaffinity`, `taskset`, `pthread_setaffinity_np`) express
/// bindings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CpuSet {
    bits: Vec<u64>,
}

impl CpuSet {
    /// The empty set.
    pub fn new() -> Self {
        CpuSet::default()
    }

    /// A set containing a single hardware thread.
    pub fn single(cpu: usize) -> Self {
        let mut s = CpuSet::new();
        s.insert(cpu);
        s
    }

    /// A set containing all hardware threads `0..n`.
    pub fn all(n: usize) -> Self {
        let mut s = CpuSet::new();
        for cpu in 0..n {
            s.insert(cpu);
        }
        s
    }

    /// Insert a hardware thread.
    pub fn insert(&mut self, cpu: usize) {
        let word = cpu / 64;
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (cpu % 64);
    }

    /// Remove a hardware thread.
    pub fn remove(&mut self, cpu: usize) {
        let word = cpu / 64;
        if let Some(w) = self.bits.get_mut(word) {
            *w &= !(1 << (cpu % 64));
        }
    }

    /// Whether the set contains a hardware thread.
    pub fn contains(&self, cpu: usize) -> bool {
        self.bits.get(cpu / 64).is_some_and(|w| w & (1 << (cpu % 64)) != 0)
    }

    /// Number of hardware threads in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &w)| {
            (0..64).filter_map(
                move |bit| {
                    if w & (1 << bit) != 0 {
                        Some(word * 64 + bit)
                    } else {
                        None
                    }
                },
            )
        })
    }

    /// Intersection with another set.
    pub fn intersection(&self, other: &CpuSet) -> CpuSet {
        let mut out = CpuSet::new();
        for cpu in self.iter() {
            if other.contains(cpu) {
                out.insert(cpu);
            }
        }
        out
    }
}

impl fmt::Display for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let members: Vec<String> = self.iter().map(|c| c.to_string()).collect();
        write!(f, "{{{}}}", members.join(","))
    }
}

impl FromIterator<usize> for CpuSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = CpuSet::new();
        for cpu in iter {
            s.insert(cpu);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = CpuSet::new();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(70);
        assert!(s.contains(3));
        assert!(s.contains(70));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let s: CpuSet = [5usize, 1, 64, 2].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 64]);
    }

    #[test]
    fn union_and_intersection() {
        let a: CpuSet = [0usize, 1, 2].into_iter().collect();
        let b: CpuSet = [2usize, 3].into_iter().collect();
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn all_and_single_constructors() {
        assert_eq!(CpuSet::all(4).len(), 4);
        assert_eq!(CpuSet::single(7).iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn display_lists_members() {
        let s: CpuSet = [1usize, 3].into_iter().collect();
        assert_eq!(s.to_string(), "{1,3}");
    }

    #[test]
    fn removing_from_out_of_range_is_a_noop() {
        let mut s = CpuSet::single(1);
        s.remove(500);
        assert_eq!(s.len(), 1);
    }
}
