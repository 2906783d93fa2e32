//! A minimal slab allocator: stable `usize` keys, O(1) insert/remove via a
//! free list. Used for connections, waiters and signals inside the simulator
//! state so that identifiers stay valid while entries churn.

pub(crate) struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<usize>,
    len: usize,
}

enum Entry<T> {
    Occupied(T),
    Vacant,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { entries: Vec::new(), free: Vec::new(), len: 0 }
    }
}

impl<T> Slab<T> {
    pub(crate) fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            self.entries[idx] = Entry::Occupied(value);
            idx
        } else {
            self.entries.push(Entry::Occupied(value));
            self.entries.len() - 1
        }
    }

    pub(crate) fn remove(&mut self, key: usize) -> Option<T> {
        match self.entries.get_mut(key) {
            Some(slot @ Entry::Occupied(_)) => {
                let old = std::mem::replace(slot, Entry::Vacant);
                self.free.push(key);
                self.len -= 1;
                match old {
                    Entry::Occupied(v) => Some(v),
                    Entry::Vacant => unreachable!(),
                }
            }
            _ => None,
        }
    }

    pub(crate) fn get(&self, key: usize) -> Option<&T> {
        match self.entries.get(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.entries.get_mut(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i, v)),
            Entry::Vacant => None,
        })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i, v)),
            Entry::Vacant => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::default();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_ne!(a, b);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keys_are_reused_after_removal() {
        let mut s = Slab::default();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn iter_skips_vacant() {
        let mut s = Slab::default();
        let a = s.insert(10);
        let _b = s.insert(20);
        s.remove(a);
        let items: Vec<_> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(items, vec![20]);
    }
}
