//! A fixed-capacity vector stored inline, with no heap allocation.
//!
//! `DynInstr` (the per-dynamic-instruction record emitted by the functional
//! simulator) carries its read set and write set in `InlineVec`s of
//! `MAX_READS` = 4 and `MAX_WRITES` = 2 locations (`tlr_isa::dynrec`),
//! with headroom: today a load reads its base register plus one memory
//! word, a store its value and base registers, and an instruction writes
//! at most one register or memory word. Keeping those sets inline means
//! a 50 M-instruction run performs zero allocations in the execute/observe
//! loop, and dropping a `DynInstr` is free: elements without drop glue
//! are never visited.

use std::fmt;
use std::mem::MaybeUninit;

/// A vector with inline storage for up to `N` elements.
///
/// Pushing beyond capacity is a logic error in this workspace (instruction
/// read/write sets and RTM entry I/O lists have hard architectural caps),
/// so [`InlineVec::push`] panics on overflow; the fallible
/// [`InlineVec::try_push`] is available where the cap is a *policy* rather
/// than an invariant (e.g. trace live-in collection under the paper's
/// 8-register / 4-memory-value limit).
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [MaybeUninit<T>; N],
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    #[inline]
    pub fn new() -> Self {
        assert!(N <= u8::MAX as usize, "InlineVec capacity must fit in u8");
        Self {
            len: 0,
            // SAFETY: an array of MaybeUninit does not require initialization.
            items: unsafe { MaybeUninit::uninit().assume_init() },
        }
    }

    /// Number of elements currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of elements (`N`).
    #[inline]
    pub const fn capacity(&self) -> usize {
        N
    }

    /// `true` when `len() == capacity()`.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == N
    }

    /// Append an element. Panics if the vector is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        let len = self.len();
        assert!(len < N, "InlineVec overflow (capacity {N})");
        // SAFETY: the assert above bounds `len` below `N`, the length of
        // `items`, so the unchecked index is in range (one bound check,
        // not two).
        unsafe { self.items.get_unchecked_mut(len) }.write(value);
        self.len += 1;
    }

    /// Append an element, returning it back if the vector is full.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        if self.len() == N {
            Err(value)
        } else {
            self.items[self.len()].write(value);
            self.len += 1;
            Ok(())
        }
    }

    /// Remove and return the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            self.len -= 1;
            // SAFETY: slot `len` was initialized by a previous push.
            Some(unsafe { self.items[self.len as usize].assume_init_read() })
        }
    }

    /// Drop all elements.
    #[inline]
    pub fn clear(&mut self) {
        let len = self.len();
        self.len = 0;
        // SAFETY: elements 0..len were initialized; `len` is reset first,
        // so they are never read again, even if a destructor panics.
        unsafe {
            let live = std::slice::from_raw_parts_mut(self.items.as_mut_ptr() as *mut T, len);
            std::ptr::drop_in_place(live)
        }
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: elements 0..len are initialized.
        unsafe { std::slice::from_raw_parts(self.items.as_ptr() as *const T, self.len()) }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: elements 0..len are initialized.
        unsafe { std::slice::from_raw_parts_mut(self.items.as_mut_ptr() as *mut T, self.len()) }
    }

    /// Iterate over the stored elements.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    #[inline]
    fn drop(&mut self) {
        if std::mem::needs_drop::<T>() {
            self.clear();
        }
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = Self::new();
        for item in self.iter() {
            out.push(item.clone());
        }
        out
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: std::hash::Hash, const N: usize> std::hash::Hash for InlineVec<T, N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    /// Collect from an iterator. Panics if the iterator yields more than
    /// `N` elements.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.push(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "InlineVec overflow")]
    fn push_past_capacity_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn try_push_reports_overflow() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert_eq!(v.try_push(1), Ok(()));
        assert_eq!(v.try_push(2), Ok(()));
        assert_eq!(v.try_push(3), Err(3));
        assert!(v.is_full());
        assert_eq!(v.as_slice(), &[1, 2]);
    }

    #[test]
    fn drop_runs_destructors() {
        use std::rc::Rc;
        let marker = Rc::new(());
        {
            let mut v: InlineVec<Rc<()>, 8> = InlineVec::new();
            for _ in 0..5 {
                v.push(Rc::clone(&marker));
            }
            assert_eq!(Rc::strong_count(&marker), 6);
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn copy_elements_roundtrip_push_pop_clone_drop() {
        // `(u32, u64)` has no drop glue, so clear and drop skip the
        // element walk; behaviour must not change.
        type Pair = (u32, u64);
        assert!(!std::mem::needs_drop::<Pair>());
        let mut v: InlineVec<Pair, 4> = InlineVec::new();
        for i in 0..4u32 {
            v.push((i, u64::from(i) * 10));
        }
        let w = v.clone();
        assert_eq!(v.pop(), Some((3, 30)));
        assert_eq!(v.as_slice(), &[(0, 0), (1, 10), (2, 20)]);
        assert_eq!(w.as_slice(), &[(0, 0), (1, 10), (2, 20), (3, 30)]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
        v.push((7, 70));
        assert_eq!(v.as_slice(), &[(7, 70)]);
        drop(v);
        // The clone is independent of the dropped original.
        assert_eq!(w.len(), 4);
        assert_eq!(w[3], (3, 30));
    }

    #[test]
    fn clear_runs_destructors() {
        use std::rc::Rc;
        let marker = Rc::new(());
        let mut v: InlineVec<Rc<()>, 4> = InlineVec::new();
        v.push(Rc::clone(&marker));
        v.push(Rc::clone(&marker));
        v.clear();
        assert!(v.is_empty());
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn clone_and_eq() {
        let mut v: InlineVec<String, 3> = InlineVec::new();
        v.push("a".into());
        v.push("b".into());
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn deref_enables_slice_methods() {
        let v: InlineVec<u32, 4> = [3u32, 1, 2].into_iter().collect();
        assert!(v.contains(&1));
        assert_eq!(v.iter().max(), Some(&3));
    }

    proptest! {
        #[test]
        fn behaves_like_vec(ops in proptest::collection::vec(0u8..3, 0..64)) {
            let mut iv: InlineVec<u8, 64> = InlineVec::new();
            let mut model: Vec<u8> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        if !iv.is_full() {
                            iv.push(i as u8);
                            model.push(i as u8);
                        }
                    }
                    1 => {
                        prop_assert_eq!(iv.pop(), model.pop());
                    }
                    _ => {
                        prop_assert_eq!(iv.as_slice(), model.as_slice());
                    }
                }
            }
            prop_assert_eq!(iv.as_slice(), model.as_slice());
        }
    }
}
