//! One item, or several.
//!
//! A product on one rank lands in one pane of a one-block table, and on
//! several in a few side by side. Its per-pane, per-block and per-rank
//! lists (where the panes sit, their sinks, what they emit, a table's
//! blocks) stay off the heap in the first case: a superstep's
//! allocation calls are pinned (`core/tests/frontier_work.rs`).

use std::ops::{Deref, DerefMut};

/// One item, or a list of several.
#[derive(Clone, Debug)]
pub enum Few<T> {
    /// A list of one, held in place.
    One(T),
    /// Any other list.
    Many(Vec<T>),
}

impl<T> Few<T> {
    /// `f` on every item, in order.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Few<U> {
        match self {
            Few::One(t) => Few::One({ f }(t)),
            Few::Many(v) => Few::Many(v.into_iter().map(f).collect()),
        }
    }

    /// Splits a list of pairs into the list of firsts and of seconds.
    pub(crate) fn unzip<A, B>(self) -> (Few<A>, Few<B>)
    where
        T: Into<(A, B)>,
    {
        match self {
            Few::One(t) => {
                let (a, b) = t.into();
                (Few::One(a), Few::One(b))
            }
            Few::Many(v) => {
                let (a, b) = v.into_iter().map(Into::into).unzip();
                (Few::Many(a), Few::Many(b))
            }
        }
    }
}

impl<T> FromIterator<T> for Few<T> {
    /// # Panics
    /// Panics on an empty iterator.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Few<T> {
        let mut iter = iter.into_iter();
        let first = iter.next().expect("one item at least");
        match iter.next() {
            None => Few::One(first),
            Some(second) => {
                let mut v = Vec::with_capacity(2 + iter.size_hint().0);
                v.extend([first, second]);
                v.extend(iter);
                Few::Many(v)
            }
        }
    }
}

impl<T> From<Vec<T>> for Few<T> {
    /// A list of one is held in place; any other is kept as it is.
    fn from(mut v: Vec<T>) -> Few<T> {
        match v.len() {
            1 => Few::One(v.pop().expect("one item")),
            _ => Few::Many(v),
        }
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for Few<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::One(t) => std::slice::from_ref(t),
            Few::Many(v) => v,
        }
    }
}

impl<T> DerefMut for Few<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::One(t) => std::slice::from_mut(t),
            Few::Many(v) => v,
        }
    }
}

/// The items of a [`Few`], by value.
pub enum FewIter<T> {
    /// What is left of [`Few::One`].
    One(Option<T>),
    /// What is left of [`Few::Many`].
    Many(std::vec::IntoIter<T>),
}

impl<T> Iterator for FewIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            FewIter::One(t) => t.take(),
            FewIter::Many(v) => v.next(),
        }
    }
}

impl<T> IntoIterator for Few<T> {
    type Item = T;
    type IntoIter = FewIter<T>;

    fn into_iter(self) -> FewIter<T> {
        match self {
            Few::One(t) => FewIter::One(Some(t)),
            Few::Many(v) => FewIter::Many(v.into_iter()),
        }
    }
}

impl<'a, T> IntoIterator for &'a Few<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stays_one_and_several_are_a_list() {
        let one: Few<u8> = [7].into_iter().collect();
        assert!(matches!(one, Few::One(7)));
        assert_eq!(&*one, &[7]);
        let many: Few<u8> = (1..=3).collect();
        assert_eq!(&*many, &[1, 2, 3]);
        let (a, b) = many
            .into_iter()
            .map(|x| (x, 2 * x))
            .collect::<Few<_>>()
            .unzip();
        assert_eq!((&*a, &*b), (&[1, 2, 3][..], &[2, 4, 6][..]));
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [7]);
    }
}
