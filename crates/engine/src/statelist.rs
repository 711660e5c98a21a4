//! Small-vector state list for step outcomes.
//!
//! Nearly every step commits a handful of states — one per slot drained
//! from the tenant's pending queue, which is almost always exactly one in
//! steady state. Storing them in a `Vec<u32>` costs one heap allocation
//! per event, which is the difference between a zero-allocation ingest
//! path and one allocation per event at data-center rates. [`StateList`]
//! keeps up to [`INLINE_STATES`] states inline and only spills to a heap
//! vector for pathological bursts (a cold tenant catching up on a deep
//! pending queue).

use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;

/// States kept inline before spilling to the heap.
pub const INLINE_STATES: usize = 6;

/// A list of committed states that avoids heap allocation for the common
/// case of at most [`INLINE_STATES`] entries.
#[derive(Clone)]
pub enum StateList {
    /// Up to [`INLINE_STATES`] states stored in place.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Inline storage; entries past `len` are meaningless.
        buf: [u32; INLINE_STATES],
    },
    /// Spilled storage for longer lists.
    Heap(Vec<u32>),
}

impl StateList {
    /// An empty list (no allocation).
    pub const fn new() -> Self {
        StateList::Inline {
            len: 0,
            buf: [0; INLINE_STATES],
        }
    }

    /// Append a state, spilling to the heap past the inline capacity.
    pub fn push(&mut self, state: u32) {
        match self {
            StateList::Inline { len, buf } => {
                if (*len as usize) < INLINE_STATES {
                    buf[*len as usize] = state;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_STATES * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(state);
                    *self = StateList::Heap(v);
                }
            }
            StateList::Heap(v) => v.push(state),
        }
    }

    /// Reset to empty, keeping heap capacity if already spilled.
    pub fn clear(&mut self) {
        match self {
            StateList::Inline { len, .. } => *len = 0,
            StateList::Heap(v) => v.clear(),
        }
    }

    /// The states as a slice.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            StateList::Inline { len, buf } => &buf[..*len as usize],
            StateList::Heap(v) => v.as_slice(),
        }
    }

    /// Copy into a fresh `Vec` (for callers that need owned storage).
    pub fn to_vec(&self) -> Vec<u32> {
        self.as_slice().to_vec()
    }
}

impl Default for StateList {
    fn default() -> Self {
        StateList::new()
    }
}

impl std::ops::Deref for StateList {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl std::fmt::Debug for StateList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for StateList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for StateList {}

impl PartialEq<Vec<u32>> for StateList {
    fn eq(&self, other: &Vec<u32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u32]> for StateList {
    fn eq(&self, other: &[u32]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u32; N]> for StateList {
    fn eq(&self, other: &[u32; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl From<Vec<u32>> for StateList {
    fn from(v: Vec<u32>) -> Self {
        if v.len() <= INLINE_STATES {
            let mut out = StateList::new();
            for s in v {
                out.push(s);
            }
            out
        } else {
            StateList::Heap(v)
        }
    }
}

impl FromIterator<u32> for StateList {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut out = StateList::new();
        for s in iter {
            out.push(s);
        }
        out
    }
}

impl<'a> IntoIterator for &'a StateList {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// On the wire a StateList is indistinguishable from the Vec<u32> it
// replaced: a plain JSON array of integers. Snapshots, WAL records and
// reports stay byte-compatible.
impl Serialize for StateList {
    fn to_value(&self) -> Value {
        Value::Array(self.as_slice().iter().map(|s| s.to_value()).collect())
    }
}

impl Deserialize for StateList {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::custom("expected array of states"))?;
        let mut out = StateList::new();
        for item in arr {
            let n = item
                .as_u64()
                .ok_or_else(|| DeError::custom("expected integer state"))?;
            out.push(u32::try_from(n).map_err(|_| DeError::custom("state out of range"))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut l = StateList::new();
        assert!(l.is_empty());
        for i in 0..INLINE_STATES as u32 {
            l.push(i);
        }
        assert!(matches!(l, StateList::Inline { .. }));
        assert_eq!(l.len(), INLINE_STATES);
        l.push(99);
        assert!(matches!(l, StateList::Heap(_)));
        assert_eq!(l.as_slice(), &[0, 1, 2, 3, 4, 5, 99]);
        l.clear();
        assert!(l.is_empty());
        l.push(7);
        assert_eq!(l.as_slice(), &[7]);
    }

    #[test]
    fn json_round_trip_matches_vec() {
        let cases = [vec![], vec![3], vec![1, 2, 3, 4, 5, 6, 7, 8]];
        for v in cases {
            let l = StateList::from(v.clone());
            assert_eq!(
                serde_json::to_string(&l).unwrap(),
                serde_json::to_string(&v).unwrap(),
                "wire-identical to Vec<u32>"
            );
            let back: StateList =
                serde_json::from_str(&serde_json::to_string(&l).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }
}
