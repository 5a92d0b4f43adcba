//! Task identities.
//!
//! Pfair scheduling treats each quantum of a task's execution — a
//! *subtask* `T_i`, `i ≥ 1` — as the schedulable entity; a subtask is
//! named by its task's [`TaskId`] and its 1-based index. This module
//! defines the identifier type shared by the whole workspace.

use core::fmt;

/// Dense, copyable task identifier. Task ids index per-task state
/// vectors inside the schedulers, so they are assigned densely from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl pfair_json::ToJson for TaskId {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.int(i128::from(self.0));
    }
}

impl pfair_json::FromJson for TaskId {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        u32::from_json(value).map(TaskId)
    }
}

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let i = self.0 as usize;
        i
    }

    /// Builds an id from a container index (inverse of [`TaskId::idx`]).
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(i: usize) -> TaskId {
        #[expect(clippy::disallowed_methods, reason = "task counts are u32-bounded")]
        TaskId(u32::try_from(i).expect("task index exceeds u32"))
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_the_paper() {
        let t = TaskId(3);
        assert_eq!(format!("{t}"), "T3");
        assert_eq!(t.idx(), 3);
    }
}
