//! Which tasks each user has contributed to, kept only for users who
//! contributed.
//!
//! A user may contribute to a task once, so the engine asks, for every
//! published task a participant could select, whether they already
//! did. Most users of a large population never contribute, so a list
//! per user would spend a list header on each of them. [`Contributions`]
//! spends a `u32` slot per user instead, and a list only for a user
//! with a contribution.

use paydemand_core::TaskId;

/// The slot of a user with no contribution.
const NONE: u32 = u32::MAX;

/// Per user, the tasks they have contributed to, ascending.
///
/// Each user has a slot that names their list, or [`NONE`]. A list is
/// added on a user's first contribution and never removed, so the lists
/// sit in first-contribution order; [`Contributions::iter`] walks them
/// in user order through the slots.
#[derive(Debug)]
pub(crate) struct Contributions {
    slots: Vec<u32>,
    lists: Vec<Vec<TaskId>>,
    /// Task ids over every list.
    ids: usize,
}

impl Contributions {
    /// No contribution yet from any of `users` users.
    pub(crate) fn new(users: usize) -> Self {
        Contributions::with_capacity(users, 0)
    }

    /// As [`Contributions::new`], with room for `lists` contributing
    /// users, as a resume knows from the file.
    pub(crate) fn with_capacity(users: usize, lists: usize) -> Self {
        Contributions { slots: vec![NONE; users], lists: Vec::with_capacity(lists), ids: 0 }
    }

    /// The tasks `user` has contributed to, ascending.
    pub(crate) fn of(&self, user: usize) -> &[TaskId] {
        match self.slots[user] {
            NONE => &[],
            slot => &self.lists[slot as usize],
        }
    }

    /// Records that `user` contributed to `task`, keeping their list in
    /// order; a repeat is a no-op.
    pub(crate) fn note(&mut self, user: usize, task: TaskId) {
        let slot = &mut self.slots[user];
        if *slot == NONE {
            *slot = self.lists.len() as u32;
            self.lists.push(vec![task]);
            self.ids += 1;
            return;
        }
        let list = &mut self.lists[*slot as usize];
        if let Err(at) = list.binary_search(&task) {
            list.insert(at, task);
            self.ids += 1;
        }
    }

    /// Gives `user`, who has no list yet, the ascending, non-empty
    /// `tasks`.
    pub(crate) fn restore(&mut self, user: usize, tasks: Vec<TaskId>) {
        debug_assert_eq!(self.slots[user], NONE, "user {user} restored twice");
        debug_assert!(!tasks.is_empty(), "user {user} restored with no task");
        self.slots[user] = self.lists.len() as u32;
        self.ids += tasks.len();
        self.lists.push(tasks);
    }

    /// How many users have contributed.
    pub(crate) fn users(&self) -> usize {
        self.lists.len()
    }

    /// How many task ids the lists hold in all.
    pub(crate) fn ids(&self) -> usize {
        self.ids
    }

    /// Each contributing user and their tasks, in user order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[TaskId])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| **slot != NONE)
            .map(|(user, slot)| (user, self.lists[*slot as usize].as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_kept_only_for_contributors_in_order() {
        let mut c = Contributions::new(5);
        c.note(3, TaskId(4));
        c.note(1, TaskId(2));
        c.note(3, TaskId(0));
        c.note(3, TaskId(4));
        assert_eq!(c.of(3), [TaskId(0), TaskId(4)]);
        assert_eq!(c.of(1), [TaskId(2)]);
        assert!(c.of(0).is_empty());
        assert_eq!((c.users(), c.ids()), (2, 3));
        let listed: Vec<(usize, Vec<TaskId>)> = c.iter().map(|(u, t)| (u, t.to_vec())).collect();
        assert_eq!(listed, [(1, vec![TaskId(2)]), (3, vec![TaskId(0), TaskId(4)])]);
    }

    #[test]
    fn restored_lists_read_back_as_noted_ones() {
        let mut noted = Contributions::new(4);
        noted.note(2, TaskId(1));
        noted.note(0, TaskId(7));
        noted.note(2, TaskId(5));
        let mut restored = Contributions::with_capacity(4, 2);
        for (user, tasks) in noted.iter() {
            restored.restore(user, tasks.to_vec());
        }
        for user in 0..4 {
            assert_eq!(restored.of(user), noted.of(user), "user {user}");
        }
        assert_eq!((restored.users(), restored.ids()), (noted.users(), noted.ids()));
        restored.note(0, TaskId(3));
        assert_eq!(restored.of(0), [TaskId(3), TaskId(7)]);
    }
}
