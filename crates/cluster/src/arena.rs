//! Per-run storage the cluster driver recycles instead of allocating per
//! task or per message: insertion-ordered `u32` lists whose nodes share one
//! arena ([`ListArena`]), and a table of recycled slots ([`Slots`]).

/// The end of a list, and the empty free chain.
const NIL: u32 = u32::MAX;

/// One list, by the arena nodes of its first and last value. Its owner
/// keeps it; the values live in a [`ListArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// A list with no values.
    pub(crate) const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    /// Where a walk of the list starts (see [`ListArena::step`]).
    pub(crate) fn start(self) -> u32 {
        self.head
    }
}

impl Default for List {
    fn default() -> Self {
        List::EMPTY
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    value: u32,
    next: u32,
}

/// The nodes of many singly linked lists in one vector. Appending is O(1)
/// and keeps insertion order; a released list's nodes are chained onto a
/// free list in O(1) and reused by later appends, so the arena grows only to
/// the most nodes live at once.
#[derive(Debug)]
pub(crate) struct ListArena {
    nodes: Vec<Node>,
    /// First node of the free chain, or [`NIL`].
    free: u32,
}

impl ListArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        ListArena {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Appends `value` to the end of `list`.
    ///
    /// # Panics
    /// Panics if `value` does not fit in a `u32`, or if the arena would
    /// outgrow `u32` indices.
    pub(crate) fn push(&mut self, list: &mut List, value: usize) {
        let node = Node {
            value: u32::try_from(value).expect("list value fits in u32"),
            next: NIL,
        };
        let at = if self.free == NIL {
            let at = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("list arena fits u32 indices");
            self.nodes.push(node);
            at
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        };
        match list.tail {
            NIL => list.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        list.tail = at;
    }

    /// The value at `at` and where a walk goes next, or `None` past the
    /// end of a list. A walk starts at [`List::start`] and may append to
    /// lists as it goes, but must not release the list it walks.
    pub(crate) fn step(&self, at: u32) -> Option<(usize, u32)> {
        (at != NIL).then(|| {
            let node = self.nodes[at as usize];
            (node.value as usize, node.next)
        })
    }

    /// The values of `list` in insertion order.
    pub(crate) fn iter(&self, list: List) -> impl Iterator<Item = usize> + '_ {
        let mut at = list.start();
        std::iter::from_fn(move || {
            let (value, next) = self.step(at)?;
            at = next;
            Some(value)
        })
    }

    /// True if `list` holds `value` (a walk of the list).
    pub(crate) fn contains(&self, list: List, value: usize) -> bool {
        self.iter(list).any(|v| v == value)
    }

    /// Empties `list`, handing its nodes to later appends.
    pub(crate) fn release(&mut self, list: &mut List) {
        if list.tail != NIL {
            self.nodes[list.tail as usize].next = self.free;
            self.free = list.head;
        }
        *list = List::EMPTY;
    }
}

/// A table of values parked by slot number; a taken slot is reused by the
/// next insert, so the table grows only to the most values parked at once.
#[derive(Debug)]
pub(crate) struct Slots<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slots<T> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `value` and returns its slot.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Takes the value parked at `slot` and frees the slot.
    ///
    /// # Panics
    /// Panics if the slot holds no value.
    pub(crate) fn take(&mut self, slot: usize) -> T {
        let value = self.slots[slot]
            .take()
            .unwrap_or_else(|| panic!("slot {slot} is free"));
        self.free.push(slot);
        value
    }

    /// Values parked and not yet taken.
    pub(crate) fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sim::SimRng;

    #[test]
    fn arena_lists_keep_insertion_order_through_release_and_reuse() {
        const LISTS: usize = 64;
        let mut rng = SimRng::new(0x1157);
        let mut arena = ListArena::new();
        let mut lists = [List::EMPTY; LISTS];
        let mut model: Vec<Vec<usize>> = vec![Vec::new(); LISTS];
        let check = |arena: &ListArena, lists: &[List], model: &[Vec<usize>], step: usize| {
            for (l, (&list, want)) in lists.iter().zip(model).enumerate() {
                let got: Vec<usize> = arena.iter(list).collect();
                assert_eq!(&got, want, "list {l} after step {step}");
                for probe in 0..8 {
                    assert_eq!(
                        arena.contains(list, probe),
                        want.contains(&probe),
                        "contains({probe}) on list {l} after step {step}"
                    );
                }
            }
        };
        let mut peak = 0;
        for step in 0..2_000 {
            let l = rng.next_below(LISTS as u64) as usize;
            if rng.chance(0.1) {
                // Take the list: walk it, then release its nodes.
                let mut taken = Vec::new();
                let mut at = lists[l].start();
                while let Some((value, next)) = arena.step(at) {
                    taken.push(value);
                    at = next;
                }
                assert_eq!(taken, model[l], "walk of list {l} at step {step}");
                arena.release(&mut lists[l]);
                model[l].clear();
            } else {
                let value = rng.next_below(8) as usize;
                arena.push(&mut lists[l], value);
                model[l].push(value);
            }
            check(&arena, &lists, &model, step);
            let live: usize = model.iter().map(Vec::len).sum();
            peak = peak.max(live);
            assert!(arena.nodes.len() <= peak, "released nodes are reused");
        }
        assert!(
            lists.iter().any(|l| *l != List::EMPTY),
            "the walk ended with values"
        );
        // A released list takes new values like a fresh one.
        for (l, (list, want)) in lists.iter_mut().zip(&mut model).enumerate() {
            arena.release(list);
            arena.push(list, l);
            *want = vec![l];
        }
        check(&arena, &lists, &model, 2_000);
    }

    #[test]
    fn slots_are_reused_after_take() {
        let mut slots = Slots::new();
        let a = slots.insert('a');
        let b = slots.insert('b');
        assert_eq!(slots.in_use(), 2);
        assert_eq!(slots.take(a), 'a');
        let c = slots.insert('c');
        assert_eq!(c, a, "a freed slot is reused");
        assert_eq!((slots.take(b), slots.take(c)), ('b', 'c'));
        assert_eq!(slots.in_use(), 0);
    }
}
