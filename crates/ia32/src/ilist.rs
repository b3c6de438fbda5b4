//! [`InstrList`] — the linear instruction-sequence representation.
//!
//! "Since DynamoRIO deals only with linear streams of code, it represents a
//! basic block or trace as a linked list of instructions called an
//! `InstrList`" (paper §3.1). The list is a slab-backed doubly-linked list:
//! insertion, removal, and replacement are O(1), and [`InstrId`] handles stay
//! stable across mutations — which is what lets branch operands
//! ([`Opnd::Instr`](crate::Opnd::Instr)) name labels inside the same list.

use std::borrow::BorrowMut;
use std::fmt;

use crate::decode::{self, DecodeError};
use crate::instr::{Instr, Level};

/// A stable handle to an instruction within an [`InstrList`].
///
/// Handles are generation-checked: using a handle after its instruction was
/// removed panics rather than silently aliasing a reused slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId {
    idx: u32,
    gen: u32,
}

impl InstrId {
    /// Construct from a raw index with generation 0 (for tests and
    /// serialization only; normal code receives ids from list operations).
    pub fn from_raw(idx: u32) -> InstrId {
        InstrId { idx, gen: 0 }
    }

    /// The raw slot index.
    pub fn raw(self) -> u32 {
        self.idx
    }
}

impl fmt::Debug for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}g{}", self.idx, self.gen)
    }
}

/// A list's ids in list order, with each one's position found by slot
/// ([`InstrId::raw`]) in O(1). The ids are kept, so a stale id whose slot
/// was reused is not mistaken for the instruction now in it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Positions {
    pub(crate) order: Vec<InstrId>,
    by_slot: Vec<u32>,
}

impl Positions {
    /// Hold `il`'s ids, in place of any held before.
    pub(crate) fn refill(&mut self, il: &InstrList) {
        self.order.clear();
        self.order.extend(il.ids());
        self.by_slot.clear();
        self.by_slot.resize(il.nodes.len(), u32::MAX);
        for (i, id) in self.order.iter().enumerate() {
            self.by_slot[id.idx as usize] = i as u32;
        }
    }

    /// `id`'s position in list order, if it is in the list.
    pub(crate) fn get(&self, id: InstrId) -> Option<usize> {
        let i = *self.by_slot.get(id.idx as usize)? as usize;
        (self.order.get(i) == Some(&id)).then_some(i)
    }
}

#[derive(Debug)]
struct Node {
    instr: Option<Instr>,
    prev: Option<u32>,
    next: Option<u32>,
    gen: u32,
}

/// A linear list of [`Instr`]s — the unit of code the framework operates on
/// (a basic block or a trace): single entry, multiple exits, no internal
/// join points.
///
/// # Examples
///
/// ```
/// use rio_ia32::{InstrList, create, Opnd, Reg};
///
/// let mut il = InstrList::new();
/// let a = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
/// let b = il.push_back(create::inc(Opnd::reg(Reg::Eax)));
/// assert_eq!(il.len(), 2);
/// assert_eq!(il.first_id(), Some(a));
/// assert_eq!(il.next_id(a), Some(b));
/// ```
#[derive(Debug, Default)]
pub struct InstrList {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: Option<u32>,
    tail: Option<u32>,
    len: usize,
    /// The byte storage of a Level 0 bundle [`InstrList::clear`] dropped.
    spare: Vec<u8>,
}

impl InstrList {
    /// Create an empty list.
    pub fn new() -> InstrList {
        InstrList::default()
    }

    /// Number of instructions in the list (labels included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, id: InstrId) -> &Node {
        let n = &self.nodes[id.idx as usize];
        assert_eq!(n.gen, id.gen, "stale InstrId {id:?}");
        assert!(n.instr.is_some(), "InstrId {id:?} no longer in list");
        n
    }

    /// Put `instr` in a free slot, linked in between `prev` and `next`
    /// (neighbours, or `None` at the list's ends).
    fn link(&mut self, instr: Instr, prev: Option<u32>, next: Option<u32>) -> InstrId {
        let node = |gen| Node {
            instr: Some(instr),
            prev,
            next,
            gen,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                *n = node(n.gen);
                idx
            }
            None => {
                self.nodes.push(node(0));
                (self.nodes.len() - 1) as u32
            }
        };
        match prev {
            Some(p) => self.nodes[p as usize].next = Some(idx),
            None => self.head = Some(idx),
        }
        match next {
            Some(n) => self.nodes[n as usize].prev = Some(idx),
            None => self.tail = Some(idx),
        }
        self.len += 1;
        self.id_of(idx)
    }

    fn id_of(&self, idx: u32) -> InstrId {
        InstrId {
            idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    /// First instruction (paper: `instrlist_first`).
    pub fn first_id(&self) -> Option<InstrId> {
        self.head.map(|i| self.id_of(i))
    }

    /// Last instruction (paper: `instrlist_last`).
    pub fn last_id(&self) -> Option<InstrId> {
        self.tail.map(|i| self.id_of(i))
    }

    /// The instruction after `id` (paper: `instr_get_next`).
    pub fn next_id(&self, id: InstrId) -> Option<InstrId> {
        self.node(id).next.map(|i| self.id_of(i))
    }

    /// The instruction before `id` (paper: `instr_get_prev`).
    pub fn prev_id(&self, id: InstrId) -> Option<InstrId> {
        self.node(id).prev.map(|i| self.id_of(i))
    }

    /// Borrow the instruction for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (its instruction was removed).
    pub fn get(&self, id: InstrId) -> &Instr {
        self.node(id).instr.as_ref().unwrap()
    }

    /// Mutably borrow the instruction for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn get_mut(&mut self, id: InstrId) -> &mut Instr {
        let n = &mut self.nodes[id.idx as usize];
        assert_eq!(n.gen, id.gen, "stale InstrId {id:?}");
        n.instr.as_mut().expect("InstrId no longer in list")
    }

    /// Append an instruction (paper: `instrlist_append`).
    pub fn push_back(&mut self, instr: Instr) -> InstrId {
        self.link(instr, self.tail, None)
    }

    /// Prepend an instruction (paper: `instrlist_prepend`).
    pub fn push_front(&mut self, instr: Instr) -> InstrId {
        self.link(instr, None, self.head)
    }

    /// Insert `instr` immediately before `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is stale.
    pub fn insert_before(&mut self, at: InstrId, instr: Instr) -> InstrId {
        let prev = self.node(at).prev;
        self.link(instr, prev, Some(at.idx))
    }

    /// Insert `instr` immediately after `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is stale.
    pub fn insert_after(&mut self, at: InstrId, instr: Instr) -> InstrId {
        let next = self.node(at).next;
        self.link(instr, Some(at.idx), next)
    }

    /// Remove and return the instruction at `id` (paper: `instrlist_remove` +
    /// `instr_destroy`). The id becomes stale.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: InstrId) -> Instr {
        let &Node { prev, next, .. } = self.node(id);
        match prev {
            Some(p) => self.nodes[p as usize].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n as usize].prev = prev,
            None => self.tail = prev,
        }
        let node = &mut self.nodes[id.idx as usize];
        node.gen = node.gen.wrapping_add(1);
        self.len -= 1;
        self.free.push(id.idx);
        node.instr.take().unwrap()
    }

    /// Replace the instruction at `id`, returning the old one. The id (and
    /// any branch operands naming it) remains valid and now refers to the new
    /// instruction — this is how the paper's `instrlist_replace` is used in
    /// the `inc2add` client (Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn replace(&mut self, id: InstrId, instr: Instr) -> Instr {
        let n = &mut self.nodes[id.idx as usize];
        assert_eq!(n.gen, id.gen, "stale InstrId {id:?}");
        n.instr.replace(instr).expect("InstrId no longer in list")
    }

    /// Remove every instruction (paper: `instrlist_clear`), keeping the
    /// storage for the next use: the slots, whose ids all go stale, and a
    /// Level 0 bundle's bytes, which [`InstrList::bundle_buffer`] lends to
    /// the next bundle built into this list.
    pub fn clear(&mut self) {
        self.free.clear();
        for (idx, n) in self.nodes.iter_mut().enumerate().rev() {
            if let Some(mut bytes) = n.instr.take().and_then(Instr::into_bundle_bytes) {
                bytes.clear();
                self.spare = bytes;
            }
            n.gen = n.gen.wrapping_add(1);
            self.free.push(idx as u32);
        }
        (self.head, self.tail, self.len) = (None, None, 0);
    }

    /// An empty buffer for the bytes of a Level 0 bundle: the storage of
    /// the last bundle [`InstrList::clear`] dropped, if any.
    pub fn bundle_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.spare)
    }

    /// Ids in list order.
    pub fn ids(&self) -> Ids<'_> {
        Ids {
            list: self,
            cur: self.head,
        }
    }

    /// Iterate over instructions in list order.
    pub fn iter(&self) -> impl Iterator<Item = &Instr> {
        self.ids().map(move |id| self.get(id))
    }

    /// Move every instruction of `other` to the end of `self`, remapping
    /// intra-list branch targets, and leave `other` cleared. Used when
    /// stitching basic blocks into a trace; a list the caller keeps lends
    /// its storage again, so a warm append allocates nothing.
    pub fn append(&mut self, mut other: impl BorrowMut<InstrList>) {
        let other = other.borrow_mut();
        // `other.free`, rebuilt by the `clear` below, maps each moved slot
        // to its new one; the moved nodes keep their generations until then.
        other.free.clear();
        other.free.resize(other.nodes.len(), u32::MAX);
        let mut at = other.head;
        while let Some(i) = at {
            let node = &mut other.nodes[i as usize];
            at = node.next;
            let moved = node
                .instr
                .take()
                .expect("a linked node holds an instruction");
            other.free[i as usize] = self.push_back(moved).idx;
        }
        // Only the moved instructions may reference the old ids; ids of
        // pre-existing instructions can collide numerically with `other`'s
        // and must not be rewritten.
        let mut at = other.head.map(|i| other.free[i as usize]);
        while let Some(i) = at {
            let mut instr = self.nodes[i as usize].instr.take().expect("moved here");
            instr.remap_instr_targets(&|id| {
                let old = other.nodes.get(id.idx as usize).filter(|n| n.gen == id.gen);
                match other.free.get(id.idx as usize) {
                    Some(&new) if new != u32::MAX && old.is_some() => self.id_of(new),
                    _ => id,
                }
            });
            let node = &mut self.nodes[i as usize];
            node.instr = Some(instr);
            at = node.next;
        }
        other.clear();
    }

    /// Total memory footprint of all instructions plus list overhead, for
    /// the Table 2 reproduction.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<InstrList>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.spare.capacity()
            + self.iter().map(Instr::memory_bytes).sum::<usize>()
    }

    /// Decode one basic block's bytes into a list at the requested level of
    /// detail.
    ///
    /// * [`Level::L0`]: a single bundle `Instr` spanning all instructions
    ///   (only the final boundary is recorded).
    /// * [`Level::L1`]: one raw-bytes `Instr` per instruction.
    /// * [`Level::L2`]: opcode + eflags decoded per instruction.
    /// * [`Level::L3`] (or `L4`): fully decoded operands.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the bytes contain an invalid encoding.
    pub fn decode_block(bytes: &[u8], app_pc: u32, level: Level) -> Result<InstrList, DecodeError> {
        let mut il = InstrList::new();
        match level {
            Level::L0 => {
                let (mut off, mut last, mut count) = (0u32, 0u32, 0u32);
                while (off as usize) < bytes.len() {
                    let len = decode::decode_sizeof(&bytes[off as usize..])?;
                    last = off;
                    count += 1;
                    off += len;
                }
                il.push_back(Instr::bundle(bytes.to_vec(), app_pc, last, count));
            }
            _ => {
                let mut off = 0usize;
                while off < bytes.len() {
                    let (instr, len) =
                        decode::decode_at(&bytes[off..], app_pc + off as u32, level)?;
                    il.push_back(instr);
                    off += len as usize;
                }
            }
        }
        Ok(il)
    }
}

/// Iterator over [`InstrId`]s in list order. Created by [`InstrList::ids`].
#[derive(Debug)]
pub struct Ids<'a> {
    list: &'a InstrList,
    cur: Option<u32>,
}

impl Iterator for Ids<'_> {
    type Item = InstrId;
    fn next(&mut self) -> Option<InstrId> {
        let idx = self.cur?;
        self.cur = self.list.nodes[idx as usize].next;
        Some(self.list.id_of(idx))
    }
}

impl fmt::Display for InstrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for id in self.ids() {
            writeln!(f, "  {}", self.get(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create;
    use crate::instr::Target;
    use crate::opnd::Opnd;
    use crate::reg::Reg;

    fn nop() -> Instr {
        create::nop()
    }

    #[test]
    fn push_and_order() {
        let mut il = InstrList::new();
        let a = il.push_back(nop());
        let b = il.push_back(nop());
        let c = il.push_front(nop());
        assert_eq!(il.len(), 3);
        let ids: Vec<_> = il.ids().collect();
        assert_eq!(ids, vec![c, a, b]);
        assert_eq!(il.first_id(), Some(c));
        assert_eq!(il.last_id(), Some(b));
    }

    #[test]
    fn insert_before_and_after() {
        let mut il = InstrList::new();
        let a = il.push_back(nop());
        let b = il.insert_after(a, nop());
        let c = il.insert_before(b, nop());
        let ids: Vec<_> = il.ids().collect();
        assert_eq!(ids, vec![a, c, b]);
        assert_eq!(il.prev_id(b), Some(c));
        assert_eq!(il.next_id(a), Some(c));
    }

    #[test]
    fn remove_relinks_neighbors() {
        let mut il = InstrList::new();
        let a = il.push_back(nop());
        let b = il.push_back(nop());
        let c = il.push_back(nop());
        il.remove(b);
        assert_eq!(il.len(), 2);
        assert_eq!(il.next_id(a), Some(c));
        assert_eq!(il.prev_id(c), Some(a));
    }

    #[test]
    #[should_panic(expected = "stale InstrId")]
    fn stale_id_detected() {
        let mut il = InstrList::new();
        let a = il.push_back(nop());
        il.remove(a);
        let _b = il.push_back(nop()); // reuses the slot
        let _ = il.get(a);
    }

    #[test]
    fn replace_keeps_id_valid() {
        let mut il = InstrList::new();
        let a = il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        let old = il.replace(a, create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1)));
        assert_eq!(old.opcode(), Some(crate::Opcode::Inc));
        assert_eq!(il.get(a).opcode(), Some(crate::Opcode::Add));
        assert_eq!(il.len(), 1);
    }

    #[test]
    fn append_remaps_label_targets() {
        // Build list B containing a jump to its own label, then append to A.
        let mut a = InstrList::new();
        a.push_back(nop());

        let mut b = InstrList::new();
        let lbl = b.push_back(Instr::label());
        let mut jmp = create::jmp(Target::Pc(0));
        jmp.set_target(Target::Instr(lbl));
        b.push_back(jmp);

        a.append(b);
        assert_eq!(a.len(), 3);
        let ids: Vec<_> = a.ids().collect();
        let new_lbl = ids[1];
        let jmp_id = ids[2];
        assert!(a.get(new_lbl).is_label());
        assert_eq!(a.get(jmp_id).target(), Some(Target::Instr(new_lbl)));
    }

    #[test]
    fn appending_a_kept_list_remaps_each_time() {
        // A list reused block after block hands out the same slots with
        // new generations; each append must still aim every jump at the
        // label moved with it.
        let (mut block, mut trace) = (InstrList::new(), InstrList::new());
        for _ in 0..3 {
            let lbl = block.push_back(Instr::label());
            let mut jmp = create::jmp(Target::Pc(0));
            jmp.set_target(Target::Instr(lbl));
            block.push_back(jmp);
            trace.append(&mut block);
            assert!(block.is_empty());
        }
        let ids: Vec<_> = trace.ids().collect();
        assert_eq!(ids.len(), 6);
        for pair in ids.chunks(2) {
            assert_eq!(trace.get(pair[1]).target(), Some(Target::Instr(pair[0])));
        }
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut il = InstrList::new();
        let a = il.push_back(nop());
        il.remove(a);
        let b = il.push_back(nop());
        assert_eq!(a.raw(), b.raw()); // same slot
        assert_ne!(a, b); // different generation
        assert_eq!(il.len(), 1);
    }

    #[test]
    fn iter_matches_ids() {
        let mut il = InstrList::new();
        il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::dec(Opnd::reg(Reg::Ebx)));
        let ops: Vec<_> = il.iter().map(|i| i.opcode().unwrap()).collect();
        assert_eq!(ops, vec![crate::Opcode::Inc, crate::Opcode::Dec]);
    }
}
