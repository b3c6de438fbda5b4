//! Per-thread spares of the tables a dropped [`Machine`](crate::Machine)
//! owned, so the next machine on the thread reuses them instead of
//! allocating (and zeroing) its own.

use std::cell::RefCell;
use std::thread::LocalKey;

/// Most spares of one kind a thread keeps: enough for the machines a thread
/// runs side by side (a native run and an engine run, say), not more.
const MAX_SPARES: usize = 2;

/// A thread's spares of one kind.
pub(crate) type Spares<T> = RefCell<Vec<T>>;

/// One of the thread's spares, if it has one.
pub(crate) fn take<T>(spares: &'static LocalKey<Spares<T>>) -> Option<T> {
    spares.try_with(|s| s.borrow_mut().pop()).ok().flatten()
}

/// Keep `spare` for the thread's next machine. A thread that already has
/// enough, or is being torn down, drops it.
pub(crate) fn give<T>(spares: &'static LocalKey<Spares<T>>, spare: T) {
    let _ = spares.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < MAX_SPARES {
            s.reserve_exact(MAX_SPARES);
            s.push(spare);
        }
    });
}
