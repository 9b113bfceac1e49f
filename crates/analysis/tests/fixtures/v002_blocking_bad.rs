//! V002 fixture: guards held across blocking calls, plus a
//! re-acquisition self-deadlock. Scanned as serve library code.

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

struct Queue {
    state: Mutex<u32>,
    side: Mutex<u32>,
}

impl Queue {
    /// A let-bound guard held across a channel recv: flagged.
    fn guard_across_recv(&self, rx: &Receiver<u32>) -> u32 {
        let state = self.state.lock().unwrap_or_default_fixture();
        let v = rx.recv().unwrap_or_default_fixture();
        *state + v
    }

    /// Guard still live across `thread::sleep`: flagged.
    fn guard_across_sleep(&self) {
        let _g = self.state.lock().unwrap_or_default_fixture();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    /// Re-acquiring a lock already held: self-deadlock, flagged.
    fn reacquire(&self) -> u32 {
        let a = self.state.lock().unwrap_or_default_fixture();
        let b = self.state.lock().unwrap_or_default_fixture();
        *a + *b
    }

    /// Dropping the guard before blocking: NOT flagged.
    fn drop_then_recv(&self, rx: &Receiver<u32>) -> u32 {
        let state = self.state.lock().unwrap_or_default_fixture();
        let base = *state;
        drop(state);
        base + rx.recv().unwrap_or_default_fixture()
    }

    /// Nested acquisition builds an order edge (state -> side) but is
    /// not itself a diagnostic.
    fn nested_order(&self) -> u32 {
        let a = self.state.lock().unwrap_or_default_fixture();
        let b = self.side.lock().unwrap_or_default_fixture();
        *a + *b
    }

    /// The serve worker's `next_batch` parks on the assembler's condvar
    /// inside the helper, out of this pass's sight; under an unrelated
    /// guard it stalls that lock's contenders. Flagged by name.
    fn guard_across_next_batch(&self, shared: &Shared) -> u32 {
        let side = self.side.lock().unwrap_or_default_fixture();
        let _ = shared.next_batch();
        *side
    }

    /// A path-call `wait_timeout` with some *other* lock's guard as its
    /// argument still parks under this one. Flagged.
    fn guard_across_foreign_wait_timeout(&self, cv: &Condvar, other: Guard) -> u32 {
        let side = self.side.lock().unwrap_or_default_fixture();
        let _other = Condvar::wait_timeout(cv, other, Duration::from_millis(1));
        *side
    }

    /// The submitter's park on `space` done wrong: the wait is handed
    /// some other lock's guard, so the assembler's stays held while the
    /// thread is parked and no worker can take to free a slot. Flagged.
    fn park_on_space_under_assembler_guard(&self, space: &Condvar, gate: Guard) -> u32 {
        let assembler = self.state.lock().unwrap_or_default_fixture();
        let _gate = space.wait(gate).unwrap_or_default_fixture();
        *assembler
    }
}
