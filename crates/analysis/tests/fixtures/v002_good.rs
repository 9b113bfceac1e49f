//! V002 fixture: correct lock discipline — condvar handoffs, temporary
//! guards that die at end of statement, and scope-bounded guards. Must
//! produce zero diagnostics.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};

struct Waiter {
    state: Mutex<u32>,
    ready: Condvar,
    space: Condvar,
}

impl Waiter {
    /// The condvar handoff: the guard rides into `wait`, which releases
    /// the lock while parked. NOT flagged.
    fn condvar_wait(&self) -> u32 {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        while *inner == 0 {
            inner = self.ready.wait(inner).unwrap_or_default_fixture();
        }
        *inner
    }

    /// Same for the timeout variant (guard is an argument).
    fn condvar_wait_timeout(&self) -> u32 {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        let dur = std::time::Duration::from_millis(5);
        while *inner == 0 {
            let (guard, _timeout) = self
                .ready
                .wait_timeout(inner, dur)
                .unwrap_or_default_fixture();
            inner = guard;
        }
        *inner
    }

    /// The same hand-off spelled as a path call, the guard a later
    /// argument rather than the only one: legitimate exactly like the
    /// method form. NOT flagged.
    fn path_call_handoff(&self, dur: std::time::Duration) -> u32 {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        while *inner == 0 {
            inner = Condvar::wait_timeout(&self.ready, inner, dur).0;
        }
        *inner
    }

    /// The serve submitter's park on a full server: the assembler's
    /// guard rides into `space.wait`, comes back, and is dropped before
    /// the worker is notified. NOT flagged.
    fn submitter_parks_on_space(&self, capacity: u32) {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        while *inner >= capacity {
            inner = self.space.wait(inner).unwrap_or_default_fixture();
        }
        *inner += 1;
        drop(inner);
        self.ready.notify_one();
    }

    /// A temporary guard dies at the end of its statement; the recv on
    /// the next line runs lock-free. NOT flagged.
    fn temporary_then_recv(&self, rx: &Receiver<u32>) -> u32 {
        let base = *self.state.lock().unwrap_or_default_fixture();
        base + rx.recv().unwrap_or_default_fixture()
    }

    /// A guard bound inside a block is dead once the block closes.
    fn scoped_then_sleep(&self) -> u32 {
        let base = {
            let g = self.state.lock().unwrap_or_default_fixture();
            *g
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        base
    }
}
