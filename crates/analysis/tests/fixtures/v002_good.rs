//! V002 fixture: correct lock discipline — condvar handoffs, temporary
//! guards that die at end of statement, and scope-bounded guards. Must
//! produce zero diagnostics.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};

pub struct Waiter {
    state: Mutex<u32>,
    ready: Condvar,
    space: Condvar,
}

impl Waiter {
    /// The condvar handoff: the guard rides into `wait`, which releases
    /// the lock while parked. NOT flagged.
    pub fn condvar_wait(&self) -> u32 {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        while *inner == 0 {
            inner = self.ready.wait(inner).unwrap_or_default_fixture();
        }
        *inner
    }

    /// Same for the timeout variant (guard is an argument).
    pub fn condvar_wait_timeout(&self) -> u32 {
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

    /// The hand-off through serve's `wait_until` helper: listed as
    /// blocking by name, and legitimate exactly like `wait` — the guard
    /// is an argument. NOT flagged.
    pub fn helper_handoff(&self, until: Option<std::time::Instant>) -> u32 {
        let mut inner = self.state.lock().unwrap_or_default_fixture();
        while *inner == 0 {
            inner = wait_until(&self.ready, inner, until);
        }
        *inner
    }

    /// The serve submitter's park on a full server: the assembler's
    /// guard rides into `space.wait`, comes back, and is dropped before
    /// the worker is notified. NOT flagged.
    pub fn submitter_parks_on_space(&self, capacity: u32) {
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
    pub fn temporary_then_recv(&self, rx: &Receiver<u32>) -> u32 {
        let base = *self.state.lock().unwrap_or_default_fixture();
        base + rx.recv().unwrap_or_default_fixture()
    }

    /// A guard bound inside a block is dead once the block closes.
    pub fn scoped_then_sleep(&self) -> u32 {
        let base = {
            let g = self.state.lock().unwrap_or_default_fixture();
            *g
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        base
    }
}
