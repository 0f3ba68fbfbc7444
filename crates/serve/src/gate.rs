//! The admission gate in front of the compute handlers: at most `slots`
//! requests run at once, at most `capacity` more wait for a slot, and
//! anything beyond that is refused at admission — [`Gate::admit`] never
//! blocks, so overload sheds with a 503 instead of piling up threads.
//!
//! Waiters are served in admission order (a ticket / now-serving pair
//! under one `Mutex` + `Condvar`), and [`Gate::close`] refuses later
//! arrivals while every ticket already handed out is still served: the
//! drain protocol of graceful shutdown.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why [`Gate::admit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Every slot is busy and the waiting room is full — shed load (503).
    Full,
    /// The gate is closed — the server is draining for shutdown.
    Closed,
}

struct State {
    /// The next ticket [`Gate::admit`] hands out.
    next: usize,
    /// The ticket whose turn it is to take a slot; `next - serving`
    /// tickets are out and have no slot yet.
    serving: usize,
    /// Slots currently held.
    running: usize,
    closed: bool,
}

/// A bounded FIFO gate.
pub struct Gate {
    state: Mutex<State>,
    turn: Condvar,
    slots: usize,
    capacity: usize,
}

/// A place in line; redeem it with [`Gate::wait`]. Every ticket **must**
/// be redeemed — the line does not move past an abandoned one.
#[must_use = "an abandoned ticket blocks everyone admitted after it"]
#[derive(Debug)]
pub struct Ticket(usize);

/// A held slot, given back on drop — also when the holder unwinds.
pub struct Slot<'a>(&'a Gate);

impl Gate {
    /// A gate running at most `slots` requests (minimum 1) with at most
    /// `capacity` more waiting.
    pub fn new(slots: usize, capacity: usize) -> Self {
        Gate {
            state: Mutex::new(State { next: 0, serving: 0, running: 0, closed: false }),
            turn: Condvar::new(),
            slots: slots.max(1),
            capacity,
        }
    }

    /// Every update below is a single in-place step, so the state is valid
    /// even if a holder of the lock panicked; this also keeps [`Slot`]'s
    /// `Drop` from panicking.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a request if a slot or a place in the waiting room is free.
    /// Never blocks.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Closed`] after [`Gate::close`], [`AdmitError::Full`]
    /// when `slots` requests run and `capacity` wait.
    pub fn admit(&self) -> Result<Ticket, AdmitError> {
        let mut s = self.lock();
        if s.closed {
            return Err(AdmitError::Closed);
        }
        if s.running + (s.next - s.serving) >= self.slots + self.capacity {
            return Err(AdmitError::Full);
        }
        s.next += 1;
        Ok(Ticket(s.next - 1))
    }

    /// Blocks until it is `ticket`'s turn and a slot is free, then takes
    /// the slot. Works on a closed gate: admitted work is never dropped.
    pub fn wait(&self, ticket: Ticket) -> Slot<'_> {
        let mut s = self.lock();
        while s.serving != ticket.0 || s.running == self.slots {
            s = self.turn.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.serving += 1;
        s.running += 1;
        drop(s);
        // The next ticket's turn has come; it may find a second free slot.
        self.turn.notify_all();
        Slot(self)
    }

    /// The most requests admitted at once: `slots` running plus `capacity`
    /// waiting.
    pub(crate) fn limit(&self) -> usize {
        self.slots + self.capacity
    }

    /// Admitted requests that cannot have a slot yet (the queue depth).
    pub fn waiting(&self) -> usize {
        let s = self.lock();
        (s.next - s.serving).saturating_sub(self.slots - s.running)
    }

    /// Closes the gate: later arrivals are refused, tickets already handed
    /// out are served.
    pub fn close(&self) {
        self.lock().closed = true;
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn refuses_at_capacity_without_blocking() {
        let g = Gate::new(1, 2);
        let running = g.wait(g.admit().unwrap());
        let (a, b) = (g.admit().unwrap(), g.admit().unwrap());
        assert_eq!(g.admit().unwrap_err(), AdmitError::Full);
        assert_eq!(g.waiting(), 2);
        // A finished request makes room for one more arrival.
        drop(running);
        let second = g.wait(a);
        assert_eq!(g.waiting(), 1);
        let c = g.admit().unwrap();
        assert_eq!(g.admit().unwrap_err(), AdmitError::Full);
        drop(second);
        drop(g.wait(b));
        drop(g.wait(c));
        assert_eq!(g.waiting(), 0);
    }

    #[test]
    fn a_free_slot_is_taken_without_waiting() {
        // No waiting room at all: only free slots admit. Nobody else could
        // wake this thread, so a wait() that blocked would hang the test.
        let g = Gate::new(2, 0);
        let first = g.wait(g.admit().unwrap());
        let second = g.wait(g.admit().unwrap());
        assert_eq!(g.waiting(), 0);
        assert_eq!(g.admit().unwrap_err(), AdmitError::Full);
        drop(first);
        drop(g.wait(g.admit().unwrap()));
        drop(second);
    }

    #[test]
    fn slots_are_granted_in_admission_order() {
        let g = Arc::new(Gate::new(1, 8));
        let held = g.wait(g.admit().unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        // Tickets are taken in order 0..6 here; the waiters start in the
        // opposite order and all block behind `held`.
        let tickets: Vec<_> = (0..6).map(|i| (i, g.admit().unwrap())).collect();
        let waiters: Vec<_> = tickets
            .into_iter()
            .rev()
            .map(|(i, ticket)| {
                let (g, order) = (Arc::clone(&g), Arc::clone(&order));
                thread::spawn(move || {
                    let _slot = g.wait(ticket);
                    order.lock().unwrap().push(i);
                })
            })
            .collect();
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn close_refuses_arrivals_and_serves_the_admitted() {
        let g = Arc::new(Gate::new(1, 4));
        let held = g.wait(g.admit().unwrap());
        let (blocked, later) = (g.admit().unwrap(), g.admit().unwrap());
        let waiter = {
            let g = Arc::clone(&g);
            thread::spawn(move || drop(g.wait(blocked)))
        };
        g.close();
        assert_eq!(g.admit().unwrap_err(), AdmitError::Closed);
        // Both tickets handed out before the close still get their slot.
        drop(held);
        waiter.join().unwrap();
        drop(g.wait(later));
        assert_eq!(g.admit().unwrap_err(), AdmitError::Closed);
    }

    #[test]
    fn never_more_than_slots_running_and_every_admission_runs_once() {
        const SLOTS: usize = 3;
        const THREADS: usize = 32;
        const EACH: usize = 50;
        let g = Arc::new(Gate::new(SLOTS, 4));
        let running = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (g, running, ran) = (Arc::clone(&g), Arc::clone(&running), Arc::clone(&ran));
                thread::spawn(move || {
                    let mut admitted = 0;
                    while admitted < EACH {
                        let ticket = match g.admit() {
                            Ok(t) => t,
                            Err(AdmitError::Full) => {
                                thread::yield_now();
                                continue;
                            }
                            Err(AdmitError::Closed) => panic!("closed early"),
                        };
                        admitted += 1;
                        let _slot = g.wait(ticket);
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= SLOTS, "{now} requests running behind {SLOTS} slots");
                        ran.fetch_add(1, Ordering::SeqCst);
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), THREADS * EACH, "every admission ran exactly once");
        assert_eq!(g.waiting(), 0);
    }

    #[test]
    fn a_slot_held_by_a_panicking_thread_is_reusable() {
        let g = Arc::new(Gate::new(1, 1));
        let holder = {
            let g = Arc::clone(&g);
            thread::spawn(move || {
                let _slot = g.wait(g.admit().unwrap());
                panic!("handler panicked holding the only slot");
            })
        };
        assert!(holder.join().is_err());
        // The unwinding holder gave the slot back: this does not block.
        drop(g.wait(g.admit().unwrap()));
    }
}
