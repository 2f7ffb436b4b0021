//! Poison-recovering lock helper.
//!
//! A `Mutex` is poisoned when a panic unwinds while the guard is held.
//! Every shared structure in this workspace is either immutable-after-init
//! (plans) or re-validated by its consumer (queues drain defensively,
//! best-incumbent merges re-compare), so recovering the guard is always
//! safe — whereas propagating the poison with
//! `.expect("poisoned")` escalates one contained strategy panic into a
//! whole-process abort.  Mutex acquisitions in csp and service go through
//! this helper; the fault harness recovers its static locks the same way.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn lock_or_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_recover_with_their_data() {
        let shared = Arc::new(Mutex::new(7));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(shared.is_poisoned());
        assert_eq!(*lock_or_recover(&shared), 7);
    }
}
