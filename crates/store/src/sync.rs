//! Concurrency helpers for serving one store to many threads.
//!
//! [`InFlight`] is a keyed single-flight registry: the first caller for
//! a key becomes the *leader* and computes the value, every concurrent
//! or later caller for the same key *joins* the finished (or
//! registered) entry instead of recomputing. This is the server-side
//! dedup layer: N identical job submissions cost one simulation.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Outcome of [`InFlight::try_enter`].
#[derive(Debug)]
pub enum Entered<V> {
    /// This caller registered the key; it owns producing the result.
    Led(V),
    /// The key was already registered; the existing value is returned.
    Joined(V),
}

impl<V> Entered<V> {
    /// The carried value, leader or not.
    pub fn value(self) -> V {
        match self {
            Entered::Led(v) | Entered::Joined(v) => v,
        }
    }

    /// Whether this caller is the leader for the key.
    pub fn led(&self) -> bool {
        matches!(self, Entered::Led(_))
    }
}

/// Keyed single-flight registry: one leader per key, everyone else
/// joins the leader's entry.
///
/// `try_enter` runs the caller's constructor *under the registry
/// lock*, so checking capacity, enqueueing work and registering the
/// key are one atomic step — a concurrent duplicate can never slip
/// between "not registered yet" and "registered". Entries stay until
/// [`InFlight::remove`], so finished keys keep dedup-serving joiners.
pub struct InFlight<K, V> {
    map: Mutex<HashMap<K, V>>,
    leaders: AtomicU64,
    joined: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> InFlight<K, V> {
    /// Empty registry.
    pub fn new() -> Self {
        InFlight {
            map: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        }
    }

    /// Join `key`'s existing entry, or lead by registering the value
    /// produced by `make`. `make` runs at most once per registration
    /// and only when no entry exists; if it errors, nothing is
    /// registered and the error is returned to this caller alone.
    pub fn try_enter<E>(
        &self,
        key: K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<Entered<V>, E> {
        let mut map = self.lock();
        if let Some(v) = map.get(&key) {
            self.joined.fetch_add(1, Ordering::Relaxed);
            return Ok(Entered::Joined(v.clone()));
        }
        let v = make()?;
        map.insert(key, v.clone());
        self.leaders.fetch_add(1, Ordering::Relaxed);
        Ok(Entered::Led(v))
    }

    /// Current value for `key`, if registered.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// Drop `key`'s entry (e.g. a failed job, so a retry can lead).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock().remove(key)
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Callers that registered a new entry.
    pub fn leaders(&self) -> u64 {
        self.leaders.load(Ordering::Relaxed)
    }

    /// Callers served an existing entry.
    pub fn joined(&self) -> u64 {
        self.joined.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, V>> {
        match self.map.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for InFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn in_flight_has_exactly_one_leader_per_key() {
        let reg: InFlight<u64, usize> = InFlight::new();
        let threads = 16;
        let barrier = Barrier::new(threads);
        let led = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (reg, barrier, led) = (&reg, &barrier, &led);
                s.spawn(move || {
                    barrier.wait();
                    let entered = reg
                        .try_enter(42, || Ok::<_, ()>(t))
                        .expect("infallible make");
                    if entered.led() {
                        led.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(led.load(Ordering::Relaxed), 1);
        assert_eq!(reg.leaders(), 1);
        assert_eq!(reg.joined(), threads as u64 - 1);
        assert_eq!(reg.len(), 1);
        // Everyone joined the single registered value.
        let v = reg.get(&42).expect("registered");
        assert!(v < threads);
    }

    #[test]
    fn in_flight_failed_make_registers_nothing() {
        let reg: InFlight<u64, usize> = InFlight::new();
        let err = reg.try_enter(7, || Err::<usize, _>("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert!(reg.is_empty());
        // A later caller can still lead.
        let entered = reg.try_enter(7, || Ok::<_, ()>(9)).expect("ok");
        assert!(entered.led());
        assert_eq!(entered.value(), 9);
    }

    #[test]
    fn in_flight_remove_allows_retry_leadership() {
        let reg: InFlight<&'static str, u32> = InFlight::new();
        assert!(reg.try_enter("k", || Ok::<_, ()>(1)).unwrap().led());
        assert_eq!(reg.remove(&"k"), Some(1));
        assert!(reg.try_enter("k", || Ok::<_, ()>(2)).unwrap().led());
        assert_eq!(reg.get(&"k"), Some(2));
    }
}
