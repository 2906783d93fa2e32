//! Workspace synchronization shim with optional data-race detection.
//!
//! Every crate in the workspace uses these atomics instead of bare
//! `std::sync::atomic` (the `shared-state` lint rule enforces it). With the
//! default feature set they are transparent wrappers that compile to the
//! identical machine code; with the `race-detect` feature they double as
//! *synchronization edge recorders* for a vector-clock happens-before race
//! detector (see [`race`]):
//!
//! * an atomic store/RMW with `Release` (or stronger) ordering publishes the
//!   current thread's vector clock into the atomic's clock;
//! * an atomic load/RMW with `Acquire` (or stronger) ordering joins the
//!   atomic's clock into the current thread's clock;
//! * `Relaxed` operations create **no** edges — and are never themselves
//!   checked, because atomics cannot data-race. A `Relaxed` metrics counter
//!   is fine; what `Relaxed` cannot do is *order* other memory, and that is
//!   exactly what the detector will catch at the [`CheckedCell`] it failed
//!   to protect.
//!
//! [`CheckedCell`] is the checked counterpart for plain (non-atomic) shared
//! data: a cell whose accesses the caller promises are ordered by the edges
//! above (or by locks / signals / spawn, which also record edges under the
//! feature). The detector verifies the promise and reports both racing
//! sites when it is broken.

// `unsafe` is confined to the `UnsafeCell` accesses behind `CheckedCell`
// (its `Sync` impl and `race::CellId`'s raw read and write), each allowing
// it, with a `// SAFETY:` comment on every block.
#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod race;

use std::cell::UnsafeCell;
use std::panic::Location;

pub use std::sync::atomic::Ordering;

/// True when `order` makes a load (or the load half of an RMW) an acquire.
#[inline(always)]
fn load_acquires(order: Ordering) -> bool {
    matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

/// True when `order` makes a store (or the store half of an RMW) a release.
#[inline(always)]
fn store_releases(order: Ordering) -> bool {
    matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $int:ty) => {
        $(#[$doc])*
        ///
        /// API-compatible subset of the same-named `std::sync::atomic` type.
        /// Under `race-detect`, Release/Acquire-or-stronger operations record
        /// happens-before edges in the global [`race`] registry; `Relaxed`
        /// operations stay edge-free (see the crate docs for why that is the
        /// correct model).
        #[derive(Default)]
        pub struct $name {
            obj: race::SyncObj,
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic integer.
            pub const fn new(v: $int) -> Self {
                Self { obj: race::SyncObj::new(), inner: std::sync::atomic::$std::new(v) }
            }

            /// Loads the value; `Acquire`-or-stronger joins the atomic's
            /// clock into the current thread (an acquire edge).
            #[inline]
            pub fn load(&self, order: Ordering) -> $int {
                let v = self.inner.load(order);
                if load_acquires(order) {
                    self.obj.acquire();
                }
                v
            }

            /// Stores a value; `Release`-or-stronger publishes the current
            /// thread's clock into the atomic (a release edge).
            #[inline]
            pub fn store(&self, val: $int, order: Ordering) {
                if store_releases(order) {
                    self.obj.release();
                }
                self.inner.store(val, order);
            }

            /// Swaps the value, recording edges per the RMW's two halves.
            #[inline]
            pub fn swap(&self, val: $int, order: Ordering) -> $int {
                if store_releases(order) {
                    self.obj.release();
                }
                let v = self.inner.swap(val, order);
                if load_acquires(order) {
                    self.obj.acquire();
                }
                v
            }

            /// Compare-and-exchange. A successful exchange records edges per
            /// `success`; a failed one is a pure load under `failure`.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                if store_releases(success) {
                    self.obj.release();
                }
                let r = self.inner.compare_exchange(current, new, success, failure);
                match r {
                    Ok(_) if load_acquires(success) => self.obj.acquire(),
                    Err(_) if load_acquires(failure) => self.obj.acquire(),
                    _ => {}
                }
                r
            }


            /// CAS-loop update (std semantics): `f` maps the current value
            /// to a replacement, `None` aborts. Edges follow the orderings
            /// like `compare_exchange`.
            #[inline]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$int, $int>
            where
                F: FnMut($int) -> Option<$int>,
            {
                if store_releases(set_order) {
                    self.obj.release();
                }
                let r = self.inner.fetch_update(set_order, fetch_order, f);
                match r {
                    Ok(_) if load_acquires(set_order) => self.obj.acquire(),
                    Err(_) if load_acquires(fetch_order) => self.obj.acquire(),
                    _ => {}
                }
                r
            }

            int_atomic!(@rmw fetch_add, $int, "Adds to the value, returning the previous value.");
            int_atomic!(@rmw fetch_sub, $int, "Subtracts from the value, returning the previous value.");
            int_atomic!(@rmw fetch_and, $int, "Bitwise-ANDs the value, returning the previous value.");
            int_atomic!(@rmw fetch_or, $int, "Bitwise-ORs the value, returning the previous value.");
            int_atomic!(@rmw fetch_xor, $int, "Bitwise-XORs the value, returning the previous value.");
            int_atomic!(@rmw fetch_max, $int, "Stores the maximum of the two values, returning the previous value.");
            int_atomic!(@rmw fetch_min, $int, "Stores the minimum of the two values, returning the previous value.");

            /// Mutable access without synchronization (requires `&mut`).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $int {
                self.inner.get_mut()
            }

            /// Consumes the atomic, returning the contained value.
            #[inline]
            pub fn into_inner(self) -> $int {
                self.inner.into_inner()
            }
        }

        impl From<$int> for $name {
            fn from(v: $int) -> Self {
                Self::new(v)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    };

    (@rmw $method:ident, $int:ty, $doc:literal) => {
        #[doc = $doc]
        /// Records edges per the RMW's two halves.
        #[inline]
        pub fn $method(&self, val: $int, order: Ordering) -> $int {
            if store_releases(order) {
                self.obj.release();
            }
            let v = self.inner.$method(val, order);
            if load_acquires(order) {
                self.obj.acquire();
            }
            v
        }
    };
}

int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicU32, AtomicU32, u32
);
int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicU64, AtomicU64, u64
);
int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicUsize, AtomicUsize, usize
);

/// A boolean type which can be safely shared between threads.
///
/// API-compatible subset of `std::sync::atomic::AtomicBool`; see the crate
/// docs for the happens-before edges recorded under `race-detect`.
#[derive(Default)]
pub struct AtomicBool {
    obj: race::SyncObj,
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a new atomic bool.
    pub const fn new(v: bool) -> Self {
        Self { obj: race::SyncObj::new(), inner: std::sync::atomic::AtomicBool::new(v) }
    }

    /// Loads the value; `Acquire`-or-stronger records an acquire edge.
    #[inline]
    pub fn load(&self, order: Ordering) -> bool {
        let v = self.inner.load(order);
        if load_acquires(order) {
            self.obj.acquire();
        }
        v
    }

    /// Stores a value; `Release`-or-stronger records a release edge.
    #[inline]
    pub fn store(&self, val: bool, order: Ordering) {
        if store_releases(order) {
            self.obj.release();
        }
        self.inner.store(val, order);
    }

    /// Swaps the value, recording edges per the RMW's two halves.
    #[inline]
    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        if store_releases(order) {
            self.obj.release();
        }
        let v = self.inner.swap(val, order);
        if load_acquires(order) {
            self.obj.acquire();
        }
        v
    }

    /// Compare-and-exchange; edges per `success` on success, a pure load
    /// under `failure` otherwise.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        if store_releases(success) {
            self.obj.release();
        }
        let r = self.inner.compare_exchange(current, new, success, failure);
        match r {
            Ok(_) if load_acquires(success) => self.obj.acquire(),
            Err(_) if load_acquires(failure) => self.obj.acquire(),
            _ => {}
        }
        r
    }

    /// Mutable access without synchronization (requires `&mut`).
    #[inline]
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }

    /// Consumes the atomic, returning the contained value.
    #[inline]
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }
}

impl From<bool> for AtomicBool {
    fn from(v: bool) -> Self {
        Self::new(v)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// A shared plain-data cell whose accesses are *checked*, not synchronized.
///
/// `CheckedCell<T>` holds ordinary non-atomic data that is shared between
/// threads. The caller's contract is that every `get`/`set` pair is ordered
/// by a happens-before edge the workspace actually models: a lock
/// release→acquire, an `Acquire`/`Release` atomic pair on the shim types, a
/// `netsim` signal notify→wake, a task handoff, or a thread spawn/join.
///
/// * Feature off: compiles to a raw `UnsafeCell` access — the contract is
///   trusted, exactly like hand-written unsafe sharing.
/// * Feature `race-detect`: every access is checked against the recorded
///   edges with a FastTrack-style vector-clock algorithm. An unordered
///   read/write or write/write pair **panics** (or is collected, see
///   [`race::set_panic_on_race`]) naming both racing sites (`file:line`),
///   the two thread names with their epochs, and the live thread census.
///   The data access itself is serialized by the detector's registry lock,
///   so a detected race is reported rather than being undefined behavior.
pub struct CheckedCell<T> {
    id: race::CellId,
    cell: UnsafeCell<T>,
}

// SAFETY: feature off, the caller upholds the ordering contract (as with any
// UnsafeCell-based primitive); feature on, accesses are serialized by the
// race registry lock and violations of the contract are *detected*.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for CheckedCell<T> {}

impl<T: Copy> CheckedCell<T> {
    /// Creates a new checked cell.
    pub const fn new(v: T) -> Self {
        Self { id: race::CellId::new(), cell: UnsafeCell::new(v) }
    }

    /// Reads the value. Under `race-detect` this is checked against the last
    /// write's epoch; an unordered write→read pair is a reported race.
    #[track_caller]
    #[inline]
    pub fn get(&self) -> T {
        self.id.read(&self.cell, Location::caller())
    }

    /// Writes the value. Under `race-detect` this is checked against the
    /// last write and all reads since; any unordered pair is a reported
    /// race.
    #[track_caller]
    #[inline]
    pub fn set(&self, v: T) {
        self.id.write(&self.cell, v, Location::caller())
    }
}

impl<T: Copy + Default> Default for CheckedCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> std::fmt::Debug for CheckedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CheckedCell(..)")
    }
}
