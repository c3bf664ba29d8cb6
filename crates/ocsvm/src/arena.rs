//! A no-op stand-in for the shared kernel-row arena the crate used to keep.
//!
//! Every kernel row now lives in the store of the [`GramMatrix`](crate::GramMatrix)
//! that computed it: filled on first access, never shared, dropped with the
//! matrix. [`KernelRowArena`] holds nothing and is read by nobody; it is
//! kept only because the separately built `perfbench` workspace still
//! constructs one and hands it to `ModelGridSearch::arena`,
//! `StreamEngine::with_arena` and `UserProfile::batch_decision_values_in`,
//! all of which ignore it.

use std::sync::Arc;

/// Inert placeholder for the former shared kernel-row cache; see the
/// module docs.
///
/// # Examples
///
/// ```
/// use ocsvm::KernelRowArena;
///
/// // The budget is accepted and ignored: the arena holds no rows.
/// let arena = KernelRowArena::with_budget(64 << 20);
/// let shared = std::sync::Arc::clone(&arena);
/// assert_eq!(std::sync::Arc::strong_count(&shared), 2);
/// ```
#[derive(Debug)]
pub struct KernelRowArena;

impl KernelRowArena {
    /// Returns an arena that holds nothing; `budget_bytes` takes no effect.
    pub fn with_budget(_budget_bytes: usize) -> Arc<Self> {
        Arc::new(Self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_send_and_sync() {
        // Callers still share the placeholder across threads by `Arc`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelRowArena>();
    }
}
