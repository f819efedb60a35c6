//! The plan-artifact cache: reusing training outputs across epochs.
//!
//! Training an epoch produces a bundle of artifacts — the injection
//! plan, the relinked program/layout, and the temperature profile. All
//! of them are pure functions of (service binary layout, aggregated
//! profile), so undrifted epochs can reuse them wholesale. The cache keys
//! on exactly those two inputs and is *observation-neutral*: a warm cache
//! changes wall time, never a single reported number (the determinism
//! tests compare warm and cold reports).

use std::collections::HashMap;
use std::sync::Arc;

use ripple::CoverageStats;
use ripple_program::{InjectionPlan, Layout, LineAddr, Program, Rewritten};
use ripple_sim::TemperatureMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

fn fnv_u64(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a layout's observable shape: every block's address and size,
/// in block order. Two layouts with equal hashes induce the same
/// line-access behaviour, so cached artifacts keyed on it are safe to
/// splice.
pub fn layout_hash(program: &Program, layout: &Layout) -> u64 {
    let mut h = FNV_OFFSET;
    for block in program.blocks() {
        h = fnv_u64(h, layout.block_addr(block.id()).get());
        h = fnv_u64(h, layout.block_size(block.id()) as u64);
    }
    h
}

/// Fingerprints an aggregated profile: the weighted line-access counts
/// (already sorted — the aggregator hands over a `BTreeMap`) plus the
/// training-trace length. Input drift changes the counts and therefore
/// the fingerprint; identical traffic re-produces it bit-for-bit.
pub fn profile_fingerprint<'c>(
    counts: impl IntoIterator<Item = (&'c LineAddr, &'c u64)>,
    train_blocks: u64,
) -> u64 {
    let mut h = FNV_OFFSET;
    for (line, count) in counts {
        h = fnv_u64(h, line.index());
        h = fnv_u64(h, *count);
    }
    fnv_u64(h, train_blocks)
}

/// Everything one training run produces, ready to redeploy.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// The injection plan at the configured threshold.
    pub plan: InjectionPlan,
    /// Coverage of the plan over the training windows.
    pub coverage: CoverageStats,
    /// The relinked program and layout the plan was applied to.
    pub rewritten: Rewritten,
    /// The temperature profile the plan was trained against.
    pub temperatures: TemperatureMap,
}

/// Cache-effectiveness counters (reported per epoch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to train.
    pub misses: u64,
    /// Entries dropped by explicit drift invalidation.
    pub invalidations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ArtifactKey {
    service: usize,
    layout_hash: u64,
    fingerprint: u64,
}

/// Keyed store of [`PlanArtifact`]s with explicit drift invalidation.
#[derive(Debug, Default)]
pub struct PlanArtifactCache {
    entries: HashMap<ArtifactKey, Arc<PlanArtifact>>,
    stats: CacheStats,
}

impl PlanArtifactCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the artifact for (service, layout, profile), counting a
    /// hit or miss.
    pub fn lookup(
        &mut self,
        service: usize,
        layout_hash: u64,
        fingerprint: u64,
    ) -> Option<Arc<PlanArtifact>> {
        let key = ArtifactKey {
            service,
            layout_hash,
            fingerprint,
        };
        match self.entries.get(&key) {
            Some(artifact) => {
                self.stats.hits += 1;
                Some(artifact.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly trained artifact.
    pub fn insert(
        &mut self,
        service: usize,
        layout_hash: u64,
        fingerprint: u64,
        artifact: Arc<PlanArtifact>,
    ) {
        let key = ArtifactKey {
            service,
            layout_hash,
            fingerprint,
        };
        self.entries.insert(key, artifact);
    }

    /// Drops every entry of `service` (the drift event: its profile is
    /// declared stale regardless of fingerprints). Returns how many
    /// entries were dropped; the count also accumulates into
    /// [`CacheStats::invalidations`].
    pub fn invalidate_service(&mut self, service: usize) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|key, _| key.service != service);
        let dropped = (before - self.entries.len()) as u64;
        self.stats.invalidations += dropped;
        dropped
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{Layout, LayoutConfig};
    use ripple_workloads::{generate, AppSpec};

    fn dummy_artifact() -> Arc<PlanArtifact> {
        let app = generate(&AppSpec::tiny(1));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let plan = InjectionPlan::default();
        let rewritten = ripple_program::rewrite(&app.program, &layout, &plan);
        Arc::new(PlanArtifact {
            plan,
            coverage: CoverageStats::default(),
            rewritten,
            temperatures: TemperatureMap::new(),
        })
    }

    #[test]
    fn lookup_hit_miss_and_invalidation_counting() {
        let mut cache = PlanArtifactCache::new();
        assert!(cache.lookup(0, 1, 2).is_none());
        cache.insert(0, 1, 2, dummy_artifact());
        assert!(cache.lookup(0, 1, 2).is_some());
        assert!(cache.lookup(0, 1, 3).is_none(), "fingerprint drift misses");
        assert!(cache.lookup(0, 9, 2).is_none(), "layout drift misses");
        assert!(cache.lookup(1, 1, 2).is_none(), "other service misses");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 4,
                invalidations: 0
            }
        );
        cache.insert(1, 1, 2, dummy_artifact());
        assert_eq!(cache.invalidate_service(0), 1);
        assert!(cache.lookup(0, 1, 2).is_none(), "invalidated");
        assert!(cache.lookup(1, 1, 2).is_some(), "other service survives");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hashes_are_stable_and_input_sensitive() {
        let app = generate(&AppSpec::tiny(2));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        assert_eq!(
            layout_hash(&app.program, &layout),
            layout_hash(&app.program, &layout)
        );
        let counts =
            std::collections::BTreeMap::from([(LineAddr::new(1), 3u64), (LineAddr::new(2), 5u64)]);
        let fp = profile_fingerprint(counts.iter(), 100);
        assert_eq!(fp, profile_fingerprint(counts.iter(), 100));
        assert_ne!(fp, profile_fingerprint(counts.iter(), 101));
        let mut drifted = counts.clone();
        drifted.insert(LineAddr::new(2), 6);
        assert_ne!(fp, profile_fingerprint(drifted.iter(), 100));
    }
}
