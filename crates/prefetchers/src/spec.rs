//! [`ModuleSpec`]: the declarative description of an L2C prefetching
//! module.
//!
//! Historically the simulator threaded a `&dyn Fn(usize) -> PsaModule`
//! closure through `System::try_build`, which meant a variant existed
//! only as code at a call site — impossible to store in a `SimConfig`,
//! hash into a checkpoint key, or name over the serve API. `ModuleSpec`
//! replaces the closure with a plain value: *which* family, *which*
//! page-size policy, and the tuning knobs, with the module construction
//! centralised in [`ModuleSpec::build_module`]. Variants are data, not
//! code.

use psa_core::dueling::SdConfigError;
use psa_core::ppm::PageSizeSource;
use psa_core::{ModuleConfig, PageSizePolicy, PsaModule, SdConfig};

use crate::PrefetcherKind;

/// A declarative, hashable description of the L2C prefetching module
/// a simulated core should carry: the family, the page-size policy, and
/// per-family tuning knobs. `Default` is *no prefetching* — the
/// baseline — so an untouched `SimConfig` behaves exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleSpec {
    /// The prefetcher family, or `None` for the no-prefetch baseline.
    pub kind: Option<PrefetcherKind>,
    /// The page size awareness policy the module wraps the family in.
    pub policy: PageSizePolicy,
    /// Multiplier on every table shape (≥1); the ISO-storage ablation's
    /// doubled prefetchers are `2`. See
    /// [`PrefetcherKind::build_scaled`].
    pub storage_scale: u8,
}

impl Default for ModuleSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl ModuleSpec {
    /// The no-prefetch baseline: no module is built at all.
    pub const fn none() -> Self {
        Self {
            kind: None,
            policy: PageSizePolicy::Original,
            storage_scale: 1,
        }
    }

    /// A `kind` prefetcher under `policy`, at its published storage
    /// budget.
    pub const fn pref(kind: PrefetcherKind, policy: PageSizePolicy) -> Self {
        Self {
            kind: Some(kind),
            policy,
            storage_scale: 1,
        }
    }

    /// Scale every table shape by `scale` (clamped to ≥1).
    #[must_use]
    pub const fn with_storage_scale(mut self, scale: u8) -> Self {
        self.storage_scale = if scale == 0 { 1 } else { scale };
        self
    }

    /// Build the module this spec describes, or `None` for the
    /// baseline.
    ///
    /// * `l2c_sets` — dueling sample-set layout input;
    /// * `sd` / `module` — the system's dueling and issue-path configs;
    /// * `source` — how page-size information reaches the module;
    /// * `observed` — switch on the module's observability counters
    ///   ([`PsaModule::enable_obs`]; bit-identical behaviour).
    ///
    /// # Errors
    ///
    /// Fails if the policy is `PsaSd` and the dueling shape does not fit
    /// the cache.
    pub fn build_module(
        &self,
        l2c_sets: usize,
        sd: SdConfig,
        module: ModuleConfig,
        source: PageSizeSource,
        observed: bool,
    ) -> Result<Option<PsaModule>, SdConfigError> {
        let Some(kind) = self.kind else {
            return Ok(None);
        };
        let scale = usize::from(self.storage_scale.max(1));
        let factory = |grain| kind.build_scaled(grain, scale);
        let mut built = PsaModule::new(self.policy, source, &factory, l2c_sets, sd, module)?;
        if observed {
            built.enable_obs();
        }
        Ok(Some(built))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_baseline() {
        let spec = ModuleSpec::default();
        assert_eq!(spec, ModuleSpec::none());
        let module = spec
            .build_module(
                1024,
                SdConfig::default(),
                ModuleConfig::default(),
                PageSizeSource::Ppm,
                false,
            )
            .unwrap();
        assert!(module.is_none(), "no kind, no module");
    }

    #[test]
    fn builds_every_family_under_every_policy() {
        for kind in PrefetcherKind::ALL {
            for policy in PageSizePolicy::ALL {
                let spec = ModuleSpec::pref(kind, policy);
                let module = spec
                    .build_module(
                        1024,
                        SdConfig::default(),
                        ModuleConfig::default(),
                        PageSizeSource::Ppm,
                        false,
                    )
                    .unwrap_or_else(|e| panic!("{kind:?}/{policy:?}: {e:?}"))
                    .expect("kind set, module built");
                assert_eq!(module.policy(), policy);
                assert_eq!(module.prefetcher_name(), kind.name());
            }
        }
    }

    #[test]
    fn storage_scale_reaches_the_built_module() {
        let base = ModuleSpec::pref(PrefetcherKind::Spp, PageSizePolicy::Original)
            .build_module(
                1024,
                SdConfig::default(),
                ModuleConfig::default(),
                PageSizeSource::Ppm,
                false,
            )
            .unwrap()
            .unwrap()
            .storage_bytes() as f64;
        let doubled = ModuleSpec::pref(PrefetcherKind::Spp, PageSizePolicy::Original)
            .with_storage_scale(2)
            .build_module(
                1024,
                SdConfig::default(),
                ModuleConfig::default(),
                PageSizeSource::Ppm,
                false,
            )
            .unwrap()
            .unwrap()
            .storage_bytes() as f64;
        let ratio = doubled / base;
        assert!((1.5..=2.5).contains(&ratio), "ratio {ratio:.2}");
    }
}
