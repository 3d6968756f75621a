//! Uniform aggregation for counter structs.
//!
//! `TrafficStats`, `IoStats`, `Cost` and `FaultStats` all used to
//! hand-roll `merge`/`reset`/`absorb` methods that enumerate every field
//! by hand — which means a newly added field silently vanishes from
//! aggregation if one list is forgotten. The [`Merge`] trait plus the
//! [`metric_struct!`](crate::metric_struct) macro close that hole: the
//! macro defines the struct, its `Merge` impl, *and* its registry export
//! from one field list, so the three can never drift apart.

/// Additive aggregation: combine another instance into `self`, or reset
/// to the zero state.
pub trait Merge {
    /// Adds `other`'s contribution into `self`.
    fn merge_from(&mut self, other: &Self);
    /// Resets `self` to the zero state.
    fn reset(&mut self);
}

impl Merge for u64 {
    fn merge_from(&mut self, other: &Self) {
        *self += *other;
    }
    fn reset(&mut self) {
        *self = 0;
    }
}

/// Defines a counter struct together with its [`Merge`] impl and a
/// registry-export method, from a single field list.
///
/// Every field must be `u64`. The macro emits:
///
/// * the struct definition (attributes, including derives, pass through);
/// * `impl Merge` — `merge_from` adds and `reset` zeroes every field;
/// * `fn export_counters(&self, registry, prefix, label)` — sets one
///   registry counter per field, named `<prefix>_<field>`, optionally
///   carrying one `key="value"` label.
///
/// Because all three are generated from the same list, adding a field
/// automatically extends aggregation and export.
///
/// # Example
///
/// ```
/// deltacfs_obs::metric_struct! {
///     /// Demo counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Demo {
///         /// Things seen.
///         pub seen: u64,
///         /// Things done.
///         pub done: u64,
///     }
/// }
/// use deltacfs_obs::Merge;
/// let mut a = Demo { seen: 1, done: 2 };
/// a.merge_from(&a.clone());
/// assert_eq!(a.done, 4);
/// let reg = deltacfs_obs::Registry::new();
/// a.export_counters(&reg, "demo", None);
/// assert_eq!(reg.counter("demo_seen", "").get(), 2);
/// ```
#[macro_export]
macro_rules! metric_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: u64
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$fmeta])*
                $fvis $field: u64,
            )*
        }

        impl $crate::Merge for $name {
            fn merge_from(&mut self, other: &Self) {
                $( $crate::Merge::merge_from(&mut self.$field, &other.$field); )*
            }
            fn reset(&mut self) {
                $( $crate::Merge::reset(&mut self.$field); )*
            }
        }

        impl $name {
            /// Sets one registry counter per field, named
            /// `<prefix>_<field>`, optionally labeled `key="value"`.
            /// Counters are *set* to the struct's current values, so this
            /// is a snapshot-absorption: call it right before
            /// [`Registry::snapshot`]($crate::Registry::snapshot).
            $vis fn export_counters(
                &self,
                registry: &$crate::Registry,
                prefix: &str,
                label: Option<(&str, &str)>,
            ) {
                $(
                    registry
                        .counter_labeled(
                            &format!("{prefix}_{}", stringify!($field)),
                            "",
                            label,
                        )
                        .set(self.$field);
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metric_struct! {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Sample {
            pub hits: u64,
            pub misses: u64,
        }
    }

    #[test]
    fn merge_adds_every_field() {
        let mut a = Sample { hits: 2, misses: 3 };
        let b = Sample { hits: 5, misses: 7 };
        a.merge_from(&b);
        assert_eq!(
            a,
            Sample {
                hits: 7,
                misses: 10
            }
        );
        a.reset();
        assert_eq!(a, Sample::default());
    }

    #[test]
    fn export_covers_every_field() {
        let reg = crate::Registry::new();
        let s = Sample { hits: 4, misses: 9 };
        s.export_counters(&reg, "sample", Some(("client", "0")));
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("sample_hits{client=\"0\"} 4"), "{prom}");
        assert!(prom.contains("sample_misses{client=\"0\"} 9"), "{prom}");
    }
}
