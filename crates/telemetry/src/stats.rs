//! The [`stat_struct!`] macro: one field list generates a plain-`u64`
//! statistics struct plus the boilerplate every simulator layer used to
//! hand-roll — `AddAssign`, aggregation over collections, epoch deltas, and
//! name/value field iteration and construction (used by the per-epoch
//! recorder, the shard merge, the journal codec and the fault campaign).

/// Declares a statistics struct of `u64` fields with shared behavior.
///
/// The caller keeps full control of derives and doc comments; the macro
/// additionally implements:
///
/// * `AddAssign` — field-wise sum,
/// * `aggregate(iter)` — fold a collection of borrows into a total,
/// * `diff(&self, &earlier)` — saturating field-wise delta (for per-epoch
///   counters derived from cumulative totals),
/// * `fields(&self)` / `FIELD_NAMES` — name/value iteration for exporters,
/// * `try_from_fields(get)` — the inverse: builds the struct from a
///   fallible per-name lookup, in declaration order, for decoders.
///
/// ```
/// aqua_telemetry::stat_struct! {
///     /// Example stats.
///     #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
///     pub struct DemoStats {
///         /// Things seen.
///         pub seen: u64,
///         /// Things dropped.
///         pub dropped: u64,
///     }
/// }
/// let mut a = DemoStats { seen: 2, dropped: 1 };
/// a += DemoStats { seen: 3, dropped: 0 };
/// assert_eq!(a.seen, 5);
/// assert_eq!(a.diff(&DemoStats { seen: 1, dropped: 1 }).seen, 4);
/// assert_eq!(DemoStats::FIELD_NAMES, ["seen", "dropped"]);
/// let back = DemoStats::try_from_fields(|name| match name {
///     "seen" => Ok(5),
///     _ => Err(format!("no {name}")),
/// });
/// assert_eq!(back, Err("no dropped".to_string()));
/// ```
#[macro_export]
macro_rules! stat_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : u64 ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl ::core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                $( self.$field += rhs.$field; )+
            }
        }

        impl $name {
            /// Field names, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Sums a collection of per-unit stats into a total.
            pub fn aggregate<'a, I: IntoIterator<Item = &'a $name>>(iter: I) -> $name {
                let mut total = <$name as ::core::default::Default>::default();
                for s in iter {
                    total += *s;
                }
                total
            }

            /// Field-wise saturating delta `self - earlier` (per-epoch
            /// counters from cumulative snapshots).
            pub fn diff(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }

            /// Iterates `(name, value)` pairs in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$( (stringify!($field), self.$field) ),+].into_iter()
            }

            /// Builds a value from `get(name)` for each field, in
            /// declaration order, stopping at the first error.
            pub fn try_from_fields<E>(
                mut get: impl FnMut(&'static str) -> ::core::result::Result<u64, E>,
            ) -> ::core::result::Result<$name, E> {
                ::core::result::Result::Ok($name {
                    $( $field: get(stringify!($field))?, )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::stat_struct! {
        /// Test fixture.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct FixtureStats {
            /// a.
            pub alpha: u64,
            /// b.
            pub beta: u64,
        }
    }

    #[test]
    fn add_assign_and_aggregate() {
        let a = FixtureStats { alpha: 1, beta: 2 };
        let b = FixtureStats {
            alpha: 10,
            beta: 20,
        };
        let total = FixtureStats::aggregate([&a, &b]);
        assert_eq!(
            total,
            FixtureStats {
                alpha: 11,
                beta: 22
            }
        );
    }

    #[test]
    fn diff_saturates() {
        let late = FixtureStats { alpha: 5, beta: 1 };
        let early = FixtureStats { alpha: 2, beta: 3 };
        assert_eq!(late.diff(&early), FixtureStats { alpha: 3, beta: 0 });
    }

    #[test]
    fn field_iteration_matches_names() {
        let s = FixtureStats { alpha: 7, beta: 9 };
        let pairs: Vec<_> = s.fields().collect();
        assert_eq!(pairs, vec![("alpha", 7), ("beta", 9)]);
        assert_eq!(FixtureStats::FIELD_NAMES, &["alpha", "beta"]);
        let back = FixtureStats::try_from_fields(|name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or(name)
        });
        assert_eq!(back, Ok(s));
    }
}
