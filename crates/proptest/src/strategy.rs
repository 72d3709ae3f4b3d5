//! Value-generation strategies with simplification candidates.

use crate::test_runner::TestRng;
use rand::Rng;

/// Generates values of an output type from a random source.
///
/// Object-safe; combinators ([`Strategy::prop_map`], [`Strategy::boxed`])
/// require `Sized`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes strictly simpler candidates for `value`, most aggressive
    /// first. The shrinking loop ([`crate::shrink::minimize`]) keeps any
    /// candidate that still fails and asks again, so an empty vector —
    /// the default, used by strategies with no meaningful simpler form
    /// (e.g. [`Map`], whose function cannot be inverted) — just ends the
    /// descent along this strategy.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &V) -> Vec<V> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Always generates a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among type-erased strategies (see [`prop_oneof!`]).
///
/// [`prop_oneof!`]: crate::prop_oneof
pub struct OneOf<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    /// Creates a choice over `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

/// Full-domain strategy for primitives (see [`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// `any::<T>()` — uniform samples over `T`'s whole domain.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any { _marker: core::marker::PhantomData }
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen()
    }
}

/// The strategy behind `prop::bool::ANY`.
#[derive(Debug, Clone, Copy)]
pub struct BoolAny;

/// Uniform booleans (`prop::bool::ANY`).
pub const BOOL_ANY: BoolAny = BoolAny;

impl Strategy for BoolAny {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Integer shrink candidates: the range's low end, the midpoint between
/// it and the failing value (binary descent), and the predecessor (so the
/// fixpoint is the exact minimal failing value, not a power-of-two
/// neighborhood of it). Wrapping arithmetic keeps full-domain ranges
/// (e.g. `i64::MIN..MAX`) panic-free; out-of-range artifacts are
/// filtered by `in_range`.
macro_rules! int_shrink {
    ($value:expr, $lo:expr, $in_range:expr) => {{
        let value = *$value;
        let lo = $lo;
        let mut out = Vec::new();
        if value != lo && $in_range(&value) {
            out.push(lo);
            let mid = lo.wrapping_add(value.wrapping_sub(lo) / 2);
            if mid != lo && mid != value && $in_range(&mid) {
                out.push(mid);
            }
            let prev = value.wrapping_sub(1);
            if prev != lo && prev != mid && $in_range(&prev) {
                out.push(prev);
            }
        }
        out
    }};
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                int_shrink!(value, self.start, |v| self.contains(v))
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                int_shrink!(value, *self.start(), |v| self.contains(v))
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone,)+
        {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                // One component varies per candidate, the rest stay fixed.
                let mut out = Vec::new();
                $(for candidate in self.$idx.shrink(&value.$idx) {
                    let mut next = value.clone();
                    next.$idx = candidate;
                    out.push(next);
                })+
                out
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// `prop::collection::vec(element, sizes)` — vectors whose length is
/// drawn from `sizes` and whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, sizes: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(sizes.start < sizes.end, "vec strategy size range is empty");
    VecStrategy { element, sizes }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    sizes: core::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.sizes.clone());
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        crate::shrink::vec_candidates(value, self.sizes.start, |e| self.element.shrink(e))
    }
}
