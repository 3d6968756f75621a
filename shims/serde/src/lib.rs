//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim serializes through
//! an intermediate [`Content`] tree: `Serialize` lowers a value into a
//! `Content`, `Deserialize` lifts one back. The companion `serde_derive`
//! shim generates both impls for the struct/enum shapes this workspace
//! uses (named-field structs, unit enums, internally tagged enums with
//! `rename_all = "snake_case"`, and `#[serde(flatten)]` fields), and the
//! `serde_json` shim renders/parses `Content` as JSON text.

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialization tree (the shim's data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Content>),
    /// An ordered map with string keys (field order is preserved).
    Map(Vec<(String, Content)>),
}

/// Types that can lower themselves into a [`Content`] tree.
pub trait Serialize {
    /// Lowers `self` into the serialization tree.
    fn serialize_content(&self) -> Content;
}

/// Types that can be rebuilt from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Lifts a value out of the serialization tree.
    ///
    /// # Errors
    ///
    /// A human-readable message when the tree does not match `Self`.
    fn deserialize_content(content: &Content) -> Result<Self, String>;
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(content: &Content) -> Result<Self, String> {
                match content {
                    Content::U64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("integer {v} out of range for {}", stringify!($t))),
                    Content::I64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("integer {v} out of range for {}", stringify!($t))),
                    other => Err(format!("expected integer, found {other:?}")),
                }
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_content(&self) -> Content {
                if *self >= 0 {
                    Content::U64(*self as u64)
                } else {
                    Content::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(content: &Content) -> Result<Self, String> {
                match content {
                    Content::U64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("integer {v} out of range for {}", stringify!($t))),
                    Content::I64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("integer {v} out of range for {}", stringify!($t))),
                    other => Err(format!("expected integer, found {other:?}")),
                }
            }
        }
    )*};
}

impl_serialize_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_content(&self) -> Content {
                Content::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(content: &Content) -> Result<Self, String> {
                match content {
                    Content::F64(v) => Ok(*v as $t),
                    Content::U64(v) => Ok(*v as $t),
                    Content::I64(v) => Ok(*v as $t),
                    other => Err(format!("expected number, found {other:?}")),
                }
            }
        }
    )*};
}

impl_serialize_float!(f32, f64);

impl Serialize for bool {
    fn serialize_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_content(content: &Content) -> Result<Self, String> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {other:?}")),
        }
    }
}

impl Serialize for str {
    fn serialize_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for String {
    fn serialize_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_content(content: &Content) -> Result<Self, String> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, found {other:?}")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_content(&self) -> Content {
        (**self).serialize_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_content(&self) -> Content {
        match self {
            Some(v) => v.serialize_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_content(content: &Content) -> Result<Self, String> {
        match content {
            Content::Null => Ok(None),
            other => T::deserialize_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::serialize_content).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::serialize_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::serialize_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_content(content: &Content) -> Result<Self, String> {
        match content {
            Content::Seq(items) => items.iter().map(T::deserialize_content).collect(),
            other => Err(format!("expected array, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::deserialize_content(&42u64.serialize_content()), Ok(42));
        assert_eq!(
            i64::deserialize_content(&(-3i64).serialize_content()),
            Ok(-3)
        );
        assert_eq!(
            String::deserialize_content(&"hi".serialize_content()),
            Ok("hi".to_string())
        );
        assert_eq!(
            Vec::<u8>::deserialize_content(&vec![1u8, 2].serialize_content()),
            Ok(vec![1, 2])
        );
        assert_eq!(Option::<u64>::deserialize_content(&Content::Null), Ok(None));
        assert!(u8::deserialize_content(&Content::U64(300)).is_err());
    }
}
