//! Offline stand-in for `serde`.
//!
//! The build container for this repository has no access to crates.io, so
//! the workspace vendors a minimal, API-compatible subset of the `serde`
//! surface it actually uses: the [`Serialize`] / [`Deserialize`] traits, the
//! derive macros (re-exported from `serde_derive`), and a JSON-shaped
//! [`Value`] data model that `serde_json` (the sibling shim) renders and
//! parses.
//!
//! Design notes:
//! - The data model is JSON directly rather than serde's visitor protocol;
//!   every type serializes to a [`Value`] tree. This keeps the derive macro
//!   tiny while preserving the external JSON shapes real serde would emit
//!   (newtype structs are transparent, unit enum variants are strings,
//!   data-carrying variants are externally tagged).
//! - Object fields keep insertion order, and maps serialize with sorted
//!   keys, so output is deterministic — golden tests rely on this.
//! - Numbers are kept in three lanes (`I64`/`U64`/`F64`) so 64-bit integers
//!   round-trip exactly.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A JSON value: the entire data model of the shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer lane.
    I64(i64),
    /// Unsigned integer lane (used when the value does not fit `i64`).
    U64(u64),
    /// Floating-point lane.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object by key. Returns `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, converting integer lanes.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(i) => Some(i as f64),
            Value::U64(u) => Some(u as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(i) => u64::try_from(i).ok(),
            Value::U64(u) => Some(u),
            Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(i) => Some(i),
            Value::U64(u) => i64::try_from(u).ok(),
            Value::F64(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Serialization/deserialization error: a plain message.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// A free-form error.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A struct field was absent from the JSON object.
    pub fn missing_field(name: &str) -> Self {
        Error(format!("missing field `{name}`"))
    }

    /// The JSON value had the wrong shape for the target type.
    pub fn invalid_type(expected: &str, got: &Value) -> Self {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        Error(format!("invalid type: expected {expected}, found {kind}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into the [`Value`] data model.
pub trait Serialize {
    /// Build the JSON value tree for `self`.
    fn serialize_value(&self) -> Value;
}

/// Types that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a JSON value tree.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

/// Derive-macro helper: deserialize a field that was absent from the input.
///
/// Mirrors serde's behaviour of treating a missing field as `null` first
/// (so `Option` fields default to `None`) and reporting a missing-field
/// error only when the target type cannot absorb `null`.
pub fn missing_field<T: Deserialize>(name: &str) -> Result<T, Error> {
    T::deserialize_value(&Value::Null).map_err(|_| Error::missing_field(name))
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(i) => Value::I64(i),
                    Err(_) => Value::U64(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::I64(i) => <$t>::try_from(i)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::U64(u) => <$t>::try_from(u)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::F64(f) if f.fract() == 0.0 => {
                        let i = f as i64;
                        if i as f64 == f {
                            <$t>::try_from(i).map_err(|_| {
                                Error::custom(concat!("integer out of range for ", stringify!($t)))
                            })
                        } else {
                            Err(Error::invalid_type(stringify!($t), v))
                        }
                    }
                    _ => Err(Error::invalid_type(stringify!($t), v)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::invalid_type(stringify!($t), v))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::invalid_type("bool", v))
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::invalid_type("char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a single-character string")),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::invalid_type("string", v))
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

/// A shared string serializes as the plain string it holds.
impl Serialize for Arc<str> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl Deserialize for Arc<str> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(Arc::from)
            .ok_or_else(|| Error::invalid_type("string", v))
    }
}

/// A shared slice serializes as the list it holds.
impl<T: Serialize> Serialize for Arc<[T]> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Vec::deserialize_value(v).map(Arc::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        T::deserialize_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(inner) => inner.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            _ => Err(Error::invalid_type("array", v)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::custom(format!("expected {N} elements, got {}", items.len())))
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize_value(&self) -> Value {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].serialize_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, fv)| Ok((k.clone(), V::deserialize_value(fv)?)))
                .collect(),
            _ => Err(Error::invalid_type("object", v)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, fv)| (k.clone(), fv.serialize_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, fv)| Ok((k.clone(), V::deserialize_value(fv)?)))
                .collect(),
            _ => Err(Error::invalid_type("object", v)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+) => $len:literal;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::deserialize_value(&items[$idx])?,)+))
                    }
                    _ => Err(Error::invalid_type(concat!($len, "-element array"), v)),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0) => 1;
    (A: 0, B: 1) => 2;
    (A: 0, B: 1, C: 2) => 3;
    (A: 0, B: 1, C: 2, D: 3) => 4;
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
