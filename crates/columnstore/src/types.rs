//! Core scalar types shared by the whole workspace.
//!
//! The adaptive-indexing literature (and MonetDB, the system the paper's
//! prototype extends) indexes *sort attributes* that are fixed-width values.
//! We therefore fix the cracking key type to a 64-bit signed integer
//! ([`Key`]); other column types exist for realistic multi-column tables and
//! for tuple reconstruction experiments.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The key type every adaptive index in this workspace organizes.
///
/// Chosen as `i64` so that synthetic workloads, TPC-H-like attributes and
/// dictionary-encoded strings all map onto it without loss.
pub type Key = i64;

/// A row identifier (position within a column / table). MonetDB calls this an
/// *oid*. Positions are dense: row `i` of a table lives at position `i` of
/// every column of that table.
pub type RowId = u32;

/// Bytes one indexed tuple occupies in an auxiliary structure that keeps the
/// key beside its row id (a cracker column, a sorted run, a full index).
pub const PAIR_BYTES: usize = std::mem::size_of::<Key>() + std::mem::size_of::<RowId>();

/// Physical data types supported by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer (also the cracking key type).
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Dictionary-encoded UTF-8 string.
    Utf8,
}

impl DataType {
    /// Width in bytes of one value in the dense array representation.
    /// Strings are dictionary encoded, so the per-row footprint is the code.
    pub fn value_width(&self) -> usize {
        match self {
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Utf8 => 4,
        }
    }

    /// Human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Utf8 => "utf8",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed scalar value, used at the API boundary (row appends,
/// query constants, result rendering). The hot paths never use `Value`; they
/// operate on the typed dense arrays directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer value.
    Int64(i64),
    /// 64-bit float value.
    Float64(f64),
    /// String value.
    Utf8(String),
    /// SQL NULL. The substrate stores nulls as sentinel-free explicit values
    /// only at the `Value` boundary; dense arrays are non-nullable.
    Null,
}

impl Value {
    /// The data type of this value, if it is not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Null => None,
        }
    }

    /// Extract an `i64`, if this value holds one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `f64`, if this value holds one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a string slice, if this value holds one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => write!(f, "{s}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_widths() {
        assert_eq!(DataType::Int64.value_width(), 8);
        assert_eq!(DataType::Float64.value_width(), 8);
        assert_eq!(DataType::Utf8.value_width(), 4);
    }

    #[test]
    fn data_type_names_and_display() {
        assert_eq!(DataType::Int64.to_string(), "int64");
        assert_eq!(DataType::Float64.to_string(), "float64");
        assert_eq!(DataType::Utf8.to_string(), "utf8");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Int64(7).as_f64(), None);
        assert_eq!(Value::Float64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Utf8("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int64(0).is_null());
    }

    #[test]
    fn value_data_types() {
        assert_eq!(Value::Int64(1).data_type(), Some(DataType::Int64));
        assert_eq!(Value::Float64(1.0).data_type(), Some(DataType::Float64));
        assert_eq!(Value::Utf8(String::new()).data_type(), Some(DataType::Utf8));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int64(3));
        assert_eq!(Value::from(3.5f64), Value::Float64(3.5));
        assert_eq!(Value::from("abc"), Value::Utf8("abc".to_owned()));
        assert_eq!(Value::from("abc".to_owned()), Value::Utf8("abc".to_owned()));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int64(-4).to_string(), "-4");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Utf8("hi".into()).to_string(), "hi");
    }
}
