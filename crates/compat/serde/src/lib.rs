//! In-tree stand-in for [serde](https://serde.rs) so the workspace builds
//! offline.
//!
//! Until PR 4 the traits here were empty markers: the repository annotated
//! its persistence boundary with `#[derive(Serialize, Deserialize)]` but
//! nothing serialized. The model-artifact work (frozen training snapshots
//! consumed by the `cdrib-serve` subsystem) needs real bytes on disk, so the
//! stand-in now implements a compact little-endian binary data format —
//! think `serde` + `bincode` collapsed into one crate:
//!
//! * [`Serialize`] appends a value's encoding to a byte buffer;
//! * [`Deserialize`] reads it back from a shrinking input slice;
//! * [`to_bytes`] / [`from_bytes`] are the entry points (the `from` side
//!   rejects trailing garbage);
//! * the derive macros (re-exported from the sibling `serde_derive`
//!   stand-in) generate field-wise impls for structs and enums.
//!
//! ## Encoding
//!
//! Fixed-width little-endian integers and floats (`usize` travels as
//! `u64`), `u8`-tagged `Option`/`bool`, `u32` enum variant tags in
//! declaration order, and `u64` length prefixes for `String`, `Vec` and
//! maps. `HashMap` entries are sorted by key before writing so equal maps
//! encode to equal bytes (artifact checksums stay deterministic). There is
//! no schema evolution — artifacts carry an explicit version in their
//! envelope (`cdrib_tensor::artifact`) instead.
//!
//! Swapping the real serde back in remains a Cargo.toml change for the
//! *annotation* sites; the artifact modules would switch to a format crate.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::HashMap;

/// Errors produced while decoding a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum tag did not match any variant of the target type.
    InvalidVariant {
        /// Name of the enum being decoded.
        type_name: &'static str,
        /// The unrecognised tag.
        tag: u32,
    },
    /// A `bool`/`Option` tag byte was neither 0 nor 1.
    InvalidTag(u8),
    /// A length prefix exceeds what the remaining input could possibly hold.
    InvalidLength {
        /// The declared element count.
        len: u64,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A decoded string was not valid UTF-8.
    InvalidUtf8,
    /// [`from_bytes`] decoded a full value but input bytes were left over.
    TrailingBytes {
        /// Number of undecoded bytes.
        remaining: usize,
    },
    /// A hand-written `Deserialize` impl rejected a well-formed encoding
    /// whose content breaks the type's own invariants (upstream serde's
    /// `de::Error::custom`). Boxed to keep `Error`, and so every
    /// `Result<_, Error>`, at three words: a `String` here doubles the
    /// wire-request decode time (≈ 35 → 70 ns on an AVX-512 box).
    Custom(Box<str>),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            Error::InvalidVariant { type_name, tag } => {
                write!(f, "invalid variant tag {tag} for enum `{type_name}`")
            }
            Error::InvalidTag(b) => write!(f, "invalid bool/option tag byte {b:#04x}"),
            Error::InvalidLength { len, remaining } => {
                write!(f, "length prefix {len} exceeds the {remaining} remaining input bytes")
            }
            Error::InvalidUtf8 => write!(f, "decoded string is not valid UTF-8"),
            Error::TrailingBytes { remaining } => {
                write!(f, "value decoded but {remaining} trailing bytes remain")
            }
            Error::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Builds the error the derive macros emit for unknown enum tags.
    pub fn invalid_variant(type_name: &'static str, tag: u32) -> Error {
        Error::InvalidVariant { type_name, tag }
    }

    /// Builds the error a hand-written impl returns for a decoded value that
    /// breaks its type's invariants, as upstream's `de::Error::custom`.
    pub fn custom<T: std::fmt::Display>(msg: T) -> Error {
        Error::Custom(msg.to_string().into_boxed_str())
    }
}

/// A value that can append its binary encoding to a buffer.
pub trait Serialize {
    /// Appends this value's encoding to `out`.
    fn serialize(&self, out: &mut Vec<u8>);
}

/// A value that can be decoded from a byte slice.
///
/// `deserialize` consumes its encoding from the front of `input` (the slice
/// is advanced past the bytes read), mirroring serde's `Deserialize<'de>`
/// shape closely enough that every annotation site stays source-compatible.
pub trait Deserialize<'de>: Sized {
    /// Decodes one value from the front of `input`.
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error>;
}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Encodes a value to a fresh byte buffer.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Decodes a value from `bytes`, requiring the input to be fully consumed.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
    let mut input = bytes;
    let value = T::deserialize(&mut input)?;
    if !input.is_empty() {
        return Err(Error::TrailingBytes { remaining: input.len() });
    }
    Ok(value)
}

/// Splits `n` bytes off the front of the input.
fn take<'de>(input: &mut &'de [u8], n: usize) -> Result<&'de [u8], Error> {
    if input.len() < n {
        return Err(Error::UnexpectedEof {
            needed: n,
            remaining: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Reads a `u64` length prefix and sanity-checks it against the remaining
/// input (`min_elem_size` bytes per element), so corrupted prefixes cannot
/// trigger huge preallocations.
fn read_len(input: &mut &[u8], min_elem_size: usize) -> Result<usize, Error> {
    let len = u64::deserialize(input)?;
    let bound = (input.len() / min_elem_size.max(1)) as u64;
    if len > bound {
        return Err(Error::InvalidLength {
            len,
            remaining: input.len(),
        });
    }
    Ok(len as usize)
}

/// Writes an enum variant tag (used by the derive macros).
pub fn write_variant_tag(out: &mut Vec<u8>, tag: u32) {
    tag.serialize(out);
}

/// Reads an enum variant tag (used by the derive macros).
pub fn read_variant_tag(input: &mut &[u8]) -> Result<u32, Error> {
    u32::deserialize(input)
}

macro_rules! impl_le_bytes {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact-size slice")))
            }
        }
    )*};
}

impl_le_bytes!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        Ok(u64::deserialize(input)? as usize)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidTag(b)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input, 1)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::InvalidUtf8)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for item in self {
            item.serialize(out);
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        // Elements are at least one byte each in this format, which bounds
        // the preallocation by the remaining input length.
        let len = read_len(input, 1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::deserialize(input)?);
        }
        Ok(v)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(input)?)),
            b => Err(Error::InvalidTag(b)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$idx.serialize(out);)+
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
                Ok(($($name::deserialize(input)?,)+))
            }
        }
    )+};
}

impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2));

impl<K, V> Serialize for HashMap<K, V>
where
    K: Serialize + Ord,
    V: Serialize,
{
    fn serialize(&self, out: &mut Vec<u8>) {
        // Sorted entries keep the encoding independent of hash order.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        (entries.len() as u64).serialize(out);
        for (k, v) in entries {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<'de, K, V> Deserialize<'de> for HashMap<K, V>
where
    K: Deserialize<'de> + Eq + std::hash::Hash,
    V: Deserialize<'de>,
{
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input, 2)?;
        let mut map = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(3.5f32);
        roundtrip(f32::NAN.to_bits()); // NaN payloads travel bit-exactly
        roundtrip(1.25f64);
        roundtrip(true);
        roundtrip(usize::MAX);
        roundtrip(String::from("héllo"));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f32>::new());
        roundtrip(Some(9usize));
        roundtrip(Option::<u32>::None);
        roundtrip((3u32, 4u32));
        roundtrip((1usize, -2i64, String::from("x")));
        let mut map = HashMap::new();
        map.insert(String::from("b"), 2usize);
        map.insert(String::from("a"), 1usize);
        roundtrip(map);
    }

    #[test]
    fn hashmap_encoding_is_deterministic() {
        let build = |order: &[(&str, usize)]| {
            let mut m = HashMap::new();
            for &(k, v) in order {
                m.insert(k.to_string(), v);
            }
            to_bytes(&m)
        };
        assert_eq!(
            build(&[("a", 1), ("b", 2), ("c", 3)]),
            build(&[("c", 3), ("b", 2), ("a", 1)])
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        // Truncated integer.
        assert!(matches!(
            from_bytes::<u64>(&[1, 2, 3]),
            Err(Error::UnexpectedEof { .. })
        ));
        // Oversized length prefix cannot preallocate.
        let mut bytes = to_bytes(&u64::MAX);
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            from_bytes::<Vec<u32>>(&bytes),
            Err(Error::InvalidLength { .. })
        ));
        // Bad bool tag.
        assert!(matches!(from_bytes::<bool>(&[7]), Err(Error::InvalidTag(7))));
        // Trailing bytes.
        let mut bytes = to_bytes(&1u32);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(Error::TrailingBytes { remaining: 1 })
        ));
        // Invalid UTF-8.
        let mut bytes = to_bytes(&2u64);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(from_bytes::<String>(&bytes), Err(Error::InvalidUtf8)));
        // A type's own invariant check carries its message through verbatim.
        let e = Error::custom(format_args!("item {} out of range", 3));
        assert_eq!(e, Error::Custom("item 3 out of range".into()));
        assert_eq!(e.to_string(), "item 3 out of range");
        // Every decode returns `Result<_, Error>`: keep the error three words.
        assert_eq!(std::mem::size_of::<Error>(), 3 * std::mem::size_of::<usize>());
    }

    #[test]
    fn float_bit_patterns_survive() {
        let values = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1e-42];
        let bytes = to_bytes(&values);
        let back: Vec<f32> = from_bytes(&bytes).unwrap();
        for (a, b) in values.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
