//! Dynamic values, tuples, and schemas for data streams.
//!
//! PDSP-Bench generates streams whose tuple width and per-field types vary
//! (Table 3: width 1-15 over {string, double, int}), so tuples are
//! dynamically typed. A string payload is a [`Text`]: up to 22 bytes sit
//! inside the 24-byte `Value`, so a word is copied, hashed and dropped without
//! touching the heap; a longer string stays behind an `Arc<str>`, so fan-out
//! partitioning (broadcast, multi-consumer shuffles) still clones it cheaply.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The type of a single tuple field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Event timestamp in milliseconds.
    Timestamp,
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldType::Int => "int",
            FieldType::Double => "double",
            FieldType::Str => "string",
            FieldType::Bool => "bool",
            FieldType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// A dynamically typed field value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// UTF-8 string: inline up to 22 bytes, shared behind an `Arc` beyond,
    /// so cloning never copies more than the value itself.
    Str(Text),
    /// Boolean.
    Bool(bool),
    /// Event timestamp in milliseconds since epoch.
    Timestamp(i64),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Text::from(s.as_ref()))
    }

    /// The [`FieldType`] of this value.
    pub fn field_type(&self) -> FieldType {
        match self {
            Value::Int(_) => FieldType::Int,
            Value::Double(_) => FieldType::Double,
            Value::Str(_) => FieldType::Str,
            Value::Bool(_) => FieldType::Bool,
            Value::Timestamp(_) => FieldType::Timestamp,
        }
    }

    /// Interpret the value as f64 for aggregation; strings/bools are errors
    /// handled by callers, here mapped to `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) => None,
        }
    }

    /// Interpret as i64 where lossless.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Borrow as &str for string values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Total-order comparison used by filter predicates and sort-based tests.
    ///
    /// Numeric types (`Int`, `Double`, `Timestamp`, `Bool`) compare by
    /// numeric value; strings compare lexicographically. Comparisons across
    /// the numeric/string divide return `None`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Value::Str(_), _) | (_, Value::Str(_)) => None,
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Stable 64-bit hash used by hash partitioning and join keys.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            Value::Int(i) => {
                h.write_u8(0);
                h.write_i64(*i);
            }
            Value::Double(d) => {
                h.write_u8(1);
                h.write_u64(d.to_bits());
            }
            Value::Str(s) => {
                h.write_u8(2);
                h.write_bytes(s.as_bytes());
            }
            Value::Bool(b) => {
                h.write_u8(3);
                h.write_u8(*b as u8);
            }
            Value::Timestamp(t) => {
                h.write_u8(4);
                h.write_i64(*t);
            }
        }
        h.finish64()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(_), _) | (_, Value::Str(_)) => false,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

/// Keyed state treats values as keys, with the caveats of [`KeyValue`]: a
/// NaN `Double` never equals itself and never groups.
impl Eq for Value {}

/// Hashes [`Value::stable_hash`], as [`KeyValue`] does: `Int(1)` equals
/// `Double(1.0)` yet the two hash apart, so keyed state keeps them as
/// separate keys.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.stable_hash());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

/// Longest string a [`Text`] keeps inline: a `Value` is 24 bytes, and one
/// byte holds the length (and, through its unused values, both enum tags).
const INLINE_CAP: usize = 22;

/// The payload of [`Value::Str`], read as a `&str` through `Deref`,
/// `AsRef<str>` and `Display`, and built only from a `&str`.
///
/// A string of at most 22 bytes is stored inline, so a short word costs no
/// allocation, and no refcount shared between the threads that clone and
/// drop it; a longer one is an `Arc<str>`, so a tuple that fans out still
/// clones it in O(1). The split is the one of SmolStr
/// (<https://github.com/rust-analyzer/smol_str>) and CompactString
/// (<https://github.com/ParkMyCar/compact_str>), without their extra forms.
/// Which form holds a string follows from its length alone, so equal strings
/// have equal representations.
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Repr);

// The derived `PartialEq` compares representations, which is string
// equality because the form is a function of the length and an inline
// string's unused bytes are always zero.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The first `len` bytes of `buf` are UTF-8; the rest are zero.
    Inline {
        len: InlineLen,
        buf: [u8; INLINE_CAP],
    },
    Shared(Arc<str>),
}

/// The length of an inline string. An enum rather than a `u8`, so the byte
/// values 23 to 255 are a niche in which `Repr` and then `Value` keep their
/// tags: `Value` stays 24 bytes and `Tuple` 40.
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum InlineLen {
    L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
    L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
}

#[rustfmt::skip]
const INLINE_LENS: [InlineLen; INLINE_CAP + 1] = {
    use InlineLen::*;
    [
        L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
        L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
    ]
};

impl Text {
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                let bytes = &buf[..*len as usize];
                // SAFETY: `Text::from` is the only constructor of `Inline`,
                // and it copies `len` bytes of a `&str` into `buf`, cut at the
                // string's end, so `bytes` is that whole string: valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Shared(s) => s,
        }
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        let len = s.len();
        if len > INLINE_CAP {
            return Text(Repr::Shared(Arc::from(s)));
        }
        let mut buf = [0u8; INLINE_CAP];
        buf[..len].copy_from_slice(s.as_bytes());
        Text(Repr::Inline {
            len: INLINE_LENS[len],
            buf,
        })
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

// A plain JSON string, whichever form holds it, so snapshot text does not
// depend on the representation.
impl Serialize for Text {
    fn to_json_value(&self) -> serde::Value {
        self.as_str().to_json_value()
    }
}

impl Deserialize for Text {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        String::from_json_value(value).map(|s| Text::from(s.as_str()))
    }
}

/// FNV-1a, fixed so hashes are stable across runs and platforms (needed for
/// deterministic partitioning in tests and the simulator).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn finish64(&self) -> u64 {
        self.0
    }
}

/// A named, typed field in a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name (informational; operators address fields by index).
    pub name: String,
    /// Field type.
    pub ty: FieldType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of fields describing a stream's tuples.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Shorthand: schema of unnamed fields with the given types.
    pub fn of(types: &[FieldType]) -> Self {
        Schema {
            fields: types
                .iter()
                .enumerate()
                .map(|(i, &ty)| Field::new(format!("f{i}"), ty))
                .collect(),
        }
    }

    /// Number of fields.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Whether a tuple structurally matches this schema (arity + types).
    pub fn matches(&self, tuple: &Tuple) -> bool {
        tuple.values.len() == self.fields.len()
            && tuple
                .values
                .iter()
                .zip(&self.fields)
                .all(|(v, f)| v.field_type() == f.ty)
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A data tuple flowing through the dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Field values.
    pub values: Vec<Value>,
    /// Event time in milliseconds (set by the source, used by time windows).
    pub event_time: i64,
    /// Wall-clock (or simulated-clock) nanoseconds at which the source
    /// emitted the tuple; the sink uses it to compute end-to-end latency.
    pub emit_ns: u64,
}

impl Tuple {
    /// Construct a tuple with event time 0.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values,
            event_time: 0,
            emit_ns: 0,
        }
    }

    /// Construct with an explicit event time (ms).
    pub fn at(values: Vec<Value>, event_time: i64) -> Self {
        Tuple {
            values,
            event_time,
            emit_ns: 0,
        }
    }

    /// Tuple width.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Hash the given key fields (for hash partitioning / join keys).
    pub fn key_hash(&self, key_fields: &[usize]) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for &idx in key_fields {
            let h = self
                .values
                .get(idx)
                .map(Value::stable_hash)
                .unwrap_or(0x9e37_79b9_7f4a_7c15);
            acc = acc.rotate_left(13) ^ h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc
    }
}

/// Wrapper allowing `Value` to key a `HashMap` (group-by / join state).
///
/// Equality follows [`Value::eq`]; the hash is [`Value::stable_hash`].
/// `Double` keys containing NaN never compare equal and thus never group.
/// It borrows as a [`Value`], so a [`KeyMap`] is probed with the tuple's
/// own field and a key is cloned only when it is first inserted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyValue(pub Value);

impl Borrow<Value> for KeyValue {
    fn borrow(&self) -> &Value {
        &self.0
    }
}

/// Finishes a hash that is already a well-mixed 64-bit word: one
/// FxHash-style multiply, then a rotate so the low bits the table indexes
/// by depend on every input bit (as rustc-hash 2 does). No random state, so
/// a [`KeyMap`]'s iteration order depends only on what was inserted; and
/// since [`Value::stable_hash`] is a fixed function, keys that collide
/// under it collided under a seeded SipHash of it too.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] of [`KeyMap`]. Maps keyed by plain
/// integers the program generates (AD's ad ids) may use it too; unlike a
/// `KeyMap`, such a map loses the seed a default `HashMap` would have.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

/// Keyed operator state: a map from [`KeyValue`] hashed by [`KeyHasher`].
pub type KeyMap<V> = HashMap<KeyValue, V, KeyHashBuilder>;

// Newtype-transparent serde (checkpoint snapshots of keyed state).
impl Serialize for KeyValue {
    fn to_json_value(&self) -> serde::Value {
        self.0.to_json_value()
    }
}

impl Deserialize for KeyValue {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Value::from_json_value(value).map(KeyValue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types_roundtrip() {
        assert_eq!(Value::Int(3).field_type(), FieldType::Int);
        assert_eq!(Value::Double(1.5).field_type(), FieldType::Double);
        assert_eq!(Value::str("x").field_type(), FieldType::Str);
        assert_eq!(Value::Bool(true).field_type(), FieldType::Bool);
        assert_eq!(Value::Timestamp(9).field_type(), FieldType::Timestamp);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(2).partial_cmp_value(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Double(1.5).partial_cmp_value(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").partial_cmp_value(&Value::Int(1)), None);
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(
            Value::str("apple").partial_cmp_value(&Value::str("banana")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn stable_hash_distinguishes_types() {
        // Int(1) and Bool(true) must not collide via the type tag.
        assert_ne!(Value::Int(1).stable_hash(), Value::Bool(true).stable_hash());
        assert_ne!(
            Value::Int(1).stable_hash(),
            Value::Timestamp(1).stable_hash()
        );
    }

    #[test]
    fn stable_hash_is_deterministic() {
        let v = Value::str("hello world");
        assert_eq!(v.stable_hash(), v.stable_hash());
        // Known-answer check so the hash stays stable across refactors.
        assert_eq!(Value::Int(42).stable_hash(), {
            let mut h = Fnv64::new();
            h.write_u8(0);
            h.write_i64(42);
            h.finish64()
        });
        // One inline and one shared string: the bytes alone are hashed, so
        // hash partitioning and keyed-state placement do not see the form.
        assert_eq!(Value::str("the").stable_hash(), 0xdf8c_058f_e7d5_041c);
        assert_eq!(
            Value::str("the quick brown fox jumps over").stable_hash(),
            0xfeee_40ce_f8c8_3e0f
        );
    }

    const S22: &str = "abcdefghijklmnopqrstuv";
    const S23: &str = "abcdefghijklmnopqrstuvw";
    /// 23 bytes: the last character's two bytes straddle the inline limit.
    const S23_MB: &str = "abcdefghijklmnopqrstuž";

    #[test]
    fn value_and_tuple_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Tuple>(), 40);
    }

    #[test]
    fn strings_compare_alike_across_the_inline_limit() {
        assert!(matches!(Text::from(S22).0, Repr::Inline { .. }));
        assert!(matches!(Text::from(S23).0, Repr::Shared(_)));
        let (short, long) = (Value::str(S22), Value::str(S23));
        assert_eq!(short, Value::str(S22));
        assert_eq!(long, Value::str(S23));
        assert_eq!(long.clone(), long);
        assert_ne!(short, long);
        assert_ne!(Value::str(S23_MB), long);
        assert_eq!(short.partial_cmp_value(&long), Some(Ordering::Less));
        assert_eq!(long.partial_cmp_value(&short), Some(Ordering::Greater));
        let (b22, a23) = (Value::str("b".repeat(22)), Value::str("a".repeat(23)));
        assert_eq!(b22.partial_cmp_value(&a23), Some(Ordering::Greater));
        assert_eq!(
            short.partial_cmp_value(&short.clone()),
            Some(Ordering::Equal)
        );
        for s in [S22, S23, S23_MB, ""] {
            assert_eq!(Value::str(s).as_str(), Some(s));
            assert_eq!(Value::str(s).to_string(), s);
        }
    }

    #[test]
    fn boundary_strings_keep_their_json_text() {
        for (s, json) in [
            ("", r#"{"Str":""}"#),
            (S22, r#"{"Str":"abcdefghijklmnopqrstuv"}"#),
            (S23, r#"{"Str":"abcdefghijklmnopqrstuvw"}"#),
            (S23_MB, r#"{"Str":"abcdefghijklmnopqrstuž"}"#),
        ] {
            assert_eq!(serde_json::to_string(&Value::str(s)).unwrap(), json);
            assert_eq!(
                serde_json::to_string(&KeyValue(Value::str(s))).unwrap(),
                json
            );
            let back: Value = serde_json::from_str(json).unwrap();
            assert_eq!(back, Value::str(s));
        }
    }

    #[test]
    fn schema_matches_checks_arity_and_types() {
        let s = Schema::of(&[FieldType::Int, FieldType::Str]);
        assert!(s.matches(&Tuple::new(vec![Value::Int(1), Value::str("a")])));
        assert!(!s.matches(&Tuple::new(vec![Value::Int(1)])));
        assert!(!s.matches(&Tuple::new(vec![Value::str("a"), Value::Int(1)])));
    }

    #[test]
    fn key_hash_depends_on_selected_fields_only() {
        let t1 = Tuple::new(vec![Value::Int(1), Value::str("a")]);
        let t2 = Tuple::new(vec![Value::Int(1), Value::str("b")]);
        assert_eq!(t1.key_hash(&[0]), t2.key_hash(&[0]));
        assert_ne!(t1.key_hash(&[1]), t2.key_hash(&[1]));
    }

    #[test]
    fn key_hash_order_sensitive() {
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        assert_ne!(t.key_hash(&[0, 1]), t.key_hash(&[1, 0]));
    }

    #[test]
    fn keyvalue_groups_equal_values() {
        let mut m: KeyMap<usize> = KeyMap::default();
        *m.entry(KeyValue(Value::str("k"))).or_default() += 1;
        *m.entry(KeyValue(Value::str("k"))).or_default() += 1;
        *m.entry(KeyValue(Value::str("j"))).or_default() += 1;
        assert_eq!(m.len(), 2);
        assert_eq!(m[&KeyValue(Value::str("k"))], 2);
        // Probing with a borrowed `Value` finds the same entry.
        assert_eq!(m.get(&Value::str("k")), Some(&2));
        assert_eq!(m.get(&Value::str("x")), None);
    }

    #[test]
    fn schema_index_of() {
        let s = Schema::new(vec![
            Field::new("id", FieldType::Int),
            Field::new("price", FieldType::Double),
        ]);
        assert_eq!(s.index_of("price"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }
}
