//! Dynamic values, tuples, and schemas for data streams.
//!
//! PDSP-Bench generates streams whose tuple width and per-field types vary
//! (Table 3: width 1-15 over {string, double, int}), so tuples are
//! dynamically typed. A string payload is a [`Text`]: up to 22 bytes sit
//! inside the 24-byte `Value`, so a word is copied, hashed and dropped without
//! touching the heap; a longer string stays behind an `Arc<str>`, so fan-out
//! partitioning (broadcast, multi-consumer shuffles) still clones it cheaply.
//! A tuple's fields are a [`Row`]: up to 3 values sit inside the tuple, so a
//! word, a window result or an AD event is built, shipped between threads
//! and dropped without touching the heap; a wider row (a join's concatenation,
//! a 15-field generated tuple) keeps its values in a `Vec<Value>`.

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
/// tags, so `Value` stays 24 bytes.
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

/// Values a [`Row`] keeps inside itself: every WordCount tuple (a word, a
/// `key, window_end, count` result), AdAnalytics' inputs and its CTR report.
const ROW_INLINE: usize = 3;

/// What an unused inline slot of a [`Row`] holds: a value with nothing to
/// free, never read.
const FILLER: Value = Value::Int(0);

/// The field values of a [`Tuple`], read as a `[Value]` through `Deref`.
///
/// A row of up to 3 values keeps them inline, so building, cloning, sending
/// and dropping it costs no allocation; a longer row keeps them in a
/// `Vec<Value>`. Equality, `Debug` and serde go through the slice,
/// so which form holds a row is never observable: a row cut back to 3 values
/// may stay on the heap and still equals the inline row of the same values.
#[derive(Clone)]
pub struct Row(RowRepr);

#[derive(Clone)]
enum RowRepr {
    /// The first `len` slots of `vals` are the row; the rest hold [`FILLER`].
    Inline {
        len: u8,
        vals: [Value; ROW_INLINE],
    },
    Heap(Vec<Value>),
}

impl Row {
    /// An empty row.
    pub const fn new() -> Self {
        Row(RowRepr::Inline {
            len: 0,
            vals: [FILLER; ROW_INLINE],
        })
    }

    /// An empty row with room for `capacity` values without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= ROW_INLINE {
            Row::new()
        } else {
            Row(RowRepr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// The values.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            RowRepr::Inline { len, vals } => &vals[..*len as usize],
            RowRepr::Heap(v) => v,
        }
    }

    /// Append a value; the 4th value of an inline row moves the row to the
    /// heap.
    pub fn push(&mut self, value: Value) {
        match &mut self.0 {
            RowRepr::Inline { len, vals } if (*len as usize) < ROW_INLINE => {
                vals[*len as usize] = value;
                *len += 1;
            }
            _ => self.spill(ROW_INLINE + 1).push(value),
        }
    }

    /// Append clones of `values`.
    pub fn extend_from_slice(&mut self, values: &[Value]) {
        let need = self.len() + values.len();
        match &mut self.0 {
            RowRepr::Inline { len, vals } if need <= ROW_INLINE => {
                for (slot, v) in vals[*len as usize..need].iter_mut().zip(values) {
                    *slot = v.clone();
                }
                *len = need as u8;
            }
            _ => self.spill(need).extend_from_slice(values),
        }
    }

    /// Keep the first `n` values (all of them if there are fewer).
    pub fn truncate(&mut self, n: usize) {
        match &mut self.0 {
            RowRepr::Inline { len, vals } => {
                if n < *len as usize {
                    vals[n..*len as usize].fill(FILLER);
                    *len = n as u8;
                }
            }
            RowRepr::Heap(v) => v.truncate(n),
        }
    }

    /// Remove and return the last value.
    pub fn pop(&mut self) -> Option<Value> {
        match &mut self.0 {
            RowRepr::Inline { len, vals } => {
                let last = (*len as usize).checked_sub(1)?;
                *len = last as u8;
                Some(std::mem::replace(&mut vals[last], FILLER))
            }
            RowRepr::Heap(v) => v.pop(),
        }
    }

    /// Remove every value.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// The values as a `Vec`, reusing a heap row's buffer.
    pub fn into_vec(self) -> Vec<Value> {
        match self.0 {
            RowRepr::Inline { len, vals } => vals.into_iter().take(len as usize).collect(),
            RowRepr::Heap(v) => v,
        }
    }

    /// The heap form of this row, with room for `capacity` values: moves an
    /// inline row's values into a new `Vec`.
    fn spill(&mut self, capacity: usize) -> &mut Vec<Value> {
        if let RowRepr::Inline { len, vals } = &mut self.0 {
            let mut heap = Vec::with_capacity(capacity.max(*len as usize));
            heap.extend(
                vals[..*len as usize]
                    .iter_mut()
                    .map(|slot| std::mem::replace(slot, FILLER)),
            );
            self.0 = RowRepr::Heap(heap);
        }
        match &mut self.0 {
            RowRepr::Heap(v) => v,
            RowRepr::Inline { .. } => unreachable!("spilled above"),
        }
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::new()
    }
}

impl Deref for Row {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

// A plain JSON array, whichever form holds the row, so snapshot text does
// not depend on the representation.
impl Serialize for Row {
    fn to_json_value(&self) -> serde::Value {
        self.as_slice().to_json_value()
    }
}

impl Deserialize for Row {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<Value>::from_json_value(value).map(Row::from)
    }
}

/// A row of at most 3 values moves inline (and frees the `Vec`); a longer one
/// keeps the `Vec`.
impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        if values.len() > ROW_INLINE {
            return Row(RowRepr::Heap(values));
        }
        values.into_iter().collect()
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(values: [Value; N]) -> Self {
        if N > ROW_INLINE {
            return Row(RowRepr::Heap(Vec::from(values)));
        }
        let mut vals = [FILLER; ROW_INLINE];
        for (slot, v) in vals.iter_mut().zip(values) {
            *slot = v;
        }
        Row(RowRepr::Inline { len: N as u8, vals })
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut row = Row::with_capacity(iter.size_hint().0);
        for v in iter {
            row.push(v);
        }
        row
    }
}

/// The owning iterator of a [`Row`].
pub struct RowIntoIter(IntoIterRepr);

enum IntoIterRepr {
    Inline(std::iter::Take<std::array::IntoIter<Value, ROW_INLINE>>),
    Heap(std::vec::IntoIter<Value>),
}

impl Iterator for RowIntoIter {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        match &mut self.0 {
            IntoIterRepr::Inline(it) => it.next(),
            IntoIterRepr::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IntoIterRepr::Inline(it) => it.size_hint(),
            IntoIterRepr::Heap(it) => it.size_hint(),
        }
    }
}

impl DoubleEndedIterator for RowIntoIter {
    fn next_back(&mut self) -> Option<Value> {
        match &mut self.0 {
            IntoIterRepr::Inline(it) => it.next_back(),
            IntoIterRepr::Heap(it) => it.next_back(),
        }
    }
}

impl ExactSizeIterator for RowIntoIter {}

impl IntoIterator for Row {
    type Item = Value;
    type IntoIter = RowIntoIter;

    fn into_iter(self) -> RowIntoIter {
        RowIntoIter(match self.0 {
            RowRepr::Inline { len, vals } => {
                IntoIterRepr::Inline(vals.into_iter().take(len as usize))
            }
            RowRepr::Heap(v) => IntoIterRepr::Heap(v.into_iter()),
        })
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A data tuple flowing through the dataflow graph. Its fields are a
/// [`Row`], so a tuple of up to 3 values is one allocation-free 96-byte
/// value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Field values.
    pub values: Row,
    /// Event time in milliseconds (set by the source, used by time windows).
    pub event_time: i64,
    /// Wall-clock (or simulated-clock) nanoseconds at which the source
    /// emitted the tuple; the sink uses it to compute end-to-end latency.
    pub emit_ns: u64,
}

impl Tuple {
    /// Construct a tuple with event time 0.
    pub fn new(values: impl Into<Row>) -> Self {
        Tuple {
            values: values.into(),
            event_time: 0,
            emit_ns: 0,
        }
    }

    /// Construct with an explicit event time (ms).
    pub fn at(values: impl Into<Row>, event_time: i64) -> Self {
        Tuple {
            values: values.into(),
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

    /// A tuple carries up to 3 values inline: 3 × 24 bytes and the length
    /// make a `Row` of 80, plus the two timestamps.
    #[test]
    fn value_and_tuple_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Row>(), 80);
        assert_eq!(std::mem::size_of::<Tuple>(), 96);
    }

    /// Values of every variant, one of them a string beyond the inline limit.
    fn seven() -> Vec<Value> {
        vec![
            Value::Int(-3),
            Value::str("word"),
            Value::Double(1.5),
            Value::Bool(true),
            Value::Timestamp(17),
            Value::str("a string longer than the inline limit"),
            Value::Int(i64::MAX),
        ]
    }

    fn model(width: usize) -> Vec<Value> {
        (0..width as i64)
            .map(|i| match i % 3 {
                0 => Value::Int(i),
                1 => Value::str(format!("w{i}")),
                _ => Value::str(format!("a longer string than fits inline {i}")),
            })
            .collect()
    }

    fn is_inline(row: &Row) -> bool {
        matches!(row.0, RowRepr::Inline { .. })
    }

    /// Everything a caller can see of `row` is what it sees of `model`.
    fn assert_models(row: &Row, model: &[Value]) {
        assert_eq!(row.as_slice(), model);
        assert_eq!(row.len(), model.len());
        for (i, v) in model.iter().enumerate() {
            assert_eq!(&row[i], v);
        }
        assert_eq!(row.get(model.len()), None);
        assert!(row.iter().eq(model.iter()));
        assert!((&row.clone()).into_iter().eq(model.iter()));
        assert!(row.clone().into_iter().eq(model.iter().cloned()));
        assert!(row
            .clone()
            .into_iter()
            .rev()
            .eq(model.iter().rev().cloned()));
        assert_eq!(row.clone().into_iter().len(), model.len());
        assert_eq!(row.clone().into_vec(), model);
        assert_eq!(row.clone(), *row);
        assert_eq!(*row, Row::from(model.to_vec()));
        assert_eq!(format!("{row:?}"), format!("{model:?}"));
        assert_eq!(
            serde_json::to_string(row).unwrap(),
            serde_json::to_string(&model.to_vec()).unwrap()
        );
    }

    #[test]
    fn row_behaves_like_a_vec_of_values() {
        for width in 0..=8 {
            let want = model(width);
            let mut pushed = Row::new();
            for v in &want {
                pushed.push(v.clone());
            }
            assert_eq!(is_inline(&pushed), width <= ROW_INLINE, "width {width}");
            assert_models(&pushed, &want);
            assert_models(&Row::from(want.clone()), &want);
            assert_models(&want.iter().cloned().collect(), &want);
            for split in 0..=width {
                let mut row = Row::new();
                row.extend_from_slice(&want[..split]);
                row.extend_from_slice(&want[split..]);
                assert_models(&row, &want);
                let mut row = Row::from(want[..split].to_vec());
                for v in &want[split..] {
                    row.push(v.clone());
                }
                assert_models(&row, &want);
            }
            for cut in 0..=width + 1 {
                let mut row = Row::from(want.clone());
                let mut vec = want.clone();
                row.truncate(cut);
                vec.truncate(cut);
                assert_models(&row, &vec);
                // Grows again from the cut, whichever form it kept.
                row.push(Value::Bool(false));
                vec.push(Value::Bool(false));
                assert_models(&row, &vec);
            }
            let (mut row, mut vec) = (Row::from(want.clone()), want.clone());
            loop {
                assert_eq!(row.pop(), vec.pop());
                assert_models(&row, &vec);
                if vec.is_empty() {
                    assert_eq!(row.pop(), None);
                    break;
                }
            }
            let mut row = Row::from(want.clone());
            row.clear();
            assert_models(&row, &[]);
        }
    }

    #[test]
    fn rows_from_arrays_take_either_form() {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| model(4)[i].clone());
        assert_models(&Row::from([]), &[]);
        assert_models(&Row::from([a.clone()]), &model(1));
        assert_models(&Row::from([a.clone(), b.clone(), c.clone()]), &model(3));
        let wide = Row::from([a, b, c, d]);
        assert!(!is_inline(&wide));
        assert_models(&wide, &model(4));
    }

    #[test]
    fn a_heap_row_cut_back_equals_the_inline_row() {
        let values = model(7);
        for cut in 0..=ROW_INLINE {
            let mut heap = Row::from(values.clone());
            heap.truncate(cut);
            let inline: Row = values[..cut].iter().cloned().collect();
            assert!(!is_inline(&heap) && is_inline(&inline));
            assert_eq!(heap, inline);
            assert_eq!(Tuple::at(heap.clone(), 4), Tuple::at(inline.clone(), 4));
            assert_eq!(format!("{heap:?}"), format!("{inline:?}"));
            assert_eq!(
                serde_json::to_string(&heap).unwrap(),
                serde_json::to_string(&inline).unwrap()
            );
        }
        let mut cut = Row::from(vec![Value::Int(1), Value::Int(2)]);
        cut.truncate(1);
        assert_ne!(cut, Row::from([Value::Int(1), Value::Int(2)]));
        assert_eq!(cut, Row::from([Value::Int(1)]));
    }

    /// The JSON and `Debug` text of tuples either side of the inline limit,
    /// as they were when a tuple's values were a `Vec<Value>`.
    #[test]
    fn tuples_keep_their_json_and_debug_text() {
        let golden = [
            (
                0,
                r#"{"values":[],"event_time":1000,"emit_ns":7}"#,
                "Tuple { values: [], event_time: 1000, emit_ns: 7 }",
            ),
            (
                1,
                r#"{"values":[{"Int":-3}],"event_time":1001,"emit_ns":7}"#,
                "Tuple { values: [Int(-3)], event_time: 1001, emit_ns: 7 }",
            ),
            (
                3,
                r#"{"values":[{"Int":-3},{"Str":"word"},{"Double":1.5}],"event_time":1003,"emit_ns":7}"#,
                r#"Tuple { values: [Int(-3), Str("word"), Double(1.5)], event_time: 1003, emit_ns: 7 }"#,
            ),
            (
                4,
                r#"{"values":[{"Int":-3},{"Str":"word"},{"Double":1.5},{"Bool":true}],"event_time":1004,"emit_ns":7}"#,
                r#"Tuple { values: [Int(-3), Str("word"), Double(1.5), Bool(true)], event_time: 1004, emit_ns: 7 }"#,
            ),
            (
                7,
                r#"{"values":[{"Int":-3},{"Str":"word"},{"Double":1.5},{"Bool":true},{"Timestamp":17},{"Str":"a string longer than the inline limit"},{"Int":9223372036854775807}],"event_time":1007,"emit_ns":7}"#,
                r#"Tuple { values: [Int(-3), Str("word"), Double(1.5), Bool(true), Timestamp(17), Str("a string longer than the inline limit"), Int(9223372036854775807)], event_time: 1007, emit_ns: 7 }"#,
            ),
        ];
        for (width, json, debug) in golden {
            let t = Tuple {
                values: Row::from(seven()[..width].to_vec()),
                event_time: 1000 + width as i64,
                emit_ns: 7,
            };
            assert_eq!(serde_json::to_string(&t).unwrap(), json, "width {width}");
            assert_eq!(format!("{t:?}"), debug, "width {width}");
            let back: Tuple = serde_json::from_str(json).unwrap();
            assert_eq!(back, t);
            assert_eq!(is_inline(&back.values), width <= ROW_INLINE);
        }
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
