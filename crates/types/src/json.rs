//! A minimal JSON value, writer, and reader.
//!
//! Hand-rolled because the build environment is offline, and in this crate
//! because both wire formats need it: the trace JSONL of `contig-trace` and
//! the snapshot codec of `contig-check`, which sits above it. They need only a
//! small, fully deterministic subset: object key order is *preserved* (not
//! sorted), so the serialized form of a snapshot is canonical and safe to
//! digest, and
//! numbers are `i128` (no floats — every quantity in the simulator is an
//! integer, and `i128` covers both `u64` counters and signed [`MapOffset`]
//! distances exactly). Neither the writer ([`Enc`]) nor the reader ([`Dec`])
//! needs a value: encoders emit member by member into a [`Sink`], so a digest
//! hashes an encoding it never holds, and decoders pull members off the text
//! in the order the encoder wrote them. [`parse`] builds a [`Json`] value.
//!
//! What a type looks like on the wire is decided by its *definition*:
//! [`Wire`] is implemented here once for the integers, `bool`, [`Pfn`],
//! `Option` (`null`), `Vec`, `[u64; N]` and tuples (arrays), and three table
//! macros wrap a definition and expand to it plus its `Wire` impl —
//! [`wire_struct!`](crate::wire_struct) (an object, one member per field,
//! named as the field, in declaration order),
//! [`wire_counters!`](crate::wire_counters) (an all-`u64` block as an array
//! in declaration order) and [`wire_tagged!`](crate::wire_tagged) (an enum
//! as `{"<tag>":"<name>",fields…}`). A field is therefore spelled once, and
//! reordering or renaming the fields of a wrapped type *is* a format change:
//! the reader refuses a member that is missing, out of order, repeated or
//! undeclared.
//!
//! [`MapOffset`]: crate::MapOffset

use std::borrow::Cow;

use crate::{Fnv1a64, Pfn};

/// A JSON value with deterministic (insertion-ordered) objects and integer
/// numbers only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer; covers every counter and offset in the simulator.
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and significant for digests.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a numeric value from anything that converts to `i128`.
    pub fn num(n: impl Into<i128>) -> Json {
        Json::Num(n.into())
    }

    /// The object member named `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(members) = self else { return None };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as an integer, if it is one.
    pub fn as_num(&self) -> Option<i128> {
        if let Json::Num(n) = self { Some(*n) } else { None }
    }

    /// The value as a `u64`, if it is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self { Some(*b) } else { None }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self { Some(s) } else { None }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self { Some(items) } else { None }
    }

    /// The member named `key`, which the object must have.
    ///
    /// # Errors
    ///
    /// This, [`Json::str_of`] and [`Json::member`] name the member that is
    /// missing or is not of the type asked for.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The string member named `key`.
    pub fn str_of(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_str().ok_or_else(|| format!("{key}: not a string"))
    }

    /// The member named `key` as a `T`, read by [`decode`] from its canonical
    /// spelling; refusals are reported under its name, so nested ones read as a path.
    pub fn member<T: Wire>(&self, key: &str) -> Result<T, String> {
        at(key, decode(&self.field(key)?.to_line(), "not JSON"))
    }

    /// Serializes to a single-line JSON string (the canonical form digests
    /// are computed over).
    pub fn to_line(&self) -> String {
        line(|e| self.encode(e))
    }

    /// Writes the value through `e`, members in stored order.
    pub fn encode<S: Sink>(&self, e: &mut Enc<S>) {
        match self {
            Json::Null => e.null(),
            Json::Bool(b) => e.bool(*b),
            Json::Num(n) => e.num(*n),
            Json::Str(s) => e.str(s),
            Json::Arr(items) => e.arr(|e| items.iter().for_each(|item| item.encode(e))),
            Json::Obj(members) => e.obj(|e| {
                for (key, value) in members {
                    e.key(key);
                    value.encode(e);
                }
            }),
        }
    }
}

/// Where an [`Enc`] puts the bytes it emits. There are two: a line buffer
/// and a running hash.
pub trait Sink {
    /// Appends `bytes` to the output.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Fnv1a64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// The canonical single-line writer: the one place that knows how a number,
/// a string and a separator are spelled. Values are emitted in call order
/// with no whitespace; the caller keeps `key`s and values paired and the
/// closures of [`Enc::obj`]/`Enc::arr` keep brackets balanced.
pub struct Enc<S> {
    out: S,
    /// Whether the next key or value is preceded by a comma: set by every
    /// finished value, cleared by an opening bracket and by a key.
    comma: bool,
}

impl<S: Sink> Enc<S> {
    /// A writer with nothing written yet.
    pub(crate) fn new(out: S) -> Self {
        Enc { out, comma: false }
    }

    /// The sink, with everything written so far in it.
    pub(crate) fn into_inner(self) -> S {
        self.out
    }

    #[inline]
    fn value(&mut self, bytes: &[u8]) {
        if self.comma {
            self.out.put(b",");
        }
        self.out.put(bytes);
        self.comma = true;
    }

    /// The name of the next value, inside [`Enc::obj`].
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.put(b":");
        self.comma = false;
        self
    }

    /// An integer, in the shortest decimal form.
    #[inline]
    pub fn num(&mut self, n: impl Into<i128>) {
        let n: i128 = n.into();
        // 39 digits of `u128::MAX` and a sign.
        let mut buf = [0u8; 40];
        let mut at = buf.len();
        if let Ok(mut n) = u64::try_from(n) {
            loop {
                at -= 1;
                buf[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
        } else {
            let mut abs = n.unsigned_abs();
            while abs != 0 {
                at -= 1;
                buf[at] = b'0' + (abs % 10) as u8;
                abs /= 10;
            }
            if n < 0 {
                at -= 1;
                buf[at] = b'-';
            }
        }
        self.value(&buf[at..]);
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.value(if b { b"true" } else { b"false" });
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.value(b"null");
    }

    /// A string, escaping `"`, `\` and control characters.
    pub fn str(&mut self, s: &str) {
        self.value(b"\"");
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let hex;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]);
                    hex = [b'\\', b'u', b'0', b'0', hi, lo];
                    &hex
                }
                _ => continue,
            };
            self.out.put(&bytes[run..i]);
            self.out.put(escape);
            run = i + 1;
        }
        // The whole string in one piece when nothing needed escaping.
        self.out.put(&bytes[run..]);
        self.out.put(b"\"");
    }

    fn bracketed(&mut self, open: &[u8], close: &[u8], f: impl FnOnce(&mut Self)) {
        self.value(open);
        self.comma = false;
        f(self);
        self.out.put(close);
        self.comma = true;
    }

    /// An object; `f` writes its members as [`Enc::key`]/value pairs.
    pub fn obj(&mut self, f: impl FnOnce(&mut Self)) {
        self.bracketed(b"{", b"}", f);
    }

    /// An array; `f` writes its items.
    pub(crate) fn arr(&mut self, f: impl FnOnce(&mut Self)) {
        self.bracketed(b"[", b"]", f);
    }

    /// An array of integers.
    pub fn nums<N: Into<i128>>(&mut self, items: impl IntoIterator<Item = N>) {
        self.arr(|e| items.into_iter().for_each(|n| e.num(n)));
    }
}

/// The line `f` writes, as a string: the line-buffer sink.
pub fn line(f: impl FnOnce(&mut Enc<Vec<u8>>)) -> String {
    let mut e = Enc::new(Vec::new());
    f(&mut e);
    String::from_utf8(e.into_inner()).expect("the encoder emits whole UTF-8 strings and ASCII")
}

/// FNV-1a-64 of the line `f` writes, without the line: the hash sink.
pub fn digest(f: impl FnOnce(&mut Enc<Fnv1a64>)) -> u64 {
    let mut e = Enc::new(Fnv1a64::new());
    f(&mut e);
    e.into_inner().finish()
}

/// A type with one canonical spelling on the wire: `enc` writes it through
/// an [`Enc`], `dec` pulls it back off a [`Dec`] and refuses anything `enc`
/// cannot have written for a value of the type.
pub trait Wire: Sized {
    /// Writes the value; inside an object the caller has written the key.
    fn enc<S: Sink>(&self, e: &mut Enc<S>);

    /// Reads the value at the reader, leaving the reader past it.
    ///
    /// # Errors
    ///
    /// What is wrong with the value, prefixed with the path of members and
    /// indices down to it (`processes: [0]: mappings: [3]: …`).
    fn dec(d: &mut Dec<'_>) -> Result<Self, String>;
}

/// Reads `input` as exactly one `T`, in one pass and without a [`Json`] tree.
///
/// # Errors
///
/// If `input` is not one JSON document, what [`parse`] says of it behind
/// `not_json` (`"bad payload: …"`): a syntax error anywhere outranks a value
/// that does not fit before it. Otherwise the path down to what does not fit.
pub fn decode<T: Wire>(input: &str, not_json: &str) -> Result<T, String> {
    let mut d = Dec { text: input, pos: 0, depth: 0 };
    let read = T::dec(&mut d).and_then(|value| d.finish().map(|()| value));
    // Only a refused input is parsed a second time.
    read.map_err(|e| parse(input).map_or_else(|syntax| format!("{not_json}: {syntax}"), |_| e))
}

/// `read`, with an error prefixed by the place it was read from.
#[inline]
fn at<T>(place: impl std::fmt::Display, read: Result<T, String>) -> Result<T, String> {
    read.map_err(|e| format!("{place}: {e}"))
}

macro_rules! wire_int {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn enc<S: Sink>(&self, e: &mut Enc<S>) {
                e.num(*self as i128);
            }
            #[inline]
            fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
                d.skip_ws();
                let n = matches!(d.peek(), Some(b'-' | b'0'..=b'9')).then(|| d.number().ok());
                let n = n.flatten().and_then(|n| $ty::try_from(n).ok());
                n.ok_or_else(|| concat!("not a ", stringify!($ty)).to_string())
            }
        }
    )*};
}
wire_int!(u8, u32, u64, usize, i128);

impl Wire for bool {
    #[inline]
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.bool(*self);
    }
    #[inline]
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        d.skip_ws();
        match d.peek() {
            Some(b't') => d.literal("true").map(|()| true),
            Some(b'f') => d.literal("false").map(|()| false),
            _ => Err("not a bool".to_string()),
        }
    }
}

impl Wire for Pfn {
    #[inline]
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.num(self.raw());
    }
    #[inline]
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        u64::dec(d).map(Pfn::new)
    }
}

/// `null` when unset, never left out.
impl<T: Wire> Wire for Option<T> {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        match self {
            Some(value) => value.enc(e),
            None => e.null(),
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        d.skip_ws();
        if d.peek() == Some(b'n') {
            return d.literal("null").map(|()| None);
        }
        T::dec(d).map(Some)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.arr(|e| self.iter().for_each(|item| item.enc(e)));
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        d.open(b'[', "not an array")?;
        let mut items = Vec::new();
        while d.more(b']', items.is_empty())? {
            items.push(at(format_args!("[{}]", items.len()), T::dec(d))?);
        }
        Ok(items)
    }
}

/// Exactly `N` integers: a block that grew or shrank is another format.
impl<const N: usize> Wire for [u64; N] {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.nums(*self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        d.fixed(N, || format!("not an array of {N} entries"), |d| {
            let mut out = [0; N];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = d.item(i)?;
            }
            Ok(out)
        })
    }
}

macro_rules! wire_tuple {
    ($len:literal: $($T:ident $i:tt),*) => {
        impl<$($T: Wire),*> Wire for ($($T,)*) {
            fn enc<S: Sink>(&self, e: &mut Enc<S>) {
                e.arr(|e| { $( self.$i.enc(e); )* });
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
                let wrong = || concat!("not a ", $len, "-element array").to_string();
                d.fixed($len, wrong, |d| Ok(($( d.item::<$T>($i)?, )*)))
            }
        }
    };
}
wire_tuple!(2: A 0, B 1);
wire_tuple!(3: A 0, B 1, C 2);
wire_tuple!(4: A 0, B 1, C 2, D 3);

/// Wraps a struct definition and implements [`Wire`] for it: an object with
/// one member per field, named as the field, in declaration order, each one
/// required on decode, in that order. `=> path` after the closing brace names a
/// `fn(&Self) -> Result<(), String>` that `dec` runs on the decoded value,
/// for conditions among fields that no single field's type can hold.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty, )*
        }
        $(=> $check:path)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::json::Wire for $name {
            fn enc<S: $crate::json::Sink>(&self, e: &mut $crate::json::Enc<S>) {
                e.obj(|e| {
                    $( $crate::json::Wire::enc(&self.$field, e.key(stringify!($field))); )*
                });
            }

            fn dec(d: &mut $crate::json::Dec<'_>) -> Result<Self, String> {
                let mut members = d.obj(&[$( stringify!($field) ),*])?;
                let value = $name { $( $field: members.next($crate::json::Wire::dec)?, )* };
                members.end()?;
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
}

/// Wraps a struct of `pub u64` counters and implements [`Wire`] for it — an
/// array of exactly as many integers, in declaration order — and
/// `accumulate`, which adds another block in field by field. Where fields
/// carry `= "event.name"`, `as_named` pairs those counters with the trace
/// event whose emissions they count, in declaration order.
#[macro_export]
macro_rules! wire_counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64, )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $name {
            /// Adds `other`'s counters into this block (totals across zones,
            /// systems or runs).
            pub fn accumulate(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }
        }

        impl $crate::json::Wire for $name {
            fn enc<S: $crate::json::Sink>(&self, e: &mut $crate::json::Enc<S>) {
                e.nums([$( self.$field ),*]);
            }

            fn dec(d: &mut $crate::json::Dec<'_>) -> Result<Self, String> {
                let [$( $field ),*] = $crate::json::Wire::dec(d)?;
                Ok($name { $( $field ),* })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 $(= $event:literal)?, )*
        }
    ) => {
        $crate::wire_counters! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $fvis $field: u64, )*
            }
        }

        impl $name {
            /// The traced counters as `(event name, total)` pairs, in
            /// declaration order: each must equal the number of emissions of
            /// that event in a trace of the same run.
            pub fn as_named(&self) -> Vec<(&'static str, u64)> {
                vec![$( $( ($event, self.$field), )? )*]
            }
        }
    };
}

/// Wraps an enum definition whose variants are units or carry named fields,
/// each variant preceded by its wire name, and implements [`Wire`] for it:
/// `{"<tag>":"<name>",<field>:<value>,…}`, fields in declaration order. The
/// tag key comes first, before the definition: `"kind": pub enum …`.
#[macro_export]
macro_rules! wire_tagged {
    (
        $tag:literal:
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $wire:literal $variant:ident
                $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty, )* })?,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl $crate::json::Wire for $name {
            fn enc<S: $crate::json::Sink>(&self, e: &mut $crate::json::Enc<S>) {
                e.obj(|e| match self {
                    $( $name::$variant $({ $( $field, )* })? => {
                        e.key($tag).str($wire);
                        $($( $crate::json::Wire::enc($field, e.key(stringify!($field))); )*)?
                    } )*
                });
            }

            fn dec(d: &mut $crate::json::Dec<'_>) -> Result<Self, String> {
                // Until the tag names the variant, any variant's field may
                // follow it.
                let mut members = d.obj(&[$tag $($($(, stringify!($field))*)?)*])?;
                let tag = members.next($crate::json::Dec::str)?;
                match &*tag {
                    $( $wire => {
                        #[allow(unused_mut)]
                        let mut members = members.then(&[$tag $($(, stringify!($field))*)?]);
                        let value = $name::$variant $({
                            $( $field: members.next($crate::json::Wire::dec)?, )*
                        })?;
                        members.end().map(|()| value)
                    } )*
                    other => Err(format!("unknown {} `{other}`", $tag)),
                }
            }
        }
    };
}

/// Deepest nesting of arrays and objects [`parse`] and [`decode`] accept. A
/// fleet snapshot nests about ten deep; the bound keeps hostile input from
/// overflowing the reader's stack.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parses one JSON document from `input`.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut d = Dec { text: input, pos: 0, depth: 0 };
    d.skip_ws();
    let value = d.value()?;
    d.finish().map(|()| value)
}

/// The pull reader over a JSON text: one lexer under both [`parse`] and
/// every [`Wire::dec`]. A typed read skips whitespace, then takes exactly
/// the value asked for or refuses it.
#[derive(Clone, Debug)]
pub struct Dec<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Dec<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(format!("expected '{}' at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.peek().map_or(Ok(()), |_| Err(format!("trailing data at byte {}", self.pos)))
    }

    /// The next value as a tree.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't' | b'f') => bool::dec(self).map(Json::Bool),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.open(b'[', "")?;
                let mut items = Vec::new();
                while self.more(b']', items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.open(b'{', "")?;
                let mut members = Vec::new();
                while self.more(b'}', members.is_empty())? {
                    let key = self.key("")?.into_owned();
                    members.push((key, self.value()?));
                }
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Enters the array or object `bracket` opens; `otherwise` if the next
    /// value is something else.
    fn open(&mut self, bracket: u8, otherwise: &str) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Err(otherwise.to_string());
        }
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Whether another item follows in the array or object last opened,
    /// closed by `close`; `first` is whether none was read yet. Consumes the
    /// comma, or the closing bracket.
    fn more(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ => Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos)),
        }
    }

    /// A member's key and its colon. The key the caller expects (no quote or
    /// backslash in it) is tried byte for byte first: field names need no
    /// escape, so the common case scans for none.
    fn key(&mut self, expect: &str) -> Result<Cow<'a, str>, String> {
        let n = expect.len();
        let key = match self.text.as_bytes().get(self.pos..self.pos + n + 2) {
            Some([b'"', name @ .., b'"']) if name == expect.as_bytes() => {
                self.pos += n + 2;
                Cow::Borrowed(&self.text[self.pos - n - 1..self.pos - 1])
            }
            _ => self.string()?,
        };
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn number(&mut self) -> Result<i128, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let digits = self.pos;
        // Accumulated while scanning; exact while it has at most 19 digits.
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("non-integer number at byte {start}"));
        }
        // The writer emits the shortest decimal form and nothing else is
        // canonical: no bare sign, no zero in front of another digit.
        let len = self.pos - digits;
        if len == 0 || (len > 1 && self.text.as_bytes()[digits] == b'0') {
            return Err(format!("malformed number at byte {start}"));
        }
        if len <= 19 {
            return Ok(if negative { -i128::from(n) } else { i128::from(n) });
        }
        let n = self.text[start..self.pos].parse();
        n.map_err(|_| format!("number out of range at byte {start}"))
    }

    /// The next value as a string, borrowed from the text unless it holds an
    /// escape; `not a string` if it is something else.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err("not a string".to_string());
        }
        self.string()
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // The whole run up to the next quote or escape in one step. Both
            // delimiters are ASCII, so the run ends on a scalar boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let len = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
            let run = &self.text[self.pos..self.pos + len.unwrap_or(rest.len())];
            self.pos += run.len();
            if out.is_empty() {
                out = Cow::Borrowed(run);
            } else {
                out.to_mut().push_str(run);
            }
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.pos += 1, // an escape
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let code = u32::from_str_radix(hex.ok_or("truncated \\u escape")?, 16)
                        .map_err(|_| "bad \\u escape".to_string())?;
                    self.pos += 4;
                    char::from_u32(code).ok_or("surrogate \\u escape unsupported")?
                }
                other => return Err(format!("bad escape {other:?}")),
            };
            out.to_mut().push(escaped);
            self.pos += 1;
        }
    }

    /// Opens an object whose members are `fields`, read in that order; `not
    /// an object` if the next value is something else.
    pub fn obj(&mut self, fields: &'static [&'static str]) -> Result<Members<'_, 'a>, String> {
        self.open(b'{', "not an object")?;
        Ok(Members { d: self, fields, read: 0 })
    }

    /// Item `i` of the array open at the reader.
    fn item<T: Wire>(&mut self, i: usize) -> Result<T, String> {
        if !self.more(b']', i == 0)? {
            return Err("too few items".to_string());
        }
        at(format_args!("[{i}]"), T::dec(self))
    }

    /// An array of exactly `n` items, which `read` takes with [`Dec::item`].
    /// Any refusal is `wrong()` unless the value is an array of `n` items:
    /// the count is judged before the items.
    fn fixed<T>(
        &mut self,
        n: usize,
        wrong: impl FnOnce() -> String,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut start = self.clone();
        let value = self.open(b'[', "").and_then(|()| read(self));
        let value = value
            .and_then(|v| (!self.more(b']', n == 0)?).then_some(v).ok_or_else(String::new));
        value.map_err(|e| {
            start.skip_ws();
            match start.value() {
                Ok(Json::Arr(items)) if items.len() == n => e,
                _ => wrong(),
            }
        })
    }
}

/// The members of an object [`Dec::obj`] opened, read in declaration order.
pub struct Members<'d, 'a> {
    d: &'d mut Dec<'a>,
    fields: &'static [&'static str],
    read: usize,
}

impl<'a> Members<'_, 'a> {
    /// The next declared member, read by `read` (a [`Wire::dec`]). Refuses a
    /// member that is missing, out of order, repeated or undeclared, and
    /// reports what `read` refuses under the member's name.
    pub fn next<T>(
        &mut self,
        read: impl FnOnce(&mut Dec<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let name = self.fields[self.read];
        let found = if self.d.more(b'}', self.read == 0)? { Some(self.d.key(name)?) } else { None };
        if found.as_deref() != Some(name) {
            return Err(self.refuse(found.as_deref()));
        }
        self.read += 1;
        at(name, read(self.d))
    }

    /// Goes on with the members `fields` declares, the ones read so far
    /// first: a tagged enum's variant extends its tag.
    pub fn then(self, fields: &'static [&'static str]) -> Self {
        Members { fields, ..self }
    }

    /// Closes the object; refuses a member past the declared ones.
    pub fn end(self) -> Result<(), String> {
        if !self.d.more(b'}', self.read == 0)? {
            return Ok(());
        }
        let key = self.d.key("")?;
        Err(self.refuse(Some(&key)))
    }

    /// Why `found` (`None`: the object closed) is not the next declared
    /// member. Only error paths look past it, at the rest of the object.
    fn refuse(&self, found: Option<&str>) -> String {
        match (found, self.fields.get(self.read)) {
            (Some(key), _) if self.fields[..self.read].contains(&key) => {
                format!("duplicate field `{key}`")
            }
            (Some(key), _) if !self.fields.contains(&key) => format!("unknown field `{key}`"),
            (Some(_), Some(want)) if self.follows(want) => format!("field `{want}` out of order"),
            (_, want) => format!("missing field `{}`", want.unwrap_or(&"")),
        }
    }

    /// Whether a member called `name` follows the one whose value is next.
    fn follows(&self, name: &str) -> bool {
        let mut d = self.d.clone();
        while d.value().is_ok() && d.more(b'}', false) == Ok(true) {
            match d.key(name) {
                Ok(key) if key == name => return true,
                Ok(_) => {}
                Err(_) => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_structure_and_order() {
        let doc = Json::Obj(vec![
            ("z".into(), Json::num(1u64)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(-5)])),
            ("s".into(), Json::Str("a \"quoted\"\nline".into())),
            ("big".into(), Json::Num(i128::from(u64::MAX) + 7)),
        ]);
        let line = doc.to_line();
        assert_eq!(parse(&line).unwrap(), doc);
        // Key order survives: canonical form is stable.
        assert_eq!(parse(&line).unwrap().to_line(), line);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn numbers_parse_only_in_the_form_the_writer_emits() {
        for text in ["007", "-", "-007", "00", "[1,-]"] {
            let err = parse(text).unwrap_err();
            assert!(err.starts_with("malformed number at byte "), "{text}: {err}");
        }
        for text in ["1.0", "1e3", "-0.5"] {
            let err = parse(text).unwrap_err();
            assert!(err.starts_with("non-integer number at byte "), "{text}: {err}");
        }
        assert!(parse("+2").is_err());
        for n in [0, -1, 7, i128::from(u64::MAX), i128::MIN, i128::MAX] {
            let text = Json::Num(n).to_line();
            assert_eq!(text, n.to_string());
            assert_eq!(parse(&text), Ok(Json::Num(n)));
        }
        assert_eq!(parse("-0"), Ok(Json::Num(0)));
        assert!(parse("170141183460469231731687303715884105728").is_err(), "i128::MAX + 1");
    }

    #[test]
    fn required_member_accessors_name_the_member() {
        let doc = parse(r#"{"n":7,"big":4294967296,"b":true,"s":"x","a":[1,[2,"3"]]}"#).unwrap();
        assert_eq!(doc.member::<u64>("n"), Ok(7));
        assert_eq!(doc.member::<u32>("n"), Ok(7));
        assert_eq!(doc.member::<usize>("n"), Ok(7));
        assert_eq!(doc.member::<Option<u8>>("n"), Ok(Some(7)));
        assert_eq!(doc.member::<bool>("b"), Ok(true));
        assert_eq!(doc.str_of("s"), Ok("x"));
        assert_eq!(doc.field("gone").unwrap_err(), "missing field `gone`");
        assert_eq!(doc.member::<u64>("gone").unwrap_err(), "missing field `gone`");
        assert_eq!(doc.member::<u64>("s").unwrap_err(), "s: not a u64");
        assert_eq!(doc.member::<u32>("big").unwrap_err(), "big: not a u32");
        assert_eq!(doc.member::<bool>("n").unwrap_err(), "n: not a bool");
        assert_eq!(doc.str_of("n").unwrap_err(), "n: not a string");
        assert_eq!(doc.member::<Vec<u64>>("n").unwrap_err(), "n: not an array");
        assert_eq!(Json::Null.field("n").unwrap_err(), "missing field `n`");
        // Nested refusals read as the path down to them.
        assert_eq!(doc.member::<(u64, (u64, u64))>("a").unwrap_err(), "a: [1]: [1]: not a u64");
        assert_eq!(doc.member::<(u64, u64, u64)>("a").unwrap_err(), "a: not a 3-element array");
        assert_eq!(doc.member::<[u64; 3]>("a").unwrap_err(), "a: not an array of 3 entries");
        assert_eq!(doc.member::<Vec<u64>>("a").unwrap_err(), "a: [1]: not a u64");
    }

    #[test]
    fn a_syntax_error_outranks_a_value_that_does_not_fit_before_it() {
        let read = |text| decode::<Vec<u64>>(text, "not JSON");
        assert_eq!(read(" [1, 2 ]\n"), Ok(vec![1, 2]));
        assert_eq!(read(r#"["a",1]"#).unwrap_err(), "[0]: not a u64");
        assert_eq!(read(r#"["a",1 2]"#).unwrap_err(), "not JSON: expected ',' or ']' at byte 7");
        assert_eq!(read("[1] 2").unwrap_err(), "not JSON: trailing data at byte 4");
    }

    #[test]
    fn nesting_is_bounded_not_recursed_until_the_stack_overflows() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"a\":", "}"), ("[{\"a\":", "}]")] {
            let per_level = open.matches(['[', '{']).count();
            assert!(parse(&nested(open, close, MAX_DEPTH / per_level)).is_ok());
            let err = parse(&nested(open, close, MAX_DEPTH / per_level + 1)).unwrap_err();
            assert!(err.starts_with("nesting deeper than 64 at byte "), "{err}");
            // A megabyte of opening brackets is an error, not a dead process.
            let err = parse(&open.repeat(1_000_000 / open.len())).unwrap_err();
            assert!(err.starts_with("nesting deeper than 64 at byte "), "{err}");
        }
        // Depth counts what is open, not what was: siblings are free.
        assert!(parse(&format!("[{}]", vec!["[[1]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn strings_keep_multi_byte_scalars_next_to_escapes() {
        for (text, want) in [
            (r#""é\n""#, "é\n"),
            (r#""\té""#, "\té"),
            (r#""日本\"語""#, "日本\"語"),
            (r#""\u00e9é\u65e5日""#, "éé日日"),
            (r#""🦀\\🦀\/""#, "🦀\\🦀/"),
            (r#""""#, ""),
            (r#""plain""#, "plain"),
        ] {
            assert_eq!(parse(text), Ok(Json::Str(want.into())), "{text}");
            // And back: what the writer emits for it parses to it again.
            assert_eq!(parse(&Json::Str(want.into()).to_line()), Ok(Json::Str(want.into())));
        }
    }

    #[test]
    fn string_errors_keep_their_text() {
        for (text, want) in [
            (r#""日本"#, "unterminated string"),
            (r#""é\"#, "bad escape None"),
            (r#""é\q""#, "bad escape Some(113)"),
            (r#""é\u12"#, "truncated \\u escape"),
            (r#""\u123é""#, "truncated \\u escape"),
            (r#""\u12é""#, "bad \\u escape"),
            (r#""é\uzzzz""#, "bad \\u escape"),
            (r#""\ud800""#, "surrogate \\u escape unsupported"),
        ] {
            assert_eq!(parse(text), Err(want.into()), "{text}");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse("{\"a\": {\"b\": [1, 2]}, \"c\": true}").unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_bool), Some(true));
        let arr = doc.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(doc.get("missing"), None);
    }
}
