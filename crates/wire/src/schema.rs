//! Message declarations: each field is stated once, in a table, and the
//! codec is generated from it (the paper's relays speak a protocol
//! "specified using Protocol Buffers", §3.2, where the schema is the
//! single source of truth in the same way).
//!
//! [`message!`](crate::message!) takes a struct as it would be written by
//! hand, except that each field is declared as `<tag> <kind> <name>:
//! <type>` (every field is `pub`). It emits the struct, its
//! [`Message`](crate::codec::Message) impl — fields encoded in declaration
//! order, unknown fields skipped on decode — and `FIELDS`, the same table
//! as data, which `tests/schema.rs` renders and compares with the committed
//! `tests/wire.snapshot`.
//!
//! The kinds are the [`Writer`](crate::codec::Writer) methods `string`,
//! `bytes`, `u64`, `bool`, `message`, `repeated_bytes` and
//! `repeated_messages`, plus `enumeration` (a [`wire_enum!`](crate::wire_enum!)
//! type, written with `u64` as its code) and `repeated_string` (a
//! `Vec<String>`, written with `repeated_bytes`). A decoded `string` that
//! is not UTF-8 is reported as `InvalidUtf8` with the field name. Both
//! macros are `macro_rules!`: the workspace has no `syn`.

/// One row of a message's field table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDesc {
    /// Field number on the wire.
    pub tag: u32,
    /// Wire kind, one of the names in the module table.
    pub kind: &'static str,
    /// Struct field name.
    pub name: &'static str,
}

/// Declares a struct message; see the [module docs](crate::schema).
#[macro_export]
macro_rules! message {
    (
        $(#[$meta:meta])*
        pub struct $msg:ident {
            $( $(#[$fmeta:meta])* $tag:literal $kind:ident $name:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $msg {
            $( $(#[$fmeta])* pub $name: $ty, )*
        }

        impl $msg {
            /// The field table this message's codec is generated from.
            #[allow(dead_code)] // read by the schema test, not by the codec
            pub const FIELDS: &'static [$crate::schema::FieldDesc] = &[$(
                $crate::schema::FieldDesc { tag: $tag, kind: stringify!($kind), name: stringify!($name) },
            )*];
        }

        impl $crate::codec::Message for $msg {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                $( $crate::__field!(encode $kind, w, $tag, self.$name); )*
            }

            fn decode(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::WireError> {
                let mut out = Self::default();
                while let Some((field, value)) = r.next_field()? {
                    match field {
                        $( $tag => $crate::__field!(decode $kind, value, $tag, out.$name, $name, $ty), )*
                        _ => {}
                    }
                }
                Ok(out)
            }
        }
    };
}

/// One field's encode or decode statement, by kind.
#[doc(hidden)]
#[macro_export]
macro_rules! __field {
    (encode u64, $w:ident, $tag:literal, $v:expr) => {
        $w.u64($tag, $v)
    };
    (encode bool, $w:ident, $tag:literal, $v:expr) => {
        $w.bool($tag, $v)
    };
    (encode enumeration, $w:ident, $tag:literal, $v:expr) => {
        $w.u64($tag, $v.code())
    };
    (encode repeated_string, $w:ident, $tag:literal, $v:expr) => {
        $w.repeated_bytes($tag, $v.iter().map(String::as_bytes))
    };
    // string, bytes, message, repeated_bytes, repeated_messages: the
    // `Writer` method of the same name, by reference.
    (encode $kind:ident, $w:ident, $tag:literal, $v:expr) => {
        $w.$kind($tag, &$v)
    };
    (decode string, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = $x.as_string($tag, stringify!($name))?
    };
    (decode bytes, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = $x.as_bytes($tag)?.to_vec()
    };
    (decode u64, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = $x.as_u64($tag)?
    };
    (decode bool, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = $x.as_bool($tag)?
    };
    (decode message, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = $x.as_message($tag)?
    };
    (decode repeated_bytes, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot.push($x.as_bytes($tag)?.to_vec())
    };
    (decode repeated_messages, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot.push($x.as_message($tag)?)
    };
    (decode enumeration, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot = <$ty>::from_code($x.as_u64($tag)?)?
    };
    (decode repeated_string, $x:ident, $tag:literal, $slot:expr, $name:ident, $ty:ty) => {
        $slot.push($x.as_string($tag, stringify!($name))?)
    };
}

/// Declares a fieldless enum carried as a varint: each variant's code is
/// stated once, and an unknown code decodes to
/// [`WireError::UnknownEnumValue`](crate::WireError::UnknownEnumValue)
/// labelled with the string given after the enum's name.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident($label:literal) {
            $( $(#[$vmeta:meta])* $variant:ident = $code:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant = $code, )*
        }

        impl $name {
            fn code(self) -> u64 {
                self as u64
            }

            fn from_code(code: u64) -> Result<Self, $crate::WireError> {
                match code {
                    $( $code => Ok($name::$variant), )*
                    value => Err($crate::WireError::UnknownEnumValue { field: $label, value }),
                }
            }
        }
    };
}
