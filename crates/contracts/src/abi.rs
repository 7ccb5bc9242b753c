//! Contract functions, each declared once: its name, its typed arguments
//! and who may call it (paper §3.2: a relay proposal reaches a source
//! network only through a function the ECC exposes).
//!
//! [`chaincode!`] takes one row per function, written as a method:
//! `fn <Name>(&self, ctx, <arg>: <kind>, ..) for <Caller> { <body> }`.
//! A kind is `str` (strict UTF-8, a `&str`), `bytes` (a `&[u8]`) or a
//! [`Message`](tdt_wire::codec::Message) type; a caller is a [`Caller`].
//!
//! The macro emits each body as a private method, the
//! [`Chaincode::invoke`](tdt_fabric::chaincode::Chaincode::invoke)
//! dispatch, and `FUNCTIONS`, the rows as data, which the ECC's gate reads
//! and `tests/abi.rs` compares with `tests/abi.snapshot`. The dispatch runs
//! after the gate: an unknown name (`UnknownFunction`), then the exact arity
//! and each argument's decoding (`BadRequest`), then the caller class, then
//! the body. A nested `invoke_chaincode` passes the same dispatch and not
//! the gate, so only its row's org rule judges it.

use std::fmt;

/// Who may call a contract function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// A member of the local organization held by the named contract field
    /// ([`TxContext::require_org`](tdt_fabric::chaincode::TxContext::require_org)).
    Org(&'static str),
    /// Any local member, or a relay requester an exposure rule admits.
    Any,
    /// As [`Caller::Any`], and a relay proposal no rule names: the gate
    /// admits one to a system function only through an `Open` row.
    Open,
}

/// One row of a contract's function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionDesc {
    /// The function name a proposal carries.
    pub name: &'static str,
    /// Each argument's name and kind (`str`, `bytes` or a message type).
    pub args: &'static [(&'static str, &'static str)],
    /// Who may call it.
    pub caller: Caller,
}

/// The row as it is declared: `Name(arg: kind, ..) Caller`.
impl fmt::Display for FunctionDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.args.iter().map(|(n, k)| format!("{n}: {k}")).collect();
        write!(f, "{}({}) ", self.name, args.join(", "))?;
        match self.caller {
            Caller::Org(field) => write!(f, "Org({field})"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Declares a contract's functions; see the [module docs](self).
macro_rules! chaincode {
    (
        impl $contract:ident {
            $(
                $(#[$doc:meta])*
                fn $name:ident(&$self:ident, $ctx:ident $(, $arg:ident: $kind:tt)* $(,)?)
                    for $caller:ident $(($field:ident))? $body:block
            )*
        }
    ) => {
        impl $contract {
            /// Every function this contract declares, in declaration order.
            pub const FUNCTIONS: &'static [$crate::abi::FunctionDesc] = &[$(
                $crate::abi::FunctionDesc {
                    name: stringify!($name),
                    args: &[$((stringify!($arg), stringify!($kind))),*],
                    caller: $crate::abi::Caller::$caller $((stringify!($field)))?,
                },
            )*];

            $(
                $(#[$doc])*
                #[allow(non_snake_case)]
                fn $name(
                    &$self,
                    $ctx: &mut ::tdt_fabric::chaincode::TxContext<'_>
                    $(, $arg: $crate::abi::__arg!(type $kind))*
                ) -> Result<Vec<u8>, ::tdt_fabric::error::ChaincodeError> $body
            )*
        }

        impl ::tdt_fabric::chaincode::Chaincode for $contract {
            fn invoke(
                &self,
                ctx: &mut ::tdt_fabric::chaincode::TxContext<'_>,
                function: &str,
                args: &[Vec<u8>],
            ) -> Result<Vec<u8>, ::tdt_fabric::error::ChaincodeError> {
                use ::tdt_fabric::error::ChaincodeError::{BadRequest, UnknownFunction};
                match function {
                    $(stringify!($name) => {
                        let [$($arg),*] = args else {
                            let expects = concat!("expects [", stringify!($($arg),*), "], got");
                            return Err(BadRequest(format!("{function} {expects} {}", args.len())));
                        };
                        $(let $arg = $crate::abi::__arg!(decode $kind, $arg).map_err(|why| {
                            BadRequest(format!("{function} argument {}: {why}", stringify!($arg)))
                        })?;)*
                        $(ctx.require_org(&self.$field)?;)?
                        self.$name(ctx $(, $arg)*)
                    })*
                    other => Err(UnknownFunction(other.into())),
                }
            }
        }
    };
}

/// An argument kind's parameter type, or its decoding from the raw bytes.
macro_rules! __arg {
    (type str) => {
        &str
    };
    (type bytes) => {
        &[u8]
    };
    (type $message:ident) => {
        $message
    };
    (decode str, $raw:ident) => {
        std::str::from_utf8($raw).map_err(|_| String::from("not utf-8"))
    };
    (decode bytes, $raw:ident) => {
        Ok::<_, String>($raw.as_slice())
    };
    (decode $message:ident, $raw:ident) => {
        <$message as ::tdt_wire::codec::Message>::decode_from_slice($raw).map_err(|e| e.to_string())
    };
}

pub(crate) use {__arg, chaincode};
