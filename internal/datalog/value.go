// Package datalog defines the DatalogLB-subset language used by SecureBlox:
// the value model, abstract syntax (terms, atoms, literals, rules,
// constraints), a lexer and parser, and a printer that reifies programs back
// to source text.
//
// The dialect follows the paper "SecureBlox: Customizable Secure Distributed
// Data Processing" (SIGMOD 2010): rules are declared with "<-", integrity
// constraints with "->", functional dependencies as p[k1,...,kn]=v,
// singletons as p[]=v, and aggregation as agg<<C=min(Cx)>>.
package datalog

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The value kinds supported by the engine. KindName holds a quoted predicate
// name ('pred), KindNode a network location ("host:port"), KindPrin a
// principal identity, and KindEntity a generated entity (head-existential).
const (
	KindInvalid Kind = iota
	KindInt
	KindString
	KindBytes
	KindBool
	KindName
	KindNode
	KindPrin
	KindEntity
)

// String returns the lower-case kind name, matching the type keywords used
// in declarations.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindBool:
		return "bool"
	case KindName:
		return "name"
	case KindNode:
		return "node"
	case KindPrin:
		return "principal"
	case KindEntity:
		return "entity"
	default:
		return "invalid"
	}
}

// Value is a runtime value: the language's type for constants, facts, query
// results, UDF arguments and wire payloads. It is a tagged union: Int is used
// by KindInt, KindBool (0/1) and KindEntity (entity id); Str by KindString,
// KindName, KindNode, KindPrin, KindEntity (entity type) and KindBytes. Byte
// strings are immutable like every other value, so they ride in Str and are
// read through Bytes. The engine does not store Values: it encodes them as
// pointer-free cells whose text is interned per workspace, and hands out
// Values whose Str views that text.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// Int64 returns an integer value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(s string) Value { return Value{Kind: KindString, Str: s} }

// BytesV returns a bytes value holding a copy of b.
func BytesV(b []byte) Value { return Value{Kind: KindBytes, Str: string(b)} }

// OwnedBytes returns a bytes value that takes ownership of b without copying.
// It is for buffers the caller just built (an encoded payload, a signature)
// and drops: nobody may write to b afterwards.
func OwnedBytes(b []byte) Value {
	return Value{Kind: KindBytes, Str: unsafe.String(unsafe.SliceData(b), len(b))}
}

// Bytes returns the byte string of a KindBytes value as a read-only view of
// the value's storage: writing through it would change a value that relations
// hash and share. Callers that need to mutate copy first.
func (v Value) Bytes() []byte {
	return unsafe.Slice(unsafe.StringData(v.Str), len(v.Str))
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, Int: 1}
	}
	return Value{Kind: KindBool}
}

// Name returns a quoted-predicate-name value ('pred).
func Name(s string) Value { return Value{Kind: KindName, Str: s} }

// NodeV returns a node-location value ("host:port").
func NodeV(addr string) Value { return Value{Kind: KindNode, Str: addr} }

// Prin returns a principal-identity value.
func Prin(id string) Value { return Value{Kind: KindPrin, Str: id} }

// Entity returns a generated entity value of the given entity type and id.
func Entity(typ string, id int64) Value {
	return Value{Kind: KindEntity, Str: typ, Int: id}
}

// IsZero reports whether v is the zero (invalid) value.
func (v Value) IsZero() bool { return v.Kind == KindInvalid }

// AsBool reports the truth of a KindBool value.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.Int != 0 }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt, KindBool:
		return v.Int == o.Int
	case KindString, KindName, KindNode, KindPrin, KindBytes:
		return v.Str == o.Str
	case KindEntity:
		return v.Str == o.Str && v.Int == o.Int
	default:
		return true
	}
}

// Compare orders two values. Values of different kinds order by kind.
// It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindInt, KindBool:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	case KindString, KindName, KindNode, KindPrin, KindBytes:
		return strings.Compare(v.Str, o.Str)
	case KindEntity:
		if c := strings.Compare(v.Str, o.Str); c != 0 {
			return c
		}
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AppendKey appends a unique, deterministic encoding of v to buf, used for
// hash keys of tuples.
func (v Value) AppendKey(buf []byte) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindInt, KindBool:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	case KindString, KindName, KindNode, KindPrin, KindBytes:
		buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(v.Str))), v.Str...)
	case KindEntity:
		buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(v.Str))), v.Str...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	}
	return buf
}

// String renders the value as DatalogLB source text where possible.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return strconv.Quote(v.Str)
	case KindName:
		return "'" + v.Str
	case KindNode:
		return "@" + strconv.Quote(v.Str)
	case KindPrin:
		if isIdent(v.Str) {
			return "#" + v.Str
		}
		return "#" + strconv.Quote(v.Str)
	case KindEntity:
		return fmt.Sprintf("%s:%d", v.Str, v.Int)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.Str)
	default:
		return "<invalid>"
	}
}

// isIdent reports whether s lexes as one identifier.
func isIdent(s string) bool {
	for i, r := range s {
		if i == 0 && !isIdentStart(r) || !isIdentPart(r) {
			return false
		}
	}
	return s != ""
}

// Tuple is an ordered list of values: one fact of a relation.
type Tuple []Value

// Key returns the deterministic hash key of the tuple.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 16*len(t))
	for _, v := range t {
		buf = v.AppendKey(buf)
	}
	return string(buf)
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
