// Package udf provides the user-defined functions SecureBlox hooks into
// rule and constraint execution (paper §3.2): serialization, SHA-1 hashing,
// RSA / HMAC signing and verification, the empty NoAuth tag, AES
// encryption, and onion-circuit encryption for the anonymity policies. Each
// node registers the library bound to its own KeyStore.
package udf

import (
	"encoding/binary"
	"fmt"
	"io"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/wire"
)

// none is what a filter UDF returns for its (absent) output.
var none datalog.Value

// valueHandle converts a value used as a circuit identifier into a stable
// string handle.
func valueHandle(v datalog.Value) string {
	if v.Kind == datalog.KindEntity {
		return fmt.Sprintf("%s:%d", v.Str, v.Int)
	}
	return v.Str
}

// sigData returns the canonical signed bytes for a said fact: the base
// predicate name (domain separation) plus the encoded values.
func sigData(param string, vals []datalog.Value) []byte {
	return wire.SigData(param, datalog.Tuple(vals))
}

// NewRegistry builds a fresh registry with the full UDF library installed,
// bound to a keystore (for key lookups) and a randomness source (for IVs;
// pass a deterministic reader in tests).
func NewRegistry(ks *seccrypto.KeyStore, rng io.Reader) (*engine.UDFRegistry, error) {
	return NewRegistryWithPools(ks, rng, nil, nil)
}

// NewRegistryWithPools is NewRegistry with optional shared RSA memos. When
// vpool is non-nil, rsa_verify and rsa_verify_batch consult it, so a triple
// already verified — re-derivations, and every payload row of one RSA-batch
// envelope — costs no second RSA check. When spool is non-nil, rsa_sign
// routes through it, so re-derivations of already-signed facts and fan-out to
// several peers hit the memo instead of redoing the private-key operation
// (footnote 2: signing dominates RSA runs). Either way the check runs on the
// calling transaction's goroutine, and the semantics are identical.
func NewRegistryWithPools(ks *seccrypto.KeyStore, rng io.Reader, vpool *seccrypto.VerifyPool, spool *seccrypto.SignPool) (*engine.UDFRegistry, error) {
	sign := func(privDER, data []byte) ([]byte, error) {
		priv, err := ks.ParsePriv(privDER)
		if err != nil {
			return nil, fmt.Errorf("bad private key: %w", err)
		}
		if spool != nil {
			return spool.Sign(priv, privDER, data)
		}
		return seccrypto.RSASign(priv, data)
	}
	verify := func(pubDER, data, sig []byte) bool {
		pub, err := ks.ParsePub(pubDER)
		if err != nil {
			return false // unparseable key: fail the match
		}
		if vpool != nil {
			return vpool.Verify(pub, pubDER, data, sig)
		}
		return seccrypto.RSAVerify(pub, data, sig)
	}
	udfs := []engine.UDF{
		sha1UDF{},
		&serializeUDF{},
		&deserializeUDF{},
		&anonSerializeUDF{},
		&anonDeserializeUDF{},
		&engine.FuncUDF{FName: "rsa_sign", InArity: -1, OutArity: 1,
			Fn: func(param string, in []datalog.Value) (datalog.Value, bool, error) {
				sig, err := sign(in[0].Bytes(), sigData(param, in[1:]))
				if err != nil {
					return none, false, fmt.Errorf("rsa_sign: %w", err)
				}
				return datalog.OwnedBytes(sig), true, nil
			}},
		&engine.FuncUDF{FName: "rsa_verify", InArity: -1, OutArity: 0,
			Fn: func(param string, in []datalog.Value) (datalog.Value, bool, error) {
				n := len(in)
				return none, verify(in[0].Bytes(), sigData(param, in[1:n-1]), in[n-1].Bytes()), nil
			}},
		// rsa_verify_batch(K, D, S) checks a signature over a precomputed
		// digest — the group root of a batch envelope
		// (wire.Message.BatchRoot) — instead of the serialized values of one
		// said fact: one signature covers every envelope a transaction
		// shipped (footnote 2), and the memoizing verify pool turns the
		// receiver's per-payload constraint checks into one RSA operation
		// plus cache hits. The signing side is the node runtime
		// (dist.Node.SignBatch), not a UDF.
		&engine.FuncUDF{FName: "rsa_verify_batch", InArity: 3, OutArity: 0,
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				return none, verify(in[0].Bytes(), in[1].Bytes(), in[2].Bytes()), nil
			}},
		&engine.FuncUDF{FName: "hmac_sign", InArity: -1, OutArity: 1,
			Fn: func(param string, in []datalog.Value) (datalog.Value, bool, error) {
				tag := seccrypto.HMACSign(in[0].Bytes(), sigData(param, in[1:]))
				return datalog.OwnedBytes(tag), true, nil
			}},
		&engine.FuncUDF{FName: "hmac_verify", InArity: -1, OutArity: 0,
			Fn: func(param string, in []datalog.Value) (datalog.Value, bool, error) {
				n := len(in)
				ok := seccrypto.HMACVerify(in[0].Bytes(), sigData(param, in[1:n-1]), in[n-1].Bytes())
				return none, ok, nil
			}},
		&engine.FuncUDF{FName: "noauth_sign", InArity: -1, OutArity: 1,
			Fn: func(string, []datalog.Value) (datalog.Value, bool, error) {
				return datalog.BytesV(nil), true, nil
			}},
		&engine.FuncUDF{FName: "aesencrypt", InArity: 2, OutArity: 1,
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				// Deterministic IV keeps re-derivation idempotent (see
				// seccrypto.AESEncryptDetIV).
				ct, err := seccrypto.AESEncryptDetIV(in[1].Bytes(), in[0].Bytes())
				if err != nil {
					return none, false, err
				}
				return datalog.OwnedBytes(ct), true, nil
			}},
		&engine.FuncUDF{FName: "aesdecrypt", InArity: 2, OutArity: 1,
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				pt, err := seccrypto.AESDecrypt(in[1].Bytes(), in[0].Bytes())
				if err != nil {
					return none, false, nil // corrupted ciphertext: no match
				}
				return datalog.OwnedBytes(pt), true, nil
			}},
		&engine.FuncUDF{FName: "anon_encrypt", InArity: 2, OutArity: 1,
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				keys := ks.OnionKeys(valueHandle(in[0]))
				if keys == nil {
					return none, false, fmt.Errorf("anon_encrypt: no onion keys for circuit %s", in[0])
				}
				ct, err := seccrypto.OnionEncrypt(keys, in[1].Bytes(), rng)
				if err != nil {
					return none, false, err
				}
				return datalog.OwnedBytes(ct), true, nil
			}},
		&engine.FuncUDF{FName: "anon_encrypt_back", InArity: 2, OutArity: 1,
			// One backward layer with this node's circuit key (replies
			// accumulate a layer per hop toward the initiator).
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				key := ks.CircuitKey(valueHandle(in[0]))
				if key == nil {
					return none, false, nil
				}
				ct, err := seccrypto.AESEncryptDetIV(key, in[1].Bytes())
				if err != nil {
					return none, false, err
				}
				return datalog.OwnedBytes(ct), true, nil
			}},
		&engine.FuncUDF{FName: "anon_decrypt_back", InArity: 2, OutArity: 1,
			// The initiator peels every backward layer (first hop's key
			// first — the outermost layer).
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				keys := ks.OnionKeys(valueHandle(in[0]))
				if keys == nil {
					return none, false, nil
				}
				pt := in[1].Bytes()
				for _, k := range keys {
					var err error
					pt, err = seccrypto.AESDecrypt(k, pt)
					if err != nil {
						return none, false, nil
					}
				}
				return datalog.OwnedBytes(pt), true, nil
			}},
		&engine.FuncUDF{FName: "anon_decrypt", InArity: 2, OutArity: 1,
			Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
				key := ks.CircuitKey(valueHandle(in[0]))
				if key == nil {
					return none, false, nil
				}
				pt, err := seccrypto.OnionPeel(key, in[1].Bytes())
				if err != nil {
					return none, false, nil
				}
				return datalog.OwnedBytes(pt), true, nil
			}},
	}
	reg := engine.NewUDFRegistry()
	for _, u := range udfs {
		if err := reg.Register(u); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// sha1UDF implements sha1(X, H): H is the SHA-1 digest of X's canonical
// encoding, truncated to a non-negative 63-bit integer so it can be
// compared against hash-range boundaries (paper §7.2).
type sha1UDF struct{}

func (sha1UDF) Name() string { return "sha1" }

func (sha1UDF) CanEval(bound []bool) bool { return len(bound) == 2 && bound[0] }

func (sha1UDF) Eval(_ string, args []datalog.Value, bound []bool) (bool, error) {
	var buf [64]byte
	d := seccrypto.SHA1(wire.AppendValue(buf[:0], args[0]))
	h := int64(binary.BigEndian.Uint64(d[:8]) &^ (1 << 63))
	return engine.Yield(args, bound, 1, datalog.Int64(h)), nil
}

// serializeUDF implements serialize[P](S, T, V*): packs signature S and
// values V* into payload T (paper §5.1). It encodes into its own buffer, which
// the next call reuses: the workspace interns the payload before then.
type serializeUDF struct{ buf []byte }

func (*serializeUDF) Name() string { return "serialize" }

func (*serializeUDF) CanEval(bound []bool) bool {
	if len(bound) < 2 || !bound[0] {
		return false
	}
	for _, b := range bound[2:] {
		if !b {
			return false
		}
	}
	return true
}

func (u *serializeUDF) Eval(param string, args []datalog.Value, bound []bool) (bool, error) {
	u.buf = wire.AppendPayload(u.buf[:0], wire.Payload{Pred: param, Sig: args[0].Bytes(), Vals: datalog.Tuple(args[2:])})
	return engine.Yield(args, bound, 1, datalog.OwnedBytes(u.buf)), nil
}

// unpack is the body of the two deserialize UDFs: payload pkt, whose values go
// to vals (bound[i] says which of them filter instead), must be of predicate
// param and carry exactly len(vals) values. It returns the payload's signature
// as a view of pkt. A payload of another predicate — most of what an import
// rule is offered — is turned away before anything is decoded; a malformed one
// is no match either.
func unpack(param string, pkt []byte, vals []datalog.Value, bound []bool) (sig []byte, ok bool) {
	if !wire.PayloadHasPred(pkt, param) {
		return nil, false
	}
	_, sig, enc, err := wire.OpenPayload(pkt)
	if err != nil {
		return nil, false
	}
	n, enc, err := wire.ReadCount(enc)
	if err != nil || n != len(vals) {
		return nil, false
	}
	for i := range vals {
		var v datalog.Value
		if v, enc, err = wire.ReadValue(enc); err != nil || !engine.Yield(vals, bound, i, v) {
			return nil, false
		}
	}
	return sig, len(enc) == 0
}

// deserializeUDF implements deserialize[P](S, T, V*): unpacks payload T
// into signature S and values V*, matching only when the payload's
// predicate equals the parameterization.
type deserializeUDF struct{}

func (*deserializeUDF) Name() string { return "deserialize" }

func (*deserializeUDF) CanEval(bound []bool) bool { return len(bound) >= 2 && bound[1] }

// The signature goes back as a view of the payload: the workspace interns it
// before the payload's storage could change.
func (*deserializeUDF) Eval(param string, args []datalog.Value, bound []bool) (bool, error) {
	sig, ok := unpack(param, args[1].Bytes(), args[2:], bound[2:])
	return ok && engine.Yield(args, bound, 0, datalog.OwnedBytes(sig)), nil
}

// anonSerializeUDF implements anon_serialize[P](T, V*): serialization
// without a signature argument — "it would be detrimental to a principal's
// anonymity for her to identify herself as the author" (paper §6.2).
type anonSerializeUDF struct{}

func (*anonSerializeUDF) Name() string { return "anon_serialize" }

func (*anonSerializeUDF) CanEval(bound []bool) bool {
	if len(bound) < 1 {
		return false
	}
	for _, b := range bound[1:] {
		if !b {
			return false
		}
	}
	return true
}

func (*anonSerializeUDF) Eval(param string, args []datalog.Value, bound []bool) (bool, error) {
	p := wire.Payload{Pred: param, Vals: datalog.Tuple(args[1:])}
	return engine.Yield(args, bound, 0, datalog.OwnedBytes(wire.EncodePayload(p))), nil
}

// anonDeserializeUDF implements anon_deserialize[P](T, V*).
type anonDeserializeUDF struct{}

func (*anonDeserializeUDF) Name() string { return "anon_deserialize" }

func (*anonDeserializeUDF) CanEval(bound []bool) bool { return len(bound) >= 1 && bound[0] }

func (*anonDeserializeUDF) Eval(param string, args []datalog.Value, bound []bool) (bool, error) {
	_, ok := unpack(param, args[0].Bytes(), args[1:], bound[1:])
	return ok, nil
}
