package seccrypto

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"sync"
)

// KeyStore holds one principal's key material: its RSA keypair, the public
// keys of its peers, pairwise shared secrets (for HMAC and AES), and
// per-circuit onion keys (for the anonymity policies). Parsed-key caches
// make the byte-addressed UDF interface cheap.
type KeyStore struct {
	Self string

	priv    *rsa.PrivateKey
	pubKeys map[string]*rsa.PublicKey // peer principal → public key
	secrets map[string][]byte         // peer principal → 128-bit secret

	circuitKeys map[string][]byte   // circuit handle → this node's layer key
	onionKeys   map[string][][]byte // circuit handle → full key list (initiator only)

	mu        sync.Mutex
	pubCache  map[string]*rsa.PublicKey  // DER → parsed
	privCache map[string]*rsa.PrivateKey // DER → parsed
}

// NewKeyStore returns an empty keystore for a principal.
func NewKeyStore(self string) *KeyStore {
	return &KeyStore{
		Self:        self,
		pubKeys:     make(map[string]*rsa.PublicKey),
		secrets:     make(map[string][]byte),
		circuitKeys: make(map[string][]byte),
		onionKeys:   make(map[string][][]byte),
		pubCache:    make(map[string]*rsa.PublicKey),
		privCache:   make(map[string]*rsa.PrivateKey),
	}
}

// SetPrivateKey installs this principal's RSA keypair.
func (ks *KeyStore) SetPrivateKey(k *rsa.PrivateKey) { ks.priv = k }

// PrivateKey returns this principal's RSA private key, or nil.
func (ks *KeyStore) PrivateKey() *rsa.PrivateKey { return ks.priv }

// PrivateKeyDER returns the PKCS#1 encoding of the private key for storage
// in the private_key[] singleton.
func (ks *KeyStore) PrivateKeyDER() []byte {
	if ks.priv == nil {
		return nil
	}
	return MarshalPrivateKey(ks.priv)
}

// AddPublicKey records a peer's public key.
func (ks *KeyStore) AddPublicKey(peer string, k *rsa.PublicKey) { ks.pubKeys[peer] = k }

// PublicKeyDER returns a peer's public key in PKCS#1 DER, or nil.
func (ks *KeyStore) PublicKeyDER(peer string) []byte {
	k, ok := ks.pubKeys[peer]
	if !ok {
		return nil
	}
	return MarshalPublicKey(k)
}

// SetSecret records a pairwise shared secret with a peer.
func (ks *KeyStore) SetSecret(peer string, secret []byte) { ks.secrets[peer] = secret }

// Secret returns the shared secret with a peer, or nil.
func (ks *KeyStore) Secret(peer string) []byte { return ks.secrets[peer] }

// SetCircuitKey records the onion-layer key this node shares with a
// circuit's initiator.
func (ks *KeyStore) SetCircuitKey(circuit string, key []byte) { ks.circuitKeys[circuit] = key }

// CircuitKey returns this node's layer key for a circuit, or nil.
func (ks *KeyStore) CircuitKey(circuit string) []byte { return ks.circuitKeys[circuit] }

// SetOnionKeys records, at a circuit's initiator, the full ordered list of
// layer keys shared with each hop (first hop's key first).
func (ks *KeyStore) SetOnionKeys(circuit string, keys [][]byte) { ks.onionKeys[circuit] = keys }

// OnionKeys returns the initiator's full layer-key list for a circuit.
func (ks *KeyStore) OnionKeys(circuit string) [][]byte { return ks.onionKeys[circuit] }

// ParsePub parses a DER public key with caching.
func (ks *KeyStore) ParsePub(der []byte) (*rsa.PublicKey, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if k, ok := ks.pubCache[string(der)]; ok {
		return k, nil
	}
	k, err := ParsePublicKey(der)
	if err != nil {
		return nil, err
	}
	ks.pubCache[string(der)] = k
	return k, nil
}

// ParsePriv parses a DER private key with caching.
func (ks *KeyStore) ParsePriv(der []byte) (*rsa.PrivateKey, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if k, ok := ks.privCache[string(der)]; ok {
		return k, nil
	}
	k, err := ParsePrivateKey(der)
	if err != nil {
		return nil, err
	}
	ks.privCache[string(der)] = k
	return k, nil
}

// TrustSetup generates correlated key material for a set of principals:
// one RSA keypair each, everyone's public keys distributed, and a distinct
// pairwise shared secret for every unordered pair. It stands in for the
// out-of-band key distribution the paper assumes.
type TrustSetup struct {
	Stores map[string]*KeyStore
}

// NewTrustSetup builds keystores for the given principals using rng. Over a
// seeded reader (NewDeterministicRand) the pairwise secrets are reproducible
// — they are drawn first, on the caller's goroutine — and the RSA keypairs
// are not: rsa.GenerateKey deliberately does not depend deterministically on
// the bytes it reads, and the keypairs are generated concurrently
// (GenerateRSAKeys) over rng behind a mutex, so two setups from equal seeds
// hold different keys and sign different bytes.
func NewTrustSetup(principals []string, rng io.Reader) (*TrustSetup, error) {
	return newTrustSetup(principals, rng, true)
}

// NewSecretSetup is NewTrustSetup without the RSA keypairs: keystores that
// hold only the pairwise shared secrets, for policies that never sign with a
// private key. RSA key generation is the bulk of a trust setup's cost.
func NewSecretSetup(principals []string, rng io.Reader) (*TrustSetup, error) {
	return newTrustSetup(principals, rng, false)
}

func newTrustSetup(principals []string, rng io.Reader, rsaKeys bool) (*TrustSetup, error) {
	ts := &TrustSetup{Stores: make(map[string]*KeyStore, len(principals))}
	for _, p := range principals {
		ts.Stores[p] = NewKeyStore(p)
	}
	// Secrets before keys: key generation leaves a seeded reader at an
	// unpredictable offset, so anything drawn after it is not reproducible.
	for i, p := range principals {
		for _, q := range principals[i+1:] {
			s, err := GenerateSecret(rng)
			if err != nil {
				return nil, err
			}
			ts.Stores[p].SetSecret(q, s)
			ts.Stores[q].SetSecret(p, s)
		}
	}
	if !rsaKeys {
		return ts, nil
	}
	keys, err := GenerateRSAKeys(len(principals), rng)
	if err != nil {
		var ke *KeyGenError
		if errors.As(err, &ke) {
			err = fmt.Errorf("keygen for %s: %w", principals[ke.Index], ke.Err)
		}
		return nil, err
	}
	for i, p := range principals {
		ts.Stores[p].SetPrivateKey(keys[i])
		for j, q := range principals {
			ts.Stores[p].AddPublicKey(q, &keys[j].PublicKey)
		}
	}
	return ts, nil
}
