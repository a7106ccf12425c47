// Package seccrypto provides the cryptographic substrate SecureBlox's
// security policies are built from: RSA-1024/SHA-1 signatures, HMAC-SHA1
// message authentication codes over pairwise shared secrets, AES-128-CTR
// symmetric encryption, and onion-layered circuit encryption for the
// anonymity policies — the same algorithms and key sizes as the paper's
// evaluation (§8: 128-bit shared secrets, 1024-bit RSA, SHA-1 digests).
package seccrypto

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"

	"secureblox/internal/par"
)

// RSABits is the paper's RSA key size.
const RSABits = 1024

// SecretLen is the paper's shared-secret length (128 bits).
const SecretLen = 16

// ErrBadCiphertext is returned when a ciphertext is too short to contain
// its IV.
var ErrBadCiphertext = errors.New("seccrypto: ciphertext shorter than IV")

// NewDeterministicRand returns a seeded randomness source for reproducible
// shared secrets and IVs in tests and benchmarks (RSA key generation is not
// reproducible over any reader, see NewTrustSetup). The reader is not safe
// for concurrent use; GenerateRSAKeys serialises its own reads of it. It must
// not be used in production.
func NewDeterministicRand(seed int64) io.Reader {
	return mrand.New(mrand.NewSource(seed))
}

// GenerateRSAKey generates a 1024-bit RSA keypair from the given randomness
// source (crypto/rand.Reader for real deployments).
func GenerateRSAKey(rng io.Reader) (*rsa.PrivateKey, error) {
	return rsa.GenerateKey(rng, RSABits)
}

// KeyGenError is GenerateRSAKeys' failure: which key, and why.
type KeyGenError struct {
	Index int
	Err   error
}

func (e *KeyGenError) Error() string { return fmt.Sprintf("rsa key %d: %v", e.Index, e.Err) }
func (e *KeyGenError) Unwrap() error { return e.Err }

// lockedReader lets concurrent key generators share one reader.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// GenerateRSAKeys generates n keypairs on every core (par.Do). Every byte of
// key material is read from rng, one Read at a time under a mutex, so the
// keys are as strong as the caller's source; which key gets which bytes
// depends on scheduling. A failure is a *KeyGenError for the lowest failing
// index, returned after every generator has exited.
func GenerateRSAKeys(n int, rng io.Reader) ([]*rsa.PrivateKey, error) {
	keys := make([]*rsa.PrivateKey, n)
	shared := &lockedReader{r: rng}
	err := par.Do(n, func(i int) error {
		k, err := GenerateRSAKey(shared)
		if err != nil {
			return &KeyGenError{Index: i, Err: err}
		}
		keys[i] = k
		return nil
	})
	return keys, err
}

// GenerateSecret produces a fresh 128-bit shared secret.
func GenerateSecret(rng io.Reader) ([]byte, error) {
	s := make([]byte, SecretLen)
	if _, err := io.ReadFull(rng, s); err != nil {
		return nil, err
	}
	return s, nil
}

// MarshalPrivateKey encodes an RSA private key as PKCS#1 DER, the byte form
// stored in the private_key[] singleton.
func MarshalPrivateKey(k *rsa.PrivateKey) []byte { return x509.MarshalPKCS1PrivateKey(k) }

// MarshalPublicKey encodes an RSA public key as PKCS#1 DER, the byte form
// stored in the public_key relation.
func MarshalPublicKey(k *rsa.PublicKey) []byte { return x509.MarshalPKCS1PublicKey(k) }

// ParsePrivateKey decodes a PKCS#1 DER private key.
func ParsePrivateKey(der []byte) (*rsa.PrivateKey, error) { return x509.ParsePKCS1PrivateKey(der) }

// ParsePublicKey decodes a PKCS#1 DER public key.
func ParsePublicKey(der []byte) (*rsa.PublicKey, error) { return x509.ParsePKCS1PublicKey(der) }

// SHA1 returns the SHA-1 digest of data.
func SHA1(data []byte) []byte {
	d := sha1.Sum(data)
	return d[:]
}

// RSASign signs the SHA-1 digest of data with PKCS#1 v1.5, as the paper
// describes ("RSA authentication signs a SHA-1 digest of the data with the
// private key of the sender"). Every invocation is counted in SignOps so
// the evaluation can report private-key operations per fixpoint.
func RSASign(priv *rsa.PrivateKey, data []byte) ([]byte, error) {
	cSignOps.Inc()
	digest := sha1.Sum(data)
	return rsa.SignPKCS1v15(nil, priv, crypto.SHA1, digest[:])
}

// RSAVerify checks an RSA signature over the SHA-1 digest of data. Every
// invocation is counted in sbx_rsa_verify_ops_total.
func RSAVerify(pub *rsa.PublicKey, data, sig []byte) bool {
	cVerifyOps.Inc()
	digest := sha1.Sum(data)
	return rsa.VerifyPKCS1v15(pub, crypto.SHA1, digest[:], sig) == nil
}

// HMACSign computes an HMAC-SHA1 tag (20 bytes) over data with a pairwise
// shared secret.
func HMACSign(secret, data []byte) []byte {
	m := hmac.New(sha1.New, secret)
	m.Write(data)
	return m.Sum(nil)
}

// HMACVerify checks an HMAC-SHA1 tag in constant time.
func HMACVerify(secret, data, tag []byte) bool {
	return hmac.Equal(HMACSign(secret, data), tag)
}

// AESEncrypt encrypts plaintext with AES-128-CTR under a 128-bit key,
// prepending the random IV.
func AESEncrypt(key, plaintext []byte, rng io.Reader) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, aes.BlockSize+len(plaintext))
	iv := out[:aes.BlockSize]
	if rng == nil {
		rng = rand.Reader
	}
	if _, err := io.ReadFull(rng, iv); err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:], plaintext)
	return out, nil
}

// AESEncryptDetIV encrypts with an IV derived from SHA-1(key || plaintext).
// Re-encrypting the same (key, plaintext) yields the same ciphertext, which
// keeps rule evaluation deterministic: a rule re-fired for the same binding
// derives the same export tuple instead of a duplicate. Reusing an IV for
// identical plaintext reveals only equality, which tuple identity reveals
// anyway.
func AESEncryptDetIV(key, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	h := sha1.New()
	h.Write(key)
	h.Write(plaintext)
	out := make([]byte, aes.BlockSize+len(plaintext))
	copy(out[:aes.BlockSize], h.Sum(nil)[:aes.BlockSize])
	cipher.NewCTR(block, out[:aes.BlockSize]).XORKeyStream(out[aes.BlockSize:], plaintext)
	return out, nil
}

// AESDecrypt reverses AESEncrypt.
func AESDecrypt(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize {
		return nil, ErrBadCiphertext
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ciphertext)-aes.BlockSize)
	cipher.NewCTR(block, ciphertext[:aes.BlockSize]).XORKeyStream(out, ciphertext[aes.BlockSize:])
	return out, nil
}

// OnionEncrypt applies encryption layers for keys in reverse order (the
// last key's layer is outermost is removed first by the first hop), as a
// Tor-style initiator does when sending along a circuit.
func OnionEncrypt(keys [][]byte, plaintext []byte, rng io.Reader) ([]byte, error) {
	ct := plaintext
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		ct, err = AESEncrypt(keys[i], ct, rng)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return ct, nil
}

// OnionPeel removes one layer with the given key.
func OnionPeel(key, ciphertext []byte) ([]byte, error) {
	return AESDecrypt(key, ciphertext)
}
