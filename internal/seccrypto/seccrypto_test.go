package seccrypto

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestRSASignVerify(t *testing.T) {
	rng := NewDeterministicRand(1)
	key, err := GenerateRSAKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello secureblox")
	sig, err := RSASign(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != RSABits/8 {
		t.Errorf("RSA-1024 signature should be 128 bytes, got %d", len(sig))
	}
	if !RSAVerify(&key.PublicKey, data, sig) {
		t.Error("valid signature rejected")
	}
	if RSAVerify(&key.PublicKey, []byte("tampered"), sig) {
		t.Error("signature over different data accepted")
	}
	sig[0] ^= 0xff
	if RSAVerify(&key.PublicKey, data, sig) {
		t.Error("corrupted signature accepted")
	}
}

func TestRSAKeyMarshalRoundTrip(t *testing.T) {
	key, _ := GenerateRSAKey(NewDeterministicRand(2))
	priv2, err := ParsePrivateKey(MarshalPrivateKey(key))
	if err != nil {
		t.Fatal(err)
	}
	if priv2.D.Cmp(key.D) != 0 {
		t.Error("private key round trip changed D")
	}
	pub2, err := ParsePublicKey(MarshalPublicKey(&key.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	if pub2.N.Cmp(key.N) != 0 {
		t.Error("public key round trip changed N")
	}
}

func TestHMAC(t *testing.T) {
	secret, _ := GenerateSecret(NewDeterministicRand(3))
	if len(secret) != 16 {
		t.Fatalf("want 128-bit secret, got %d bytes", len(secret))
	}
	tag := HMACSign(secret, []byte("msg"))
	if len(tag) != 20 {
		t.Errorf("HMAC-SHA1 tag should be 20 bytes (the paper's overhead number), got %d", len(tag))
	}
	if !HMACVerify(secret, []byte("msg"), tag) {
		t.Error("valid tag rejected")
	}
	if HMACVerify(secret, []byte("other"), tag) {
		t.Error("tag over different message accepted")
	}
	other, _ := GenerateSecret(NewDeterministicRand(4))
	if HMACVerify(other, []byte("msg"), tag) {
		t.Error("tag with wrong secret accepted")
	}
}

func TestAESRoundTripQuick(t *testing.T) {
	rng := NewDeterministicRand(5)
	key, _ := GenerateSecret(rng)
	f := func(msg []byte) bool {
		ct, err := AESEncrypt(key, msg, rng)
		if err != nil {
			return false
		}
		pt, err := AESDecrypt(key, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAESWrongKeyGarbles(t *testing.T) {
	rng := NewDeterministicRand(6)
	k1, _ := GenerateSecret(rng)
	k2, _ := GenerateSecret(rng)
	ct, _ := AESEncrypt(k1, []byte("confidential advertisement"), rng)
	pt, err := AESDecrypt(k2, ct)
	if err == nil && bytes.Equal(pt, []byte("confidential advertisement")) {
		t.Error("wrong key decrypted to plaintext")
	}
	if _, err := AESDecrypt(k1, []byte("short")); err == nil {
		t.Error("truncated ciphertext should error")
	}
}

func TestOnionLayering(t *testing.T) {
	rng := NewDeterministicRand(7)
	var keys [][]byte
	for i := 0; i < 3; i++ {
		k, _ := GenerateSecret(rng)
		keys = append(keys, k)
	}
	msg := []byte("anonymous query")
	ct, err := OnionEncrypt(keys, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// peel in path order: hop 0 first
	for i := 0; i < 3; i++ {
		ct, err = OnionPeel(keys[i], ct)
		if err != nil {
			t.Fatalf("peel %d: %v", i, err)
		}
	}
	if !bytes.Equal(ct, msg) {
		t.Error("onion round trip failed")
	}
	// peeling out of order must not reveal the message early
	ct2, _ := OnionEncrypt(keys, msg, rng)
	mid, _ := OnionPeel(keys[1], ct2)
	if bytes.Equal(mid, msg) {
		t.Error("out-of-order peel revealed plaintext")
	}
}

func TestTrustSetupPairwiseSecrets(t *testing.T) {
	ts, err := NewTrustSetup([]string{"a", "b", "c"}, NewDeterministicRand(8))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := ts.Stores["a"], ts.Stores["b"]
	if !bytes.Equal(sa.Secret("b"), sb.Secret("a")) {
		t.Error("pairwise secret not shared symmetrically")
	}
	if bytes.Equal(sa.Secret("b"), sa.Secret("c")) {
		t.Error("distinct pairs must have distinct secrets")
	}
	// public key directory complete
	if sa.PublicKeyDER("c") == nil || !bytes.Equal(sa.PublicKeyDER("c"), sb.PublicKeyDER("c")) {
		t.Error("public key directory inconsistent")
	}
	// cross verification works
	sig, _ := RSASign(sb.PrivateKey(), []byte("x"))
	pub, err := sa.ParsePub(sa.PublicKeyDER("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !RSAVerify(pub, []byte("x"), sig) {
		t.Error("b's signature does not verify under a's directory")
	}
}

// TestSeededSetupReproducesSecrets pins what a seed reproduces: the pairwise
// secrets, identically with and without RSA keypairs beside them. The keypairs
// themselves are fresh on every call (rsa.GenerateKey's documented behaviour),
// which is why the secrets are drawn first.
func TestSeededSetupReproducesSecrets(t *testing.T) {
	ps := []string{"a", "b", "c"}
	setups := make([]*TrustSetup, 3)
	for i, mk := range []func([]string, io.Reader) (*TrustSetup, error){NewTrustSetup, NewTrustSetup, NewSecretSetup} {
		ts, err := mk(ps, NewDeterministicRand(5))
		if err != nil {
			t.Fatal(err)
		}
		setups[i] = ts
	}
	for i, p := range ps {
		for _, q := range ps[i+1:] {
			want := setups[0].Stores[p].Secret(q)
			for j, ts := range setups[1:] {
				if !bytes.Equal(ts.Stores[p].Secret(q), want) {
					t.Errorf("setup %d: secret(%s,%s) differs from the first setup's under the same seed", j+1, p, q)
				}
			}
		}
	}
	other, err := NewSecretSetup(ps, NewDeterministicRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.Stores["a"].Secret("b"), setups[0].Stores["a"].Secret("b")) {
		t.Error("a different seed produced the same secret")
	}
}

func TestSecretSetupHasSecretsAndNoKeys(t *testing.T) {
	ts, err := NewSecretSetup([]string{"a", "b", "c"}, NewDeterministicRand(8))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := ts.Stores["a"], ts.Stores["b"]
	if len(sa.Secret("b")) == 0 || !bytes.Equal(sa.Secret("b"), sb.Secret("a")) {
		t.Error("pairwise secret missing or not shared symmetrically")
	}
	if bytes.Equal(sa.Secret("b"), sa.Secret("c")) {
		t.Error("distinct pairs must have distinct secrets")
	}
	if sa.PrivateKey() != nil || sa.PrivateKeyDER() != nil || sa.PublicKeyDER("b") != nil {
		t.Error("a secret-only setup must hold no RSA key material")
	}
}

func TestKeyStoreParseCache(t *testing.T) {
	ks := NewKeyStore("a")
	key, _ := GenerateRSAKey(NewDeterministicRand(9))
	der := MarshalPublicKey(&key.PublicKey)
	p1, err := ks.ParsePub(der)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := ks.ParsePub(der)
	if p1 != p2 {
		t.Error("cache should return the identical parsed key")
	}
	if _, err := ks.ParsePub([]byte("junk")); err == nil {
		t.Error("junk key should not parse")
	}
}
