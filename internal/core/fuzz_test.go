package core

import "testing"

// FuzzParsePolicyName: ParsePolicyName never panics, and every label it
// accepts is the name of the configuration it returns.
func FuzzParsePolicyName(f *testing.F) {
	for _, name := range []string{"NoAuth", "NoAuth-AES", "HMAC", "HMAC-AES", "RSA", "RSA-AES", "RSA-batch", "RSA-batch-AES",
		"", "rsa", "RSAA", "HMAC-batch", "RSA-AES-batch", "RSA-batch-batch", "-AES"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicyName(name)
		if err != nil {
			return
		}
		if got := p.Name(); got != name {
			t.Fatalf("ParsePolicyName(%q).Name() = %q", name, got)
		}
	})
}
