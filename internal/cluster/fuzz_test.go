package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseConfig: ParseConfig never panics, and a config it accepts
// survives a JSON round trip — marshalled and parsed again, it still
// validates and is the same config.
func FuzzParseConfig(f *testing.F) {
	for _, policy := range []string{"NoAuth", "HMAC-AES", "RSA-batch"} {
		data, err := json.Marshal(testConfig(f, policy))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"cluster": "hj", "policy": "NoAuth", "bootstrap_timeout": "30s", "on_failure": "evict",
		"workload": {"name": "hashjoin", "seed": 3, "size_a": 90, "size_b": 80, "join_values": 12},
		"nodes": [{"principal": "p0", "addr": "127.0.0.1:7411", "debug_addr": "127.0.0.1:8300"}, {"principal": "p1", "addr": "127.0.0.1:0"}]}`))
	f.Add([]byte(`{"cluster": "abc", "policy": "RSA", "workload": {"name": "pathvector", "seed": 5, "degree": 2.5},
		"nodes": [{"principal": "alice", "addr": "127.0.0.1:7504", "key_file": "ka.pem"}, {"principal": "bob", "addr": "[::1]:7505", "key_file": "kb.pem"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("an accepted config does not marshal: %v", err)
		}
		c2, err := ParseConfig(again)
		if err != nil {
			t.Fatalf("an accepted config is rejected after a JSON round trip: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("the JSON round trip changed the config:\n%+v\n%+v", c, c2)
		}
	})
}
