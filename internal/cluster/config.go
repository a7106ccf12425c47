package cluster

import (
	"crypto/rsa"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"secureblox/internal/seccrypto"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "30s".
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler in the string form UnmarshalJSON
// reads, so a config survives a JSON round trip.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// NodeConfig declares one cluster member. At most one of KeyFile and KeyPEM
// holds the node's RSA private key; which policies need one is core's to say
// (core.DeploymentPolicy).
type NodeConfig struct {
	// Principal is the node's identity (the value of self[]).
	Principal string `json:"principal"`
	// Addr is the node's listen address, host:port. Port 0 binds an
	// OS-assigned ephemeral port — allowed for every node but the seed,
	// whose configured address is what joiners dial.
	Addr string `json:"addr"`
	// KeyFile is the path of the node's PEM (PKCS#1) RSA private key.
	KeyFile string `json:"key_file,omitempty"`
	// KeyPEM is the key inline, for configs generated by test harnesses.
	KeyPEM string `json:"key_pem,omitempty"`
	// DebugAddr is the node's observability HTTP listen address
	// (host:port). Optional: empty disables the debug server unless the
	// process overrides it on the command line. `sbx top`/`sbx trace`
	// use these addresses to scrape a whole cluster from its config.
	DebugAddr string `json:"debug_addr,omitempty"`
}

// WorkloadConfig selects the rule set a deployment runs and its
// parameters.
type WorkloadConfig struct {
	// Name is the rule set: a row of apps.Workloads.
	Name string `json:"name"`
	// Seed drives the workload's deterministic input generation; every
	// process must agree on it.
	Seed int64 `json:"seed,omitempty"`
	// Degree is the random graph's average node degree (pathvector;
	// default 3).
	Degree float64 `json:"degree,omitempty"`
	// SizeA, SizeB and JoinValues parameterize hashjoin (defaults: the
	// paper's 900/800/72).
	SizeA      int `json:"size_a,omitempty"`
	SizeB      int `json:"size_b,omitempty"`
	JoinValues int `json:"join_values,omitempty"`
}

// Config is one declarative cluster deployment: the full expected
// membership, the security policy, the workload, and bootstrap parameters.
// Every process of the deployment loads the same config and is told which
// principal it runs as; the first node is the bootstrap seed.
type Config struct {
	// Cluster names the deployment; barrier and eviction records carry it
	// so two clusters sharing a network cannot cross-wire.
	Cluster string `json:"cluster"`
	// Policy is the security configuration by its figure label, e.g.
	// "NoAuth", "HMAC-AES", "RSA-batch"; core.ParsePolicyName reads it.
	Policy string `json:"policy"`
	// Workload is the rule set to run.
	Workload WorkloadConfig `json:"workload"`
	// ClusterSecret (hex) seeds pairwise shared-secret derivation; policies
	// using HMAC or AES need it, and the others refuse it
	// (core.DeploymentPolicy).
	ClusterSecret string `json:"cluster_secret,omitempty"`
	// BootstrapTimeout bounds the join handshake and ready barrier
	// (default 60s).
	BootstrapTimeout Duration `json:"bootstrap_timeout,omitempty"`
	// OnFailure selects what survivors do when a member stops answering
	// termination probes for the whole unresponsiveness budget: "abort"
	// (the default) surfaces the typed UnresponsiveError and exits, while
	// "evict" removes the dead member from the surviving nodes' membership
	// — gossiped as a CtrlEvict directory delta — and lets the run converge
	// on the surviving subset.
	OnFailure string `json:"on_failure,omitempty"`
	// Nodes is the full expected membership in deployment order. The first
	// entry is the seed.
	Nodes []NodeConfig `json:"nodes"`
}

// ParseConfig parses and validates a JSON cluster config.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("cluster: config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads and validates a config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: config: %w", err)
	}
	c, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Timeout returns the bootstrap timeout with its default applied.
func (c *Config) Timeout() time.Duration {
	if c.BootstrapTimeout <= 0 {
		return 60 * time.Second
	}
	return time.Duration(c.BootstrapTimeout)
}

// EvictOnFailure reports whether unresponsive members are evicted rather
// than aborting the run.
func (c *Config) EvictOnFailure() bool { return c.OnFailure == "evict" }

// NodeIndex returns the config position of a principal, or -1.
func (c *Config) NodeIndex(principal string) int {
	for i, n := range c.Nodes {
		if n.Principal == principal {
			return i
		}
	}
	return -1
}

// Seed returns the seed node's config entry (the first node).
func (c *Config) Seed() NodeConfig { return c.Nodes[0] }

// Secret returns the decoded cluster secret (nil when unset).
func (c *Config) Secret() []byte {
	if c.ClusterSecret == "" {
		return nil
	}
	b, _ := hex.DecodeString(c.ClusterSecret)
	return b
}

// validAddr checks a host:port listen address, optionally allowing port 0.
func validAddr(addr string, allowZero bool) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("unparseable address %q: %v", addr, err)
	}
	if host == "" {
		return fmt.Errorf("address %q has no host", addr)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("address %q has bad port %q", addr, port)
	}
	if p == 0 && !allowZero {
		return fmt.Errorf("address %q: the seed node needs a concrete port (joiners dial it)", addr)
	}
	return nil
}

// Validate checks the config's structure, returning a precise error for
// the first problem found: missing fields, duplicate principals,
// unparseable addresses, a node declaring two keys, or a secret that is not
// hex. Key files themselves are checked by LoadNodeKey — each process only
// holds its own key.
func (c *Config) Validate() error {
	if c.Cluster == "" {
		return fmt.Errorf("cluster: config: missing cluster name")
	}
	// Which names exist, and what key material a policy needs, are the
	// workload table's and core's to say (internal/apps and internal/core,
	// which this package cannot import); sbxnode checks both before it binds.
	if c.Workload.Name == "" {
		return fmt.Errorf("cluster: config: missing workload name")
	}
	if c.Workload.Degree < 0 {
		return fmt.Errorf("cluster: config: negative workload degree %v", c.Workload.Degree)
	}
	// Zero means "use the paper's default"; negative values are typos, not
	// requests for the default, and must not be silently corrected.
	if c.Workload.SizeA < 0 {
		return fmt.Errorf("cluster: config: negative workload size_a %d", c.Workload.SizeA)
	}
	if c.Workload.SizeB < 0 {
		return fmt.Errorf("cluster: config: negative workload size_b %d", c.Workload.SizeB)
	}
	if c.Workload.JoinValues < 0 {
		return fmt.Errorf("cluster: config: negative workload join_values %d", c.Workload.JoinValues)
	}
	switch c.OnFailure {
	case "", "abort", "evict":
	default:
		return fmt.Errorf("cluster: config: unknown on_failure %q (want abort or evict)", c.OnFailure)
	}
	if len(c.Nodes) < 1 {
		return fmt.Errorf("cluster: config: no nodes declared")
	}
	seen := make(map[string]bool, len(c.Nodes))
	addrs := make(map[string]string, len(c.Nodes))
	for i, n := range c.Nodes {
		if n.Principal == "" {
			return fmt.Errorf("cluster: config: node %d has no principal", i)
		}
		if seen[n.Principal] {
			return fmt.Errorf("cluster: config: duplicate principal %q", n.Principal)
		}
		seen[n.Principal] = true
		if err := validAddr(n.Addr, i != 0); err != nil {
			return fmt.Errorf("cluster: config: node %q: %v", n.Principal, err)
		}
		if prev, ok := addrs[n.Addr]; ok {
			return fmt.Errorf("cluster: config: nodes %q and %q share address %s", prev, n.Principal, n.Addr)
		}
		if !strings.HasSuffix(n.Addr, ":0") {
			addrs[n.Addr] = n.Principal
		}
		if n.DebugAddr != "" {
			if err := validAddr(n.DebugAddr, true); err != nil {
				return fmt.Errorf("cluster: config: node %q debug_addr: %v", n.Principal, err)
			}
			if prev, ok := addrs[n.DebugAddr]; ok {
				return fmt.Errorf("cluster: config: nodes %q and %q share address %s", prev, n.Principal, n.DebugAddr)
			}
			if !strings.HasSuffix(n.DebugAddr, ":0") {
				addrs[n.DebugAddr] = n.Principal
			}
		}
		if n.KeyFile != "" && n.KeyPEM != "" {
			return fmt.Errorf("cluster: config: node %q declares both key_file and key_pem", n.Principal)
		}
	}
	if _, err := hex.DecodeString(c.ClusterSecret); err != nil {
		return fmt.Errorf("cluster: config: cluster_secret is not hex: %v", err)
	}
	return nil
}

// DebugAddrs returns the observability HTTP addresses declared in the
// config, in node order, skipping nodes without one. The cluster
// collector (`sbx top`, `sbx trace`) scrapes these.
func (c *Config) DebugAddrs() []string {
	var out []string
	for _, n := range c.Nodes {
		if n.DebugAddr != "" {
			out = append(out, n.DebugAddr)
		}
	}
	return out
}

// LoadNodeKey loads one node's RSA private key from its config entry
// (file or inline PEM), with errors precise enough to diagnose a missing
// or corrupt key file. It returns nil for a node that declares no key.
func (c *Config) LoadNodeKey(principal string) (*rsa.PrivateKey, error) {
	i := c.NodeIndex(principal)
	if i < 0 {
		return nil, fmt.Errorf("cluster: config: no node named %q (have %s)", principal, strings.Join(c.Principals(), ", "))
	}
	n := c.Nodes[i]
	if n.KeyPEM != "" {
		k, err := seccrypto.ParsePrivateKeyPEM([]byte(n.KeyPEM))
		if err != nil {
			return nil, fmt.Errorf("cluster: config: node %q inline key: %w", principal, err)
		}
		return k, nil
	}
	if n.KeyFile == "" {
		return nil, nil
	}
	k, err := seccrypto.LoadPrivateKeyFile(n.KeyFile)
	if err != nil {
		return nil, fmt.Errorf("cluster: config: node %q: %w", principal, err)
	}
	return k, nil
}

// Principals lists the config's principals in deployment order.
func (c *Config) Principals() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Principal
	}
	return out
}

// buildKeyStore assembles one node's keystore from config-derived material:
// its own private key, if it declares one, and, if the config sets a cluster
// secret, the pairwise secrets derived from it. Peer public keys are
// installed later, from the directory the join handshake delivers.
func (c *Config) buildKeyStore(principal string, priv *rsa.PrivateKey) *seccrypto.KeyStore {
	ks := seccrypto.NewKeyStore(principal)
	if priv != nil {
		ks.SetPrivateKey(priv)
		ks.AddPublicKey(principal, &priv.PublicKey)
	}
	if secret := c.Secret(); secret != nil {
		for _, n := range c.Nodes {
			if n.Principal == principal {
				continue
			}
			ks.SetSecret(n.Principal, seccrypto.DerivePairSecret(secret, principal, n.Principal))
		}
	}
	return ks
}
