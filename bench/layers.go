package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/udf"
	"secureblox/internal/wire"
)

// A probe measures one layer through its public functions, independent of
// the workload being run. Every probe does probeBatches batches of a fixed
// number of operations and yields one value per batch; the report is their
// median. Iteration counts are fixed so a probe does the same work on both
// sides of a comparison; they are sized so all probes together take about
// ten seconds on a 2-core host.
type probe struct {
	Metric
	run func(seed int64) ([]float64, error)
}

const probeBatches = 5

// perBatch runs op iters times per batch and returns, per batch, the mean
// of the durations op reports, in the given unit. op times itself so that
// fixture construction stays out of the measurement.
func perBatch(iters int, unit time.Duration, op func(batch int) (time.Duration, error)) ([]float64, error) {
	out := make([]float64, probeBatches)
	for b := range out {
		var total time.Duration
		for i := 0; i < iters; i++ {
			d, err := op(b)
			if err != nil {
				return nil, err
			}
			total += d
		}
		out[b] = float64(total.Nanoseconds()) / float64(unit.Nanoseconds()) / float64(iters)
	}
	return out, nil
}

// wholeBatch times iters calls of f as one interval per batch and returns
// the mean per call: for operations with no fixture to exclude, some too
// short to time one by one.
func wholeBatch(iters int, unit time.Duration, f func() error) ([]float64, error) {
	out := make([]float64, probeBatches)
	for b := range out {
		t := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return nil, err
			}
		}
		out[b] = float64(time.Since(t).Nanoseconds()) / float64(unit.Nanoseconds()) / float64(iters)
	}
	return out, nil
}

// sink keeps the results of otherwise unused pure calls alive.
var sink []byte

var rsaPolicy = core.PolicyConfig{Auth: core.AuthRSA, Delegation: core.DelegateNone}

// closureWorkspace builds the recursive-closure fixture the incremental
// assert and retract probes mutate.
func closureWorkspace() (*engine.Workspace, []engine.Fact, error) {
	prog, err := datalog.Parse(engine.BenchClosureSrc)
	if err != nil {
		return nil, nil, err
	}
	facts, want := engine.BenchClosureInput(250, 1000, 7)
	w := engine.NewWorkspace(nil)
	if err := w.Install(prog); err != nil {
		return nil, nil, err
	}
	if _, err := w.Assert(facts); err != nil {
		return nil, nil, err
	}
	if got := w.Count("reachable"); got != want {
		return nil, nil, fmt.Errorf("closure size %d, want %d", got, want)
	}
	return w, facts, nil
}

// signPipeline is the sign→serialize rule pipeline of
// BenchmarkAblationSigningBatchSize: 64 said tuples asserted in batches of
// the given size, each RSA-signed and packed by rules.
func signPipeline(batch int) func(int) (time.Duration, error) {
	const tuples = 64
	return func(int) (time.Duration, error) {
		ts, err := seccrypto.NewTrustSetup([]string{"a"}, seccrypto.NewDeterministicRand(1))
		if err != nil {
			return 0, err
		}
		ks := ts.Stores["a"]
		prog, err := datalog.Parse(`
			sig(V1, S) <- outgoing(V1), private_key[]=K, rsa_sign['m](K, V1, S).
			packed(T) <- outgoing(V1), sig(V1, S), serialize['m](S, T, V1).
		`)
		if err != nil {
			return 0, err
		}
		reg, err := udf.NewRegistry(ks, seccrypto.NewDeterministicRand(2))
		if err != nil {
			return 0, err
		}
		w := engine.NewWorkspace(reg)
		if err := w.Install(prog); err != nil {
			return 0, err
		}
		if _, err := w.Assert([]engine.Fact{{Pred: "private_key",
			Tuple: datalog.Tuple{datalog.BytesV(ks.PrivateKeyDER())}}}); err != nil {
			return 0, err
		}
		t := time.Now()
		for start := 0; start < tuples; start += batch {
			var facts []engine.Fact
			for j := start; j < start+batch && j < tuples; j++ {
				facts = append(facts, engine.Fact{Pred: "outgoing", Tuple: datalog.Tuple{datalog.Int64(int64(j))}})
			}
			if _, err := w.Assert(facts); err != nil {
				return 0, err
			}
		}
		d := time.Since(t)
		if got := w.Count("packed"); got != tuples {
			return 0, fmt.Errorf("sign pipeline packed %d tuples, want %d", got, tuples)
		}
		return d, nil
	}
}

// pathPayload is the 4-value path tuple with a 128-byte (RSA-1024)
// signature the wire probes encode.
func pathPayload() wire.Payload {
	return wire.Payload{
		Pred: "path",
		Sig:  make([]byte, 128),
		Vals: datalog.Tuple{
			datalog.Entity("pathvar", 12345),
			datalog.NodeV("10.0.0.1:7000"), datalog.NodeV("10.0.0.2:7000"),
			datalog.Int64(3),
		},
	}
}

func pathMessage() wire.Message {
	enc := wire.EncodePayload(pathPayload())
	m := wire.Message{From: "10.0.0.1:7000", Trace: 1, Hop: 1}
	for i := 0; i < 32; i++ {
		m.Payloads = append(m.Payloads, enc)
	}
	return m
}

// flood sends msgs datagrams of size bytes from one endpoint of a fresh
// network to another and returns how long it took until the last one was
// received. The receiving goroutine ends when it has counted them all or
// when closing the network closes its channel; flood waits for it.
func flood(net transport.Network, msgs, size int) (time.Duration, error) {
	a, err := net.Listen(core.NodeAddr(0))
	if err != nil {
		net.Close()
		return 0, err
	}
	b, err := net.Listen(core.NodeAddr(1))
	if err != nil {
		net.Close()
		return 0, err
	}
	got := make(chan int, 1)
	go func() {
		n := 0
		for n < msgs {
			if _, ok := <-b.Receive(); !ok {
				break
			}
			n++
		}
		got <- n
	}()
	payload := make([]byte, size)
	t := time.Now()
	var sendErr error
	for i := 0; i < msgs && sendErr == nil; i++ {
		sendErr = a.Send(b.Addr(), payload)
	}
	var d time.Duration
	n := -1
	if sendErr == nil {
		select {
		case n = <-got:
			d = time.Since(t)
		case <-time.After(repDeadline):
		}
	}
	net.Close()
	if n < 0 {
		n = <-got
	}
	switch {
	case sendErr != nil:
		return 0, sendErr
	case n != msgs:
		return 0, fmt.Errorf("received %d of %d datagrams", n, msgs)
	}
	return d, nil
}

// pingPong measures the median round trip of a 64-byte datagram between
// two reliable UDP endpoints, one echoing the other.
func pingPong(trips int) (time.Duration, error) {
	net := transport.NewUDPNetwork()
	a, err := net.Listen(core.NodeAddr(0))
	if err != nil {
		net.Close()
		return 0, err
	}
	b, err := net.Listen(core.NodeAddr(1))
	if err != nil {
		net.Close()
		return 0, err
	}
	echoed := make(chan struct{})
	go func() { // ends when net.Close closes b's channel
		defer close(echoed)
		for m := range b.Receive() {
			if b.Send(a.Addr(), m.Data) != nil {
				return
			}
		}
	}()
	defer func() {
		net.Close()
		<-echoed
	}()
	payload := make([]byte, 64)
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		t := time.Now()
		if err := a.Send(b.Addr(), payload); err != nil {
			return 0, err
		}
		select {
		case _, ok := <-a.Receive():
			if !ok {
				return 0, transport.ErrClosed
			}
		case <-time.After(repDeadline):
			return 0, fmt.Errorf("no echo after %v", repDeadline)
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds()))
	}
	return time.Duration(quantileOf(rtts, 0.5)), nil
}

// layerProbes lists the workload-independent per-layer metrics in report
// order. Sizes follow the repository's own micro-benchmarks where one
// exists (bench_test.go), so the numbers can be cross-checked.
var layerProbes = []probe{
	{Metric{Name: "datalog.parse_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		return wholeBatch(100, time.Microsecond, func() error {
			_, err := datalog.Parse(apps.PathVectorQuery)
			return err
		})
	}},
	{Metric{Name: "generics.compile_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		return wholeBatch(3, time.Millisecond, func() error {
			_, err := core.CompileProgram(rsaPolicy, apps.PathVectorQuery, nil)
			return err
		})
	}},
	{Metric{Name: "engine.install_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		res, err := core.CompileProgram(rsaPolicy, apps.PathVectorQuery, nil)
		if err != nil {
			return nil, err
		}
		ts, err := seccrypto.NewTrustSetup([]string{"a"}, seccrypto.NewDeterministicRand(1))
		if err != nil {
			return nil, err
		}
		return perBatch(5, time.Millisecond, func(int) (time.Duration, error) {
			reg, err := udf.NewRegistry(ts.Stores["a"], seccrypto.NewDeterministicRand(2))
			if err != nil {
				return 0, err
			}
			w := engine.NewWorkspace(reg)
			t := time.Now()
			err = w.Install(res.Program)
			return time.Since(t), err
		})
	}},
	{Metric{Name: "engine.closure_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		return wholeBatch(1, time.Millisecond, func() error {
			_, _, err := closureWorkspace()
			return err
		})
	}},
	{Metric{Name: "engine.multijoin_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		prog, err := datalog.Parse(engine.BenchMultijoinSrc)
		if err != nil {
			return nil, err
		}
		facts := engine.BenchMultijoinInput(600, 400, 7)
		return wholeBatch(3, time.Millisecond, func() error {
			w := engine.NewWorkspace(nil)
			if err := w.Install(prog); err != nil {
				return err
			}
			if _, err := w.Assert(facts); err != nil {
				return err
			}
			if w.Count("q") == 0 {
				return fmt.Errorf("empty join result")
			}
			return nil
		})
	}},
	{Metric{Name: "engine.incr_assert_us", Unit: "us", Better: "lower"}, func(seed int64) ([]float64, error) {
		// One new edge per transaction into a built closure: the
		// path-vector pattern of many tiny deltas against a large database.
		w, _, err := closureWorkspace()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return perBatch(20, time.Microsecond, func(int) (time.Duration, error) {
			var edge datalog.Tuple
			for edge == nil || w.Contains("link", edge) {
				edge = datalog.Tuple{datalog.Int64(int64(rng.Intn(250))), datalog.Int64(int64(rng.Intn(250)))}
			}
			t := time.Now()
			_, err := w.Assert([]engine.Fact{{Pred: "link", Tuple: edge}})
			return time.Since(t), err
		})
	}},
	{Metric{Name: "engine.retract_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		// The delete path no workload exercises: ten base links per
		// retraction, each batch a different ten.
		w, facts, err := closureWorkspace()
		if err != nil {
			return nil, err
		}
		return perBatch(1, time.Millisecond, func(b int) (time.Duration, error) {
			t := time.Now()
			err := w.Retract(facts[b*10 : b*10+10])
			return time.Since(t), err
		})
	}},
	{Metric{Name: "seccrypto.keygen_ms", Unit: "ms", Better: "lower"}, func(seed int64) ([]float64, error) {
		rng := seccrypto.NewDeterministicRand(seed)
		return wholeBatch(4, time.Millisecond, func() error {
			_, err := seccrypto.GenerateRSAKey(rng)
			return err
		})
	}},
	{Metric{Name: "seccrypto.rsa_sign_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		key, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(1))
		if err != nil {
			return nil, err
		}
		data := make([]byte, 64)
		return wholeBatch(100, time.Microsecond, func() error {
			_, err := seccrypto.RSASign(key, data)
			return err
		})
	}},
	{Metric{Name: "seccrypto.rsa_verify_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		key, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(1))
		if err != nil {
			return nil, err
		}
		data := make([]byte, 64)
		sig, err := seccrypto.RSASign(key, data)
		if err != nil {
			return nil, err
		}
		return wholeBatch(1000, time.Microsecond, func() error {
			if !seccrypto.RSAVerify(&key.PublicKey, data, sig) {
				return fmt.Errorf("rsa verify rejected a good signature")
			}
			return nil
		})
	}},
	{Metric{Name: "seccrypto.hmac_sign_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		secret, err := seccrypto.GenerateSecret(seccrypto.NewDeterministicRand(2))
		if err != nil {
			return nil, err
		}
		data := make([]byte, 64)
		return wholeBatch(20000, time.Microsecond, func() error {
			sink = seccrypto.HMACSign(secret, data)
			return nil
		})
	}},
	{Metric{Name: "seccrypto.aes_encrypt_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		secret, err := seccrypto.GenerateSecret(seccrypto.NewDeterministicRand(2))
		if err != nil {
			return nil, err
		}
		data := make([]byte, 64)
		return wholeBatch(20000, time.Microsecond, func() error {
			_, err := seccrypto.AESEncryptDetIV(secret, data)
			return err
		})
	}},
	{Metric{Name: "seccrypto.aes_decrypt_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		secret, err := seccrypto.GenerateSecret(seccrypto.NewDeterministicRand(2))
		if err != nil {
			return nil, err
		}
		ct, err := seccrypto.AESEncryptDetIV(secret, make([]byte, 64))
		if err != nil {
			return nil, err
		}
		return wholeBatch(20000, time.Microsecond, func() error {
			_, err := seccrypto.AESDecrypt(secret, ct)
			return err
		})
	}},
	{Metric{Name: "udf.sign64_batch1_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		return perBatch(1, time.Millisecond, signPipeline(1))
	}},
	{Metric{Name: "udf.sign64_batch64_ms", Unit: "ms", Better: "lower"}, func(int64) ([]float64, error) {
		return perBatch(1, time.Millisecond, signPipeline(64))
	}},
	{Metric{Name: "wire.encode_payload_ns", Unit: "ns", Better: "lower"}, func(int64) ([]float64, error) {
		p := pathPayload()
		return wholeBatch(50000, time.Nanosecond, func() error {
			sink = wire.EncodePayload(p)
			return nil
		})
	}},
	{Metric{Name: "wire.decode_payload_ns", Unit: "ns", Better: "lower"}, func(int64) ([]float64, error) {
		enc := wire.EncodePayload(pathPayload())
		return wholeBatch(50000, time.Nanosecond, func() error {
			_, err := wire.DecodePayload(enc)
			return err
		})
	}},
	{Metric{Name: "wire.encode_message_ns", Unit: "ns", Better: "lower"}, func(int64) ([]float64, error) {
		m := pathMessage()
		return wholeBatch(5000, time.Nanosecond, func() error {
			sink = wire.EncodeMessage(m)
			return nil
		})
	}},
	{Metric{Name: "wire.decode_message_ns", Unit: "ns", Better: "lower"}, func(int64) ([]float64, error) {
		enc := wire.EncodeMessage(pathMessage())
		return wholeBatch(5000, time.Nanosecond, func() error {
			_, err := wire.DecodeMessage(enc)
			return err
		})
	}},
	{Metric{Name: "wire.batch_digest_ns", Unit: "ns", Better: "lower"}, func(int64) ([]float64, error) {
		m := pathMessage()
		return wholeBatch(5000, time.Nanosecond, func() error {
			sink = wire.BatchDigest(m.Payloads)
			return nil
		})
	}},
	{Metric{Name: "wire.bytes_per_payload", Unit: "B", Better: "lower"}, func(int64) ([]float64, error) {
		// An exact count: every batch reads the same.
		out := make([]float64, probeBatches)
		for i := range out {
			out[i] = float64(len(wire.EncodePayload(pathPayload())))
		}
		return out, nil
	}},
	{Metric{Name: "transport.mem_msgs_per_s", Unit: "1/s", Better: "higher"}, func(int64) ([]float64, error) {
		return floodRate(func() transport.Network { return transport.NewMemNetwork() }, 20000, 256, 1)
	}},
	{Metric{Name: "transport.udp_small_msgs_per_s", Unit: "1/s", Better: "higher"}, func(int64) ([]float64, error) {
		return floodRate(func() transport.Network { return transport.NewUDPNetwork() }, 4000, 256, 1)
	}},
	{Metric{Name: "transport.udp_large_mb_per_s", Unit: "MB/s", Better: "higher"}, func(int64) ([]float64, error) {
		const frame = 48 << 10
		return floodRate(func() transport.Network { return transport.NewUDPNetwork() }, 64, frame, float64(frame)/1e6)
	}},
	{Metric{Name: "transport.udp_rtt_us", Unit: "us", Better: "lower"}, func(int64) ([]float64, error) {
		return perBatch(1, time.Microsecond, func(int) (time.Duration, error) { return pingPong(200) })
	}},
	{Metric{Name: "dist.detect_idle_ms", Unit: "ms", Better: "lower"}, func(seed int64) ([]float64, error) {
		// The detector's floor: a started 24-node memnet cluster with
		// nothing asserted, asked to prove quiescence.
		c, err := core.NewCluster(core.ClusterConfig{
			N: 24, Policy: core.PolicyConfig{Delegation: core.DelegateNone}, Query: apps.PathVectorQuery, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		defer c.Stop()
		c.Start()
		return perBatch(1, time.Millisecond, func(int) (time.Duration, error) {
			ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
			defer cancel()
			t := time.Now()
			_, err := c.WaitFixpointCtx(ctx)
			return time.Since(t), err
		})
	}},
}

// floodRate reports, per batch, msgs datagrams over the flood's duration,
// scaled (1 for datagrams per second, MB per datagram for MB/s).
func floodRate(newNet func() transport.Network, msgs, size int, scale float64) ([]float64, error) {
	out := make([]float64, probeBatches)
	for b := range out {
		d, err := flood(newNet(), msgs, size)
		if err != nil {
			return nil, err
		}
		out[b] = float64(msgs) * scale / d.Seconds()
	}
	return out, nil
}

// runLayerProbes runs every probe under the recorder, one span each under
// a "layers" root, and returns the summaries by metric name. A probe that
// fails is reported and leaves its metric without a sample, which makes
// the run incorrect.
func runLayerProbes(rec *Recorder, trace int, seed int64) map[string]Summary {
	out := map[string]Summary{}
	root := rec.Begin(trace, -1, "layers")
	defer rec.End(root)
	for _, p := range layerProbes {
		id := rec.Begin(trace, root, p.Name)
		values, err := p.run(seed)
		rec.End(id)
		if err != nil {
			fmt.Printf("FAILED layer probe %s (workload seed %d): %v\n", p.Name, seed, err)
			continue
		}
		out[p.Name] = summarize(p.Unit, values)
	}
	return out
}
