package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestChaosPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error; empty means valid
	}{
		{"minimal", `{}`, ""},
		{"full", `{
			"seed": 7,
			"links": [{"from": "*", "to": "p1", "drop": 0.2, "dup": 0.1, "garble": 0.05, "reorder": 0.1, "delay_ms": 5, "jitter_ms": 3}],
			"partitions": [{"a": ["p0"], "b": ["p1", "p2"], "at_ms": 100, "heal_ms": 400}],
			"crashes": [{"node": "p2", "at_ms": 200}, {"node": "p1", "at_ms": 50, "hang_ms": 100}]
		}`, ""},
		{"garbage", `{`, "chaos plan"},
		{"unknown field", `{"links": [{"from": "*", "to": "*", "dorp": 1}]}`, "dorp"},
		{"missing to", `{"links": [{"from": "p0"}]}`, "required"},
		{"probability above one", `{"links": [{"from": "*", "to": "*", "drop": 1.5}]}`, "[0,1]"},
		{"negative delay", `{"links": [{"from": "*", "to": "*", "delay_ms": -1}]}`, "negative delay"},
		{"one-sided partition", `{"partitions": [{"a": ["p0"], "b": [], "at_ms": 0}]}`, "both sides"},
		{"heal before cut", `{"partitions": [{"a": ["p0"], "b": ["p1"], "at_ms": 100, "heal_ms": 50}]}`, "after at_ms"},
		{"anonymous crash", `{"crashes": [{"at_ms": 5}]}`, "node is required"},
		{"negative crash time", `{"crashes": [{"node": "p0", "at_ms": -5}]}`, "negative time"},
	}
	for _, c := range cases {
		_, err := ParseChaosPlan([]byte(c.json))
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// drain collects every message currently deliverable on t's queue.
func drainFor(ep Transport, d time.Duration) []string {
	var got []string
	deadline := time.After(d)
	for {
		select {
		case m, ok := <-ep.Receive():
			if !ok {
				return got
			}
			got = append(got, string(m.Data))
		case <-deadline:
			return got
		}
	}
}

func TestChaosEngineIsInertUntilStart(t *testing.T) {
	plan, err := ParseChaosPlan([]byte(`{"links": [{"from": "*", "to": "*", "drop": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewChaosEngine(plan)
	net := NewMemNetwork()
	a := eng.Wrap(net.Endpoint("a:1"))
	b := net.Endpoint("b:1")
	if err := a.Send("b:1", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, 200*time.Millisecond); len(got) != 1 || got[0] != "pre" {
		t.Fatalf("before Start traffic must pass untouched, got %v", got)
	}
	eng.Start()
	if err := a.Send("b:1", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, 100*time.Millisecond); len(got) != 0 {
		t.Fatalf("drop=1 link delivered %v after Start", got)
	}
}

func TestChaosPartitionCutsAndHeals(t *testing.T) {
	plan, err := ParseChaosPlan([]byte(`{"partitions": [{"a": ["p0"], "b": ["p1"], "at_ms": 0, "heal_ms": 150}]}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewChaosEngine(plan)
	net := NewMemNetwork()
	a := eng.Wrap(net.Endpoint("a:1"))
	b := net.Endpoint("b:1")
	c := net.Endpoint("c:1")
	eng.Resolve(map[string]string{"a:1": "p0", "b:1": "p1", "c:1": "p2"})
	eng.Start()
	if err := a.Send("b:1", []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("c:1", []byte("side")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned link delivered %v", got)
	}
	if got := drainFor(c, time.Second); len(got) != 1 || got[0] != "side" {
		t.Fatalf("node outside the partition got %v", got)
	}
	time.Sleep(200 * time.Millisecond) // past heal_ms
	if err := a.Send("b:1", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, time.Second); len(got) != 1 || got[0] != "healed" {
		t.Fatalf("healed link got %v", got)
	}
}

func TestChaosCrashAndHangWindows(t *testing.T) {
	plan, err := ParseChaosPlan([]byte(`{"crashes": [
		{"node": "p1", "at_ms": 0, "hang_ms": 150},
		{"node": "p2", "at_ms": 0}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewChaosEngine(plan)
	net := NewMemNetwork()
	a := eng.Wrap(net.Endpoint("a:1"))
	b := net.Endpoint("b:1")
	c := net.Endpoint("c:1")
	eng.Resolve(map[string]string{"a:1": "p0", "b:1": "p1", "c:1": "p2"})
	eng.Start()
	if err := a.Send("b:1", []byte("hung")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("c:1", []byte("dead")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("hung node received %v", got)
	}
	time.Sleep(150 * time.Millisecond) // hang window over
	if err := a.Send("b:1", []byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(b, time.Second); len(got) != 1 || got[0] != "resumed" {
		t.Fatalf("node past its hang window got %v", got)
	}
	if err := a.Send("c:1", []byte("still dead")); err != nil {
		t.Fatal(err)
	}
	if got := drainFor(c, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("permanently crashed node received %v", got)
	}
	if at, hang, ok := eng.CrashAt("p2"); !ok || at != 0 || hang != 0 {
		t.Errorf("CrashAt(p2) = %v %v %v", at, hang, ok)
	}
	if _, _, ok := eng.CrashAt("p0"); ok {
		t.Error("CrashAt(p0) found a schedule entry for an unscheduled node")
	}
}

func TestChaosLinkFaultsAreSeedDeterministic(t *testing.T) {
	const planJSON = `{"seed": 99, "links": [{"from": "p0", "to": "p1", "drop": 0.5}]}`
	run := func() []bool {
		plan, err := ParseChaosPlan([]byte(planJSON))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewChaosEngine(plan)
		net := NewMemNetwork()
		a := eng.Wrap(net.Endpoint("a:1"))
		b := net.Endpoint("b:1")
		eng.Resolve(map[string]string{"a:1": "p0", "b:1": "p1"})
		eng.Start()
		var pattern []bool
		for i := 0; i < 64; i++ {
			if err := a.Send("b:1", []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Fatal(err)
			}
			got := drainFor(b, 20*time.Millisecond)
			pattern = append(pattern, len(got) > 0)
		}
		return pattern
	}
	p1, p2 := run(), run()
	drops := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("fault pattern diverged at send %d despite identical seeds", i)
		}
		if !p1[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(p1) {
		t.Errorf("drop=0.5 produced %d/%d drops; rule apparently not applied", drops, len(p1))
	}
}

func TestReliableDeliversOverChaos(t *testing.T) {
	// The reliable layer over a chaotic link (drops, dups, garbling, delay,
	// reorder) must still deliver everything exactly once — chaos becomes
	// latency, exactly like the real faults it scripts.
	plan, err := ParseChaosPlan([]byte(`{
		"seed": 1,
		"links": [{"from": "*", "to": "*", "drop": 0.3, "dup": 0.2, "garble": 0.1, "reorder": 0.2, "delay_ms": 1, "jitter_ms": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewChaosEngine(plan)
	eng.Start()
	net := NewMemNetwork()
	a := reliableOver(eng.Wrap(net.Endpoint("a:1")))
	b := reliableOver(eng.Wrap(net.Endpoint("b:1")))
	defer a.Close()
	defer b.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("b:1", []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int{}
	deadline := time.After(30 * time.Second)
	for len(got) < n {
		select {
		case m := <-b.Receive():
			got[string(m.Data)]++
		case <-deadline:
			t.Fatalf("only %d/%d messages through the chaos link", len(got), n)
		}
	}
	for msg, cnt := range got {
		if cnt != 1 {
			t.Errorf("%s delivered %d times", msg, cnt)
		}
	}
}
