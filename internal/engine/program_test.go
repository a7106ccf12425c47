package engine_test

import (
	"runtime"
	"testing"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// TestBoundWorkspaceRetainedHeap: a workspace bound to a shared program keeps
// only what differs per node. For the RSA path-vector program each additional
// bound workspace retains 7.4 KB (linux/amd64, Go 1.24: relation headers,
// the intern table's copy of the constants, frame, UDF vectors), where
// installing a private copy retained 251.5 KB; the ceiling leaves room for
// the first, not for the second.
func TestBoundWorkspaceRetainedHeap(t *testing.T) {
	const n, ceiling = 24, 16 << 10
	res, err := core.CompileProgram(core.PolicyConfig{Auth: core.AuthRSA, Delegation: core.DelegateNone}, apps.PathVectorQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileEngine(res)
	if err != nil {
		t.Fatal(err)
	}
	// Each node's own registry over its own keystore, made before measuring.
	regs := make([]*engine.UDFRegistry, n)
	for i := range regs {
		if regs[i], err = udf.NewRegistry(seccrypto.NewKeyStore("p"), nil); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	ws := make([]*engine.Workspace, n)
	before := live()
	for i := range ws {
		ws[i] = engine.NewWorkspace(regs[i])
		if err := ws[i].Bind(prog); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(live()-before) / n
	runtime.KeepAlive(ws)
	t.Logf("%.1f KB retained per bound workspace", per/1024)
	if per > ceiling {
		t.Errorf("a bound workspace retains %.1f KB, want at most %d KB", per/1024, ceiling>>10)
	}
}
