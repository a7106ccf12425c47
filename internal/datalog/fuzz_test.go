package datalog

import (
	"runtime"
	"testing"
)

// FuzzParse: the lexer and parser never panic, what they allocate is bounded
// by the input's length, and a program that parses prints as source that
// parses back to the same program: Parse(p.String()).String() == p.String().
// The seed corpus (testdata/fuzz/FuzzParse) holds the three shipped
// workloads' queries and truncated and unbalanced variants of them.
func FuzzParse(f *testing.F) {
	f.Add(`reachable(X,Y) <- link(X,Y). reachable(X,Y) <- link(X,Z), reachable(Z,Y).`)
	f.Fuzz(func(t *testing.T, src string) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := Parse(src)
		runtime.ReadMemStats(&m1)
		if allocated, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(64<<10+1<<10*len(src)); allocated > bound {
			t.Fatalf("parsing %d bytes allocated %d, more than %d", len(src), allocated, bound)
		}
		if err != nil {
			return
		}
		printed := p.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n--- input ---\n%q\n--- printed ---\n%s", err, src, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("print/parse is not a fixed point\n--- printed ---\n%s\n--- reprinted ---\n%s", printed, reprinted)
		}
	})
}
