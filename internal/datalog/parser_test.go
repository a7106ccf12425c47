package datalog

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return prog
}

func TestParseTransitiveClosure(t *testing.T) {
	prog := mustParse(t, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	if len(prog.Rules) != 2 {
		t.Fatalf("want 2 rules, got %d", len(prog.Rules))
	}
	r := prog.Rules[1]
	if len(r.Body) != 2 {
		t.Fatalf("want 2 body literals, got %d", len(r.Body))
	}
	if r.Heads[0].Pred != "reachable" || len(r.Heads[0].Args) != 2 {
		t.Errorf("bad head: %s", r.Heads[0])
	}
}

func TestParseConstraintAndTypeDecl(t *testing.T) {
	prog := mustParse(t, `
		link(N1,N2) -> node(N1), node(N2).
		pathvar(P) -> .
		path[P,Src,Dst]=C -> pathvar(P), node(Src), node(Dst), int[32](C).
	`)
	if len(prog.Constraints) != 3 {
		t.Fatalf("want 3 constraints, got %d", len(prog.Constraints))
	}
	if len(prog.Constraints[1].Rhs) != 0 {
		t.Errorf("entity decl should have empty RHS")
	}
	pc := prog.Constraints[2]
	lhs := pc.Lhs[0].Atom
	if !lhs.Functional() || lhs.KeyArity != 3 || len(lhs.Args) != 4 {
		t.Errorf("functional decl parsed wrong: %+v", lhs)
	}
	if pc.Rhs[3].Atom.Pred != "int" {
		t.Errorf("int[32] width annotation not handled: %s", pc.Rhs[3])
	}
}

func TestParseParameterizedAtom(t *testing.T) {
	prog := mustParse(t, `
		reachable(X,Y) <- link(X,Z), says['reachable](Z, self[], Z, Y).
	`)
	lit := prog.Rules[0].Body[1]
	a := lit.Atom
	if a.Pred != "says" || a.Param != "reachable" {
		t.Fatalf("param atom parsed wrong: %+v", a)
	}
	if a.ConcreteName() != "says$reachable" {
		t.Errorf("concrete name: %s", a.ConcreteName())
	}
	if _, ok := a.Args[1].(FuncApp); !ok {
		t.Errorf("self[] should parse as FuncApp, got %T", a.Args[1])
	}
}

func TestParseFunctionalAtomsAndSingleton(t *testing.T) {
	prog := mustParse(t, `
		p2(N, X) <- p(X), x1node[X]=N.
		private_key[]=K <- key_source(K).
		best[]="a".
	`)
	body := prog.Rules[0].Body[1]
	if body.Atom.KeyArity != 1 {
		t.Errorf("x1node[X]=N should be functional arity-1: %+v", body.Atom)
	}
	if prog.Rules[1].Heads[0].KeyArity != 0 {
		t.Errorf("singleton head should have KeyArity 0")
	}
	if prog.Facts[0].KeyArity != 0 || prog.Facts[0].Args[0].(Const).Val.Str != "a" {
		t.Errorf("singleton fact parsed wrong: %+v", prog.Facts[0])
	}
}

func TestParseAggregation(t *testing.T) {
	prog := mustParse(t, `
		bestcost[Me, N]=C <- agg<< C=min(Cx) >> path2[Me, N]=Cx.
	`)
	r := prog.Rules[0]
	if r.Agg == nil || r.Agg.Func != "min" || r.Agg.Result != "C" || r.Agg.Over != "Cx" {
		t.Fatalf("agg spec parsed wrong: %+v", r.Agg)
	}
}

func TestParsePathVectorAdvertiseRule(t *testing.T) {
	prog := mustParse(t, `
		says['path](self[], U, P, N, N2, C + 1),
		says['pathlink](self[], U, P, H1, H2)
		 <- pathlink[P, H1]=H2, link(Me, N), path[P, Me, N2]=C,
		    bestcost[Me, N2]=C,
		    principal_node[U]=N,
		    principal_node[self[]]=Me,
		    N != N2, !pathlink2(P, N).
	`)
	r := prog.Rules[0]
	if len(r.Heads) != 2 {
		t.Fatalf("want 2 heads, got %d", len(r.Heads))
	}
	if _, ok := r.Heads[0].Args[5].(BinExpr); !ok {
		t.Errorf("C + 1 should parse as BinExpr, got %T", r.Heads[0].Args[5])
	}
	last := r.Body[len(r.Body)-1]
	if last.Kind != LitNeg {
		t.Errorf("negation parsed wrong: %s", last)
	}
	cmp := r.Body[len(r.Body)-2]
	if cmp.Kind != LitCmp || cmp.Op != "!=" {
		t.Errorf("comparison parsed wrong: %s", cmp)
	}
	// principal_node[self[]]=Me: functional atom with FuncApp key
	fa := r.Body[5].Atom
	if fa.Pred != "principal_node" || fa.KeyArity != 1 {
		t.Fatalf("expected principal_node functional atom, got %s", fa)
	}
	if _, ok := fa.Args[0].(FuncApp); !ok {
		t.Errorf("self[] key should be FuncApp, got %T", fa.Args[0])
	}
}

func TestParseFactsAndLiterals(t *testing.T) {
	prog := mustParse(t, `
		link(1, 2).
		secret(#alice, "k").
		owner('publicdata, #"bob cat").
		loc(@"127.0.0.1:7001").
		flag(true), other(false).
	`)
	if len(prog.Facts) != 6 {
		t.Fatalf("want 6 facts, got %d", len(prog.Facts))
	}
	if prog.Facts[1].Args[0].(Const).Val.Kind != KindPrin {
		t.Errorf("principal literal kind wrong")
	}
	if prog.Facts[2].Args[0].(Const).Val.Kind != KindName {
		t.Errorf("quoted name kind wrong")
	}
	if prog.Facts[3].Args[0].(Const).Val.Kind != KindNode {
		t.Errorf("node literal kind wrong")
	}
	if !prog.Facts[4].Args[0].(Const).Val.AsBool() {
		t.Errorf("true literal wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`p(X) <- q(X)`,                    // missing dot
		`p(X <- q(X).`,                    // unbalanced paren
		`p(X) <- q(X), .`,                 // dangling comma
		`p(X) -> q(X`,                     // unterminated
		`p(X) <- agg<< C=avg(Y) >> q(Y).`, // unknown aggregate
		`p("unterminated) <- q(X).`,
		`p(X) <- X.`, // bare variable literal
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	prog := mustParse(t, `
		// line comment
		p(X) <- q(X). /* block
		comment */ r(1).
	`)
	if len(prog.Rules) != 1 || len(prog.Facts) != 1 {
		t.Fatalf("comments broke parsing: %d rules, %d facts", len(prog.Rules), len(prog.Facts))
	}
}

func TestReifyRoundTrip(t *testing.T) {
	src := `
		path[P,Src,Dst]=C -> pathvar(P), node(Src), node(Dst), int[32](C).
		reachable(X,Y) <- link(X,Z), says['reachable](Z, self[], Z, Y), X != Y.
		bestcost[Me, N]=C <- agg<< C=min(Cx) >> path2[Me, N]=Cx.
		link(1, 2).
	`
	prog := mustParse(t, src)
	printed := prog.String()
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reified program does not reparse: %v\n%s", err, printed)
	}
	if prog2.String() != printed {
		t.Errorf("reification not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, prog2.String())
	}
}

func TestValueKeyUniqueness(t *testing.T) {
	vals := []Value{
		Int64(1), Int64(2), String_("1"), String_(""), BytesV(nil),
		BytesV([]byte{1}), Bool(true), Bool(false), Name("p"), NodeV("a:1"),
		Prin("a"), Entity("pathvar", 1), Entity("pathvar", 2), Entity("q", 1),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := Tuple{v}.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

func TestValueKeyInjectiveQuick(t *testing.T) {
	// Tuple keys must be injective: different (string) tuples yield
	// different keys, and equal tuples equal keys.
	f := func(a1, a2, b1, b2 string) bool {
		ta := Tuple{String_(a1), String_(a2)}
		tb := Tuple{String_(b1), String_(b2)}
		if a1 == b1 && a2 == b2 {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareTotalOrderQuick(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int64(a), Int64(b)
		c1, c2 := va.Compare(vb), vb.Compare(va)
		if a == b {
			return c1 == 0 && c2 == 0
		}
		return c1 == -c2 && c1 != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesValueStorage(t *testing.T) {
	// BytesV copies: the caller keeps its buffer.
	buf := []byte{1, 2, 3}
	v := BytesV(buf)
	buf[0] = 99
	if got := v.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Errorf("BytesV shares the caller's buffer: %v", got)
	}
	// OwnedBytes adopts: same storage, no copy, and Bytes is a view of it.
	own := []byte{4, 5, 6}
	o := OwnedBytes(own)
	if got := o.Bytes(); len(got) != 3 || &got[0] != &own[0] {
		t.Errorf("OwnedBytes/Bytes copied the buffer")
	}
	if !o.Equal(BytesV([]byte{4, 5, 6})) || o.Compare(BytesV([]byte{4, 5, 7})) >= 0 {
		t.Errorf("owned and copied bytes values must compare by content")
	}
	for _, e := range []Value{BytesV(nil), OwnedBytes(nil), BytesV([]byte{})} {
		if len(e.Bytes()) != 0 || !e.Equal(BytesV(nil)) {
			t.Errorf("empty bytes value misbehaves: %v", e)
		}
	}
}

func TestTemplateLexing(t *testing.T) {
	toks, err := Tokens("says[T]=ST `{ ST(P1,P2,V) -> principal(P1). } <-- predicate(T).")
	if err != nil {
		t.Fatal(err)
	}
	var tmpl *Token
	for i := range toks {
		if toks[i].Kind == TokTemplate {
			tmpl = &toks[i]
		}
	}
	if tmpl == nil {
		t.Fatal("no template token")
	}
	if !strings.Contains(tmpl.Text, "principal(P1)") {
		t.Errorf("template body wrong: %q", tmpl.Text)
	}
	// <-- must lex as a single token
	found := false
	for _, tk := range toks {
		if tk.Kind == TokArrowL2 {
			found = true
		}
	}
	if !found {
		t.Error("<-- did not lex as TokArrowL2")
	}
}
