package engine

import (
	"fmt"

	"secureblox/internal/datalog"
)

// UDF is a user-defined function hooked into rule and constraint execution,
// the mechanism LogicBlox exposes for operators such as rsa_sign or
// aesencrypt (paper §3.2). A UDF atom in a rule body is evaluated once its
// required argument positions are bound; it then completes the argument
// vector, or fails — which is how verification UDFs act as filters. Every
// operator the paper uses is a function: one completion at most.
type UDF interface {
	// Name is the predicate name the UDF is invoked by.
	Name() string
	// CanEval reports whether the bound-argument mask suffices to evaluate.
	CanEval(bound []bool) bool
	// Eval completes args in place and reports whether there is a completion.
	// param is the atom's parameterization (the T in rsa_sign[T](...)), used
	// for domain separation. args holds the current values, zero Values at the
	// unbound positions; their text is a view of the workspace's intern table,
	// valid as long as the workspace. Eval stores its results there and nowhere
	// else, and where a position it computes arrived bound, the two must be
	// equal for the completion to stand (Yield does both). The workspace
	// interns each result before it runs anything else, so a result may view an
	// argument. args is the caller's scratch: Eval must not keep the slice, and
	// allocates nothing for the caller's sake — only the bytes of the values
	// it returns.
	Eval(param string, args []datalog.Value, bound []bool) (bool, error)
}

// Yield gives position i of a UDF's argument vector the computed value v: an
// unbound position takes it, a bound one is an equality filter.
func Yield(args []datalog.Value, bound []bool, i int, v datalog.Value) bool {
	if bound[i] {
		return args[i].Equal(v)
	}
	args[i] = v
	return true
}

// UDFRegistry maps predicate names to UDF implementations. A nil registry
// resolves nothing.
type UDFRegistry struct {
	byName map[string]UDF
}

// NewUDFRegistry returns an empty registry.
func NewUDFRegistry() *UDFRegistry { return &UDFRegistry{byName: make(map[string]UDF)} }

// Register adds a UDF; duplicate names are an error.
func (r *UDFRegistry) Register(u UDF) error {
	if _, ok := r.byName[u.Name()]; ok {
		return fmt.Errorf("udf %s already registered", u.Name())
	}
	r.byName[u.Name()] = u
	return nil
}

// Lookup resolves a UDF by name.
func (r *UDFRegistry) Lookup(name string) (UDF, bool) {
	if r == nil {
		return nil, false
	}
	u, ok := r.byName[name]
	return u, ok
}

// FuncUDF adapts a plain Go function into a UDF with a fixed input/output
// split: the first InArity arguments are inputs (variadic UDFs set
// InArity=-1 and require all but the last OutArity bound), and OutArity — 0
// for a filter, 1 for a function — says whether the value Fn returns is the
// last argument.
type FuncUDF struct {
	FName    string
	InArity  int // -1: everything except the trailing OutArity args is input
	OutArity int // 0 or 1
	Fn       func(param string, in []datalog.Value) (out datalog.Value, ok bool, err error)
}

// Name implements UDF.
func (f *FuncUDF) Name() string { return f.FName }

// CanEval implements UDF: all input positions must be bound.
func (f *FuncUDF) CanEval(bound []bool) bool {
	n := f.inCount(len(bound))
	if n < 0 {
		return false
	}
	for i := 0; i < n; i++ {
		if !bound[i] {
			return false
		}
	}
	return true
}

func (f *FuncUDF) inCount(arity int) int {
	if f.InArity >= 0 {
		if f.InArity+f.OutArity != arity {
			return -1
		}
		return f.InArity
	}
	return arity - f.OutArity
}

// Eval implements UDF.
func (f *FuncUDF) Eval(param string, args []datalog.Value, bound []bool) (bool, error) {
	n := f.inCount(len(args))
	if n < 0 || f.OutArity > 1 {
		return false, fmt.Errorf("udf %s: bad arity %d", f.FName, len(args))
	}
	out, ok, err := f.Fn(param, args[:n])
	if err != nil {
		return false, fmt.Errorf("udf %s: %w", f.FName, err)
	}
	return ok && (f.OutArity == 0 || Yield(args, bound, n, out)), nil
}
