// Package engine implements the DatalogLB evaluation runtime used by
// SecureBlox: a program compiled once (Compile) and shared by every
// workspace that binds it, a workspace holding the relations, semi-naïve
// fixpoint evaluation (negation and aggregation read the current state;
// internal/analysis judges stratification), head-existential entity creation,
// min/max/count/sum aggregation with replacement semantics, runtime
// integrity-constraint checking inside ACID transactions with undo-log
// rollback, retraction by recomputing from the base facts, and a
// user-defined-function (UDF) hook for cryptographic operators.
package engine

import (
	"fmt"

	"secureblox/internal/datalog"
)

// Builtin type-predicate names checked by value kind rather than by relation
// membership. "principal" is special: it is both a kind (KindPrin) and a
// relation of known principals (membership is the paper's basic
// authentication check), so it is NOT listed here.
var builtinKinds = map[string]datalog.Kind{
	"int":    datalog.KindInt,
	"string": datalog.KindString,
	"bytes":  datalog.KindBytes,
	"bool":   datalog.KindBool,
	"node":   datalog.KindNode,
	"name":   datalog.KindName,
}

// Schema describes one predicate: its arity, functional-dependency shape,
// declared argument types, and whether it is an entity type (declared with
// an empty-RHS constraint such as "pathvar(P) -> .").
type Schema struct {
	Name     string
	Arity    int      // total number of arguments (value included for functional)
	KeyArity int      // -1 for relational predicates; n for p[k1..kn]=v
	ArgTypes []string // type predicate name per argument ("" if undeclared)
	IsEntity bool
	AutoDecl bool // schema inferred from first use rather than declared
}

// Functional reports whether the predicate has a functional dependency.
func (s *Schema) Functional() bool { return s.KeyArity >= 0 }

// Catalog is the set of predicate schemas known to a program.
type Catalog struct {
	schemas map[string]*Schema
}

// NewCatalog returns a catalog pre-populated with the built-in "principal"
// relation (the set of known principals) and the "self" singleton holding
// the local principal.
func NewCatalog() *Catalog {
	c := &Catalog{schemas: make(map[string]*Schema)}
	c.schemas["principal"] = &Schema{Name: "principal", Arity: 1, KeyArity: -1, ArgTypes: []string{"principal"}}
	c.schemas["self"] = &Schema{Name: "self", Arity: 1, KeyArity: 0, ArgTypes: []string{"principal"}}
	c.schemas["principal_node"] = &Schema{Name: "principal_node", Arity: 2, KeyArity: 1, ArgTypes: []string{"principal", "node"}}
	return c
}

// Schema returns the schema for a predicate, or nil.
func (c *Catalog) Schema(name string) *Schema { return c.schemas[name] }

// Declare registers a schema. Redeclaration with a different shape is an
// error; an auto-declared schema may be upgraded by an explicit declaration.
func (c *Catalog) Declare(s *Schema) error {
	if old, ok := c.schemas[s.Name]; ok {
		if old.Arity != s.Arity || old.KeyArity != s.KeyArity {
			return fmt.Errorf("predicate %s redeclared with different shape: %d/%d vs %d/%d",
				s.Name, old.Arity, old.KeyArity, s.Arity, s.KeyArity)
		}
		if old.AutoDecl && !s.AutoDecl {
			c.schemas[s.Name] = s
		}
		return nil
	}
	c.schemas[s.Name] = s
	return nil
}

// AutoDeclare infers a schema from an atom's first use. An atom may access
// a functional predicate positionally (relational form with matching total
// arity), which generics-generated code such as "T(V*)" relies on; the
// functional dependency is still enforced by the relation's schema.
func (c *Catalog) AutoDeclare(a *datalog.Atom) (*Schema, error) {
	if s, ok := c.schemas[a.ConcreteName()]; ok {
		if err := s.admits(a); err != nil {
			return nil, err
		}
		return s, nil
	}
	s := autoSchema(a)
	c.schemas[s.Name] = s
	return s, nil
}

// admits reports why an atom over s's predicate does not have its shape.
func (s *Schema) admits(a *datalog.Atom) error {
	if s.Arity != len(a.Args) {
		return fmt.Errorf("atom %s does not match declared shape of %s (arity %d, key arity %d)",
			a, s.Name, s.Arity, s.KeyArity)
	}
	if a.KeyArity >= 0 && s.KeyArity >= 0 && a.KeyArity != s.KeyArity {
		return fmt.Errorf("atom %s does not match key arity %d of %s", a, s.KeyArity, s.Name)
	}
	return nil
}

// autoSchema is the schema an atom's first use declares.
func autoSchema(a *datalog.Atom) *Schema {
	return &Schema{
		Name:     a.ConcreteName(),
		Arity:    len(a.Args),
		KeyArity: a.KeyArity,
		ArgTypes: make([]string, len(a.Args)),
		AutoDecl: true,
	}
}

// IsDeclaration reports whether a constraint has the shape of a predicate
// declaration: a single LHS atom whose arguments are all distinct variables,
// and an RHS consisting only of unary atoms over those variables (or empty,
// which declares an entity type).
func IsDeclaration(con *datalog.Constraint) bool {
	if len(con.Lhs) != 1 || con.Lhs[0].Kind != datalog.LitAtom {
		return false
	}
	a := con.Lhs[0].Atom
	seen := map[string]bool{}
	for _, t := range a.Args {
		v, ok := t.(datalog.Var)
		if !ok || seen[v.Name] {
			return false
		}
		seen[v.Name] = true
	}
	for _, l := range con.Rhs {
		if l.Kind != datalog.LitAtom || len(l.Atom.Args) != 1 {
			return false
		}
		v, ok := l.Atom.Args[0].(datalog.Var)
		if !ok || !seen[v.Name] {
			return false
		}
	}
	return true
}

// DeclareFromConstraint registers the schema described by a declaration
// constraint (see IsDeclaration). It returns the new schema.
func (c *Catalog) DeclareFromConstraint(con *datalog.Constraint) (*Schema, error) {
	a := con.Lhs[0].Atom
	s := &Schema{
		Name:     a.ConcreteName(),
		Arity:    len(a.Args),
		KeyArity: a.KeyArity,
		ArgTypes: make([]string, len(a.Args)),
	}
	if len(con.Rhs) == 0 && len(a.Args) == 1 && !a.Functional() {
		s.IsEntity = true
		s.ArgTypes[0] = s.Name // members of an entity type have that type
	}
	byVar := map[string]int{}
	for i, t := range a.Args {
		byVar[t.(datalog.Var).Name] = i
	}
	for _, l := range con.Rhs {
		v := l.Atom.Args[0].(datalog.Var)
		s.ArgTypes[byVar[v.Name]] = l.Atom.ConcreteName()
	}
	if err := c.Declare(s); err != nil {
		return nil, err
	}
	return c.schemas[s.Name], nil
}

// argKind is a declared argument type resolved against the catalog: the value
// kind it demands (KindInvalid: none that can be checked without relation
// membership) and, for an entity type, the type's name.
type argKind struct {
	kind datalog.Kind
	ent  string
}

// argKind resolves a type-predicate name as the catalog stands now.
func (c *Catalog) argKind(typeName string) argKind {
	if k, ok := builtinKinds[typeName]; ok {
		return argKind{kind: k}
	}
	if typeName == "principal" {
		return argKind{kind: datalog.KindPrin}
	}
	if s := c.schemas[typeName]; s != nil && s.IsEntity {
		return argKind{kind: datalog.KindEntity, ent: typeName}
	}
	return argKind{} // undeclared, or membership-checked at constraint time
}

// admits reports false only on a definite mismatch.
func (k argKind) admits(v datalog.Value) bool {
	return k.kind == datalog.KindInvalid || v.Kind == k.kind && (k.kind != datalog.KindEntity || v.Str == k.ent)
}

// CheckKind verifies a value against a declared type-predicate name, for the
// kinds that can be checked without relation membership. It returns false
// only on a definite mismatch.
func (c *Catalog) CheckKind(typeName string, v datalog.Value) bool {
	return c.argKind(typeName).admits(v)
}
