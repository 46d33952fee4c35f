// Package sem gives meaning to the syntax: environments and expression
// evaluation (the paper's ρ, §3.2), alphabet computation for parallel
// composition, and the denotational semantic function μ mapping process
// expressions to prefix closures via the paper's §3.3 approximation chain.
package sem

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
)

// ErrUnbound is wrapped by evaluation errors caused by an unbound variable,
// so callers (notably alphabet inference) can distinguish "needs a binding"
// from genuine failures.
var ErrUnbound = errors.New("unbound variable")

// Env is an environment ρ: it carries the enclosing module (process
// definitions, named sets, constant arrays), the current variable bindings,
// and the sample width used for the infinite NAT domain. Env is a small
// value; Bind returns an extended copy, so environments form a persistent
// chain and may be captured freely by continuations.
type Env struct {
	module   *syntax.Module
	natWidth int
	vars     *binding
	cache    *envCache
}

// envCache memoizes what exploration would otherwise recompute on every
// state visit. All environments derived from one NewEnv share it; every
// cached value evaluates the same under any bindings (and NatWidth, which
// NAT depends on, is fixed at NewEnv time).
//
//   - chanItems: EvalChanItems of literal channel lists, keyed by content.
//   - enums: EvalSet of all-literal enumerations, keyed by content.
//   - doms: EvalSet of named sets.
//   - items: ChanItems' canonical list for each inferred alphabet, keyed
//     by the alphabet's trace.ChanSetID.
//   - insts: Instantiate's body for each process-array instance, keyed by
//     definition and integer subscript.
//
// The op engine stamps every parallel composition in every successor term
// with its alphabet items, and copy-on-write substitution preserves the
// identity of closed subterms, so these lists, domains and bodies are
// resolved once per module instead of once per state. The keys are the
// module's: its own lists and sets, one canonical list per distinct
// alphabet of its compositions, and at most one instance per element of
// each array's finite index domain. A list or enumeration that
// substituting an input value builds anew finds the entry of the first
// list with its literals, so there is at most one per value substituted.
// So repeated checks of a module's processes leave the cache's size
// unchanged.
type envCache struct {
	chanItems litCache[syntax.ChanItem, trace.Set]
	enums     litCache[syntax.Expr, value.Domain]
	doms      sync.Map // set name → value.Domain
	items     sync.Map // trace.ChanSetID → []syntax.ChanItem
	insts     sync.Map // instKey → syntax.Proc
}

// litCache caches what a non-empty list of literals evaluates to by the
// list's content: the list's syntax hash (syntax.HashExprs or
// syntax.HashItems) and element equality pick the entry, so a list that
// substituting a value builds anew finds the entry of the first list with
// its literals. A module has few such lists, one per distinct list of its
// own and per value substituted, so the entries are scanned in one chain.
// held indexes the lists the chain holds by identity, so the module's own
// lists and the canonical alphabet lists, met on every state step, answer
// without hashing. Lookups allocate nothing. E is an element type whose
// literals compare exactly with ==.
type litCache[E comparable, V any] struct {
	held sync.Map // litKey[E] → *litEntry[E, V]
	mu   sync.Mutex
	head *litEntry[E, V]
}

type litKey[E any] struct {
	first *E
	n     int
}

type litEntry[E comparable, V any] struct {
	hash uint64
	list []E
	val  V
	next *litEntry[E, V]
}

// load returns the value cached for list, and on a miss the hash to store
// it under.
func (c *litCache[E, V]) load(list []E, hash func([]E) uint64) (V, uint64, bool) {
	if e, ok := c.held.Load(litKey[E]{first: &list[0], n: len(list)}); ok {
		return e.(*litEntry[E, V]).val, 0, true
	}
	h := hash(list)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lookupLocked(h, list); e != nil {
		return e.val, h, true
	}
	var zero V
	return zero, h, false
}

// store caches val for list unless a list with its literals is cached.
func (c *litCache[E, V]) store(h uint64, list []E, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lookupLocked(h, list) != nil {
		return
	}
	c.head = &litEntry[E, V]{hash: h, list: list, val: val, next: c.head}
	c.held.Store(litKey[E]{first: &list[0], n: len(list)}, c.head)
}

func (c *litCache[E, V]) lookupLocked(h uint64, list []E) *litEntry[E, V] {
	for e := c.head; e != nil; e = e.next {
		if e.hash == h && slices.Equal(e.list, list) {
			return e
		}
	}
	return nil
}

// instKey identifies one process-array instance: a definition and an
// integer subscript.
type instKey struct {
	def *syntax.Def
	sub int64
}

// literalChanItems reports whether every subscript in the list is absent or
// a literal — the condition under which the list's channel set cannot
// depend on the environment's bindings.
func literalChanItems(items []syntax.ChanItem) bool {
	lit := func(e syntax.Expr) bool {
		if e == nil {
			return true
		}
		_, ok := e.(syntax.IntLit)
		return ok
	}
	for _, it := range items {
		if !lit(it.Sub) || !lit(it.Lo) || !lit(it.Hi) {
			return false
		}
	}
	return true
}

type binding struct {
	name string
	val  value.V
	next *binding
}

// NewEnv returns an environment over the given module. natWidth sets the
// enumeration width of NAT (0 means value.DefaultNatSample).
func NewEnv(m *syntax.Module, natWidth int) Env {
	return Env{module: m, natWidth: natWidth, cache: &envCache{}}
}

// Module returns the enclosing module.
func (e Env) Module() *syntax.Module { return e.module }

// NatWidth returns the NAT sample width in effect.
func (e Env) NatWidth() int {
	if e.natWidth <= 0 {
		return value.DefaultNatSample
	}
	return e.natWidth
}

// Bind returns e extended with x ↦ v (the paper's ρ[v/x]).
func (e Env) Bind(x string, v value.V) Env {
	e.vars = &binding{name: x, val: v, next: e.vars}
	return e
}

// LookupVar returns the value bound to x, if any.
func (e Env) LookupVar(x string) (value.V, bool) {
	for b := e.vars; b != nil; b = b.next {
		if b.name == x {
			return b.val, true
		}
	}
	return value.V{}, false
}

// EvalExpr evaluates a value expression under the environment.
func (e Env) EvalExpr(x syntax.Expr) (value.V, error) {
	switch t := x.(type) {
	case syntax.IntLit:
		return value.Int(t.Val), nil
	case syntax.SymLit:
		return value.Sym(t.Name), nil
	case syntax.Var:
		v, ok := e.LookupVar(t.Name)
		if !ok {
			return value.V{}, fmt.Errorf("sem: %w %q", ErrUnbound, t.Name)
		}
		return v, nil
	case syntax.Binary:
		l, err := e.EvalExpr(t.L)
		if err != nil {
			return value.V{}, err
		}
		r, err := e.EvalExpr(t.R)
		if err != nil {
			return value.V{}, err
		}
		if l.Kind() != value.KindInt || r.Kind() != value.KindInt {
			return value.V{}, fmt.Errorf("sem: arithmetic on non-integers %v %s %v", l, t.Op, r)
		}
		return evalArith(t.Op, l.AsInt(), r.AsInt())
	case syntax.Index:
		arr, ok := e.module.Arrays[t.Name]
		if !ok {
			return value.V{}, fmt.Errorf("sem: unknown constant array %q", t.Name)
		}
		iv, err := e.EvalExpr(t.Sub)
		if err != nil {
			return value.V{}, err
		}
		if iv.Kind() != value.KindInt {
			return value.V{}, fmt.Errorf("sem: non-integer subscript %v for %s", iv, t.Name)
		}
		i := iv.AsInt() - arr.Lo
		if i < 0 || i >= int64(len(arr.Elems)) {
			return value.V{}, fmt.Errorf("sem: subscript %d out of range for %s[%d..%d]",
				iv.AsInt(), arr.Name, arr.Lo, arr.Lo+int64(len(arr.Elems))-1)
		}
		return value.Int(arr.Elems[i]), nil
	default:
		return value.V{}, fmt.Errorf("sem: cannot evaluate expression %v", x)
	}
}

func evalArith(op syntax.BinOp, l, r int64) (value.V, error) {
	switch op {
	case syntax.OpAdd:
		return value.Int(l + r), nil
	case syntax.OpSub:
		return value.Int(l - r), nil
	case syntax.OpMul:
		return value.Int(l * r), nil
	case syntax.OpDiv:
		if r == 0 {
			return value.V{}, fmt.Errorf("sem: division by zero")
		}
		return value.Int(l / r), nil
	case syntax.OpMod:
		if r == 0 {
			return value.V{}, fmt.Errorf("sem: modulo by zero")
		}
		return value.Int(l % r), nil
	default:
		return value.V{}, fmt.Errorf("sem: unknown operator %v", op)
	}
}

// EvalSet evaluates a set expression to a message domain. Named sets and
// all-literal enumerations — the overwhelmingly common input domains — are
// cached, since exploration re-evaluates each input's domain on every
// state visit; domains are immutable, so the cached value is shared.
func (e Env) EvalSet(s syntax.SetExpr) (value.Domain, error) {
	if e.cache != nil {
		switch t := s.(type) {
		case syntax.SetName:
			if v, ok := e.cache.doms.Load(t.Name); ok {
				return v.(value.Domain), nil
			}
			d, err := e.evalSet(s)
			if err != nil {
				return nil, err
			}
			e.cache.doms.Store(t.Name, d)
			return d, nil
		case syntax.EnumSet:
			if len(t.Elems) == 0 || !literalExprs(t.Elems) {
				break
			}
			d, h, ok := e.cache.enums.load(t.Elems, syntax.HashExprs)
			if ok {
				return d, nil
			}
			d, err := e.evalSet(s)
			if err != nil {
				return nil, err
			}
			e.cache.enums.store(h, t.Elems, d)
			return d, nil
		}
	}
	return e.evalSet(s)
}

// literalExprs reports whether every expression is a literal, so that
// evaluation cannot depend on the environment's bindings.
func literalExprs(es []syntax.Expr) bool {
	for _, e := range es {
		switch e.(type) {
		case syntax.IntLit, syntax.SymLit:
		default:
			return false
		}
	}
	return true
}

func (e Env) evalSet(s syntax.SetExpr) (value.Domain, error) {
	switch t := s.(type) {
	case syntax.SetName:
		if t.Name == "NAT" {
			return value.Nat{SampleWidth: e.NatWidth()}, nil
		}
		inner, ok := e.module.Sets[t.Name]
		if !ok {
			return nil, fmt.Errorf("sem: unknown set %q", t.Name)
		}
		return e.EvalSet(inner)
	case syntax.RangeSet:
		lo, err := e.EvalExpr(t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := e.EvalExpr(t.Hi)
		if err != nil {
			return nil, err
		}
		if lo.Kind() != value.KindInt || hi.Kind() != value.KindInt {
			return nil, fmt.Errorf("sem: non-integer range bounds %v..%v", lo, hi)
		}
		return value.IntRange{Lo: lo.AsInt(), Hi: hi.AsInt()}, nil
	case syntax.EnumSet:
		elems := make([]value.V, len(t.Elems))
		for i, x := range t.Elems {
			v, err := e.EvalExpr(x)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return value.NewEnum(elems...), nil
	case syntax.UnionSet:
		a, err := e.EvalSet(t.A)
		if err != nil {
			return nil, err
		}
		b, err := e.EvalSet(t.B)
		if err != nil {
			return nil, err
		}
		return value.Union{A: a, B: b}, nil
	default:
		return nil, fmt.Errorf("sem: cannot evaluate set expression %v", s)
	}
}

// EvalChanRef resolves a channel reference to a concrete channel identity,
// evaluating the subscript if present.
func (e Env) EvalChanRef(c syntax.ChanRef) (trace.Chan, error) {
	if c.Sub == nil {
		return trace.Chan(c.Name), nil
	}
	v, err := e.EvalExpr(c.Sub)
	if err != nil {
		return "", fmt.Errorf("sem: channel %s: %w", c.Name, err)
	}
	if v.Kind() != value.KindInt {
		return "", fmt.Errorf("sem: non-integer channel subscript %v for %s", v, c.Name)
	}
	return trace.Sub(c.Name, v.AsInt()), nil
}

// EvalChanItems resolves a channel list (names, subscripted names, and
// array ranges such as col[0..3]) to a concrete channel set. Literal lists
// are cached by content and the cached set is returned shared, so
// the result must be treated as read-only — callers that need to mutate it
// must Clone first (trace.Set's Add methods write through the backing
// array).
func (e Env) EvalChanItems(items []syntax.ChanItem) (trace.Set, error) {
	cacheable := e.cache != nil && len(items) > 0 && literalChanItems(items)
	var h uint64
	if cacheable {
		out, hash, ok := e.cache.chanItems.load(items, syntax.HashItems)
		if ok {
			return out, nil
		}
		h = hash
	}
	out, err := e.evalChanItems(items)
	if err != nil {
		return out, err
	}
	if cacheable {
		e.cache.chanItems.store(h, items, out)
	}
	return out, nil
}

func (e Env) evalChanItems(items []syntax.ChanItem) (trace.Set, error) {
	out := trace.NewSet()
	for _, it := range items {
		switch {
		case it.Lo != nil:
			lo, err := e.EvalExpr(it.Lo)
			if err != nil {
				return trace.Set{}, err
			}
			hi, err := e.EvalExpr(it.Hi)
			if err != nil {
				return trace.Set{}, err
			}
			if lo.Kind() != value.KindInt || hi.Kind() != value.KindInt {
				return trace.Set{}, fmt.Errorf("sem: non-integer channel range %s", it)
			}
			for i := lo.AsInt(); i <= hi.AsInt(); i++ {
				out.Add(trace.Sub(it.Name, i))
			}
		case it.Sub != nil:
			c, err := e.EvalChanRef(syntax.ChanRef{Name: it.Name, Sub: it.Sub})
			if err != nil {
				return trace.Set{}, err
			}
			out.Add(c)
		default:
			out.Add(trace.Chan(it.Name))
		}
	}
	return out, nil
}

// Instantiate resolves a process reference to the body of its definition
// with the array parameter (if any) substituted by its evaluated value, the
// paper's §1.2(3). It returns the instantiated body: for an integer
// subscript of an array with a finite index domain, the same term on every
// call through environments of one NewEnv.
func (e Env) Instantiate(r syntax.Ref) (syntax.Proc, error) {
	def, ok := e.module.Lookup(r.Name)
	if !ok {
		return nil, fmt.Errorf("sem: undefined process %q", r.Name)
	}
	if def.IsArray() {
		if r.Sub == nil {
			return nil, fmt.Errorf("sem: process array %q used without subscript", r.Name)
		}
		v, err := e.EvalExpr(r.Sub)
		if err != nil {
			return nil, fmt.Errorf("sem: instantiating %s: %w", r, err)
		}
		var key instKey
		if e.cache != nil && v.Kind() == value.KindInt {
			key = instKey{def: def, sub: v.AsInt()}
			if body, ok := e.cache.insts.Load(key); ok {
				return body.(syntax.Proc), nil
			}
		}
		dom, err := e.EvalSet(def.ParamDom)
		if err != nil {
			return nil, err
		}
		if !dom.Contains(v) {
			return nil, fmt.Errorf("sem: subscript %v of %s outside its range %s", v, r.Name, dom)
		}
		body, _ := syntax.SubstProc(def.Body, def.Param, valueToExpr(v)) // a literal has no variable to capture
		if key.def != nil && dom.IsFinite() {
			shared, _ := e.cache.insts.LoadOrStore(key, body)
			return shared.(syntax.Proc), nil
		}
		return body, nil
	}
	if r.Sub != nil {
		return nil, fmt.Errorf("sem: process %q is not an array but used with subscript", r.Name)
	}
	return def.Body, nil
}

// ChanItems returns a literal channel list denoting s, in s.Slice order:
// plain channels by name, array elements by name and integer subscript.
// Environments of one NewEnv return the same slice for the same
// membership. The slice is shared and must not be modified.
func (e Env) ChanItems(s trace.Set) []syntax.ChanItem {
	if e.cache == nil {
		return itemsOf(s)
	}
	id := s.ID()
	if v, ok := e.cache.items.Load(id); ok {
		return v.([]syntax.ChanItem)
	}
	v, _ := e.cache.items.LoadOrStore(id, itemsOf(s))
	return v.([]syntax.ChanItem)
}

func itemsOf(s trace.Set) []syntax.ChanItem {
	cs := s.Slice()
	items := make([]syntax.ChanItem, 0, len(cs))
	for _, c := range cs {
		if name, sub, ok := c.ArrayName(); ok {
			items = append(items, syntax.ChanItem{Name: name, Sub: syntax.IntLit{Val: sub}})
		} else {
			items = append(items, syntax.ChanItem{Name: string(c)})
		}
	}
	return items
}

// ValueToExpr turns an evaluated value back into a literal expression, for
// substituting communicated values into continuation terms (the paper's
// P^x_v in rule 6).
func ValueToExpr(v value.V) syntax.Expr { return valueToExpr(v) }

// valueToExpr turns an evaluated value back into a literal expression for
// substitution into process bodies.
func valueToExpr(v value.V) syntax.Expr {
	switch v.Kind() {
	case value.KindInt:
		return syntax.IntLit{Val: v.AsInt()}
	case value.KindSym:
		return syntax.SymLit{Name: v.AsSym()}
	default:
		// Booleans and sequences never occur as process-array indices in
		// the language; render via symbol to keep substitution total.
		return syntax.SymLit{Name: v.String()}
	}
}
