package parser

import (
	"fmt"
	"slices"

	"cspsat/internal/assertion"
	"cspsat/internal/model"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
)

// Assertion parsing. Identifiers in assertion terms are ambiguous until the
// whole file is known (a bare name may be a channel, a logic variable, a
// symbol, or a constant array), so terms are first built with
// assertion.Unresolved placeholders and resolved in a second pass against
// the module's channel names and declarations.

// parseAssertDecl parses:
//
//	assert {forall IDENT in setExpr .} procref sat formula
func (p *parser) parseAssertDecl() error {
	line := p.peek().line
	p.take() // assert
	var quants []Quant
	for p.atKeyword("forall") {
		p.take()
		v, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		if !p.atKeyword("in") {
			return p.errf("expected 'in' after forall %s", v.text)
		}
		p.take()
		dom, err := p.parseSetExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tDot); err != nil {
			return err
		}
		quants = append(quants, Quant{Var: v.text, Dom: dom})
	}
	proc, err := p.parsePrefix()
	if err != nil {
		return err
	}
	if p.atKeyword("refines") {
		p.take()
		spec, err := p.parsePrefix()
		if err != nil {
			return err
		}
		if len(quants) != 0 {
			return p.errf("refinement asserts cannot be quantified")
		}
		// Optional model pin: "assert P refines Q in failures".
		var mdl model.Model
		if p.atKeyword("in") {
			p.take()
			name, err := p.expect(tIdent)
			if err != nil {
				return err
			}
			if mdl, err = model.Parse(name.text); err != nil {
				return p.errf("%v", err)
			}
		}
		p.asserts = append(p.asserts, AssertDecl{Proc: proc, Refines: spec, Model: mdl, Line: line})
		return nil
	}
	if !p.atKeyword("sat") {
		return p.errf("expected 'sat' or 'refines', found %s", p.peek())
	}
	p.take()
	// Behavioural (refusal-level) forms are top-level only: they describe
	// the whole process's stable states, so nesting them under connectives
	// or quantifiers has no meaning in any model served here.
	if a, ok, err := p.parseBehavioural(); ok {
		if err != nil {
			return err
		}
		if len(quants) != 0 {
			return p.errf("behavioural asserts cannot be quantified")
		}
		p.asserts = append(p.asserts, AssertDecl{Proc: proc, A: a, Line: line})
		return nil
	}
	a, err := p.parseFormula()
	if err != nil {
		return err
	}
	p.asserts = append(p.asserts, AssertDecl{Quants: quants, Proc: proc, A: a, Line: line})
	return nil
}

// parseBehavioural parses the refusal-level assertion forms:
//
//	deadlockfree
//	offers CHAN {, CHAN}
//
// It reports ok=false (without consuming anything) when the next token
// opens an ordinary formula instead.
func (p *parser) parseBehavioural() (assertion.A, bool, error) {
	switch {
	case p.atKeyword("deadlockfree"):
		p.take()
		return assertion.DeadlockFree{}, true, nil
	case p.atKeyword("offers"):
		p.take()
		var chans []string
		for {
			c, err := p.expect(tIdent)
			if err != nil {
				return nil, true, err
			}
			chans = append(chans, c.text)
			if !p.at(tComma) {
				break
			}
			p.take()
		}
		return assertion.Offers{Chans: chans}, true, nil
	}
	return nil, false, nil
}

// parseFormula parses an assertion with precedence:
// '=>' (right) < 'or' < '&' < comparisons.
func (p *parser) parseFormula() (assertion.A, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.at(tImplies) {
		p.take()
		right, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		return assertion.Implies{L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) parseOr() (assertion.A, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.take()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = assertion.Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (assertion.A, error) {
	left, err := p.parseFormulaUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tAmp) {
		p.take()
		right, err := p.parseFormulaUnary()
		if err != nil {
			return nil, err
		}
		left = assertion.And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFormulaUnary() (assertion.A, error) {
	switch {
	case p.atKeyword("true"):
		p.take()
		return assertion.BoolA{Val: true}, nil
	case p.atKeyword("false"):
		p.take()
		return assertion.BoolA{Val: false}, nil
	case p.at(tBang):
		p.take()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		inner, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return assertion.Not{Body: inner}, nil
	case p.atKeyword("forall") || p.atKeyword("exists"):
		return p.parseQuantFormula()
	case p.at(tLParen):
		// Could be a parenthesised formula or a parenthesised term; try
		// the formula reading first and fall back on failure.
		save := p.pos
		p.take()
		inner, err := p.parseFormula()
		if err == nil {
			if _, err2 := p.expect(tRParen); err2 == nil {
				return inner, nil
			}
		}
		p.pos = save
		return p.parseCmp()
	default:
		return p.parseCmp()
	}
}

func (p *parser) parseQuantFormula() (assertion.A, error) {
	kw := p.take().text // forall | exists
	v, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	switch {
	case p.atKeyword("in"):
		p.take()
		dom, err := p.parseSetExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDot); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if kw == "forall" {
			return assertion.ForAllSet{Var: v.text, Dom: dom, Body: body}, nil
		}
		return assertion.ExistsSet{Var: v.text, Dom: dom, Body: body}, nil
	case p.at(tColon):
		p.take()
		lo, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDotDot); err != nil {
			return nil, err
		}
		hi, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDot); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if kw == "forall" {
			return assertion.ForAllRange{Var: v.text, Lo: lo, Hi: hi, Body: body}, nil
		}
		return assertion.ExistsRange{Var: v.text, Lo: lo, Hi: hi, Body: body}, nil
	default:
		return nil, p.errf("expected 'in' or ':' after %s %s", kw, v.text)
	}
}

func (p *parser) parseCmp() (assertion.A, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	var op assertion.CmpOp
	switch p.peek().kind {
	case tEqEq:
		op = assertion.CEq
	case tNe:
		op = assertion.CNe
	case tLe:
		op = assertion.CLe
	case tLt:
		op = assertion.CLt
	case tGe:
		op = assertion.CGe
	case tGt:
		op = assertion.CGt
	default:
		return nil, p.errf("expected a comparison operator, found %s", p.peek())
	}
	p.take()
	right, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return assertion.Cmp{Op: op, L: left, R: right}, nil
}

// parseTerm parses an assertion term. Precedence, loosest first:
// '^' (cons, right assoc) and '++' (concatenation, left assoc) over
// '+'/'-' over '*'/'/'/'%' over primaries.
func (p *parser) parseTerm() (assertion.Term, error) {
	left, err := p.parseAddTerm()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tCaret):
		p.take()
		right, err := p.parseTerm() // right associative: x^y^s = x^(y^s)
		if err != nil {
			return nil, err
		}
		return assertion.Cons{Head: left, Tail: right}, nil
	case p.at(tCatOp):
		for p.at(tCatOp) {
			p.take()
			right, err := p.parseAddTerm()
			if err != nil {
				return nil, err
			}
			left = assertion.Cat{L: left, R: right}
		}
		return left, nil
	default:
		return left, nil
	}
}

func (p *parser) parseAddTerm() (assertion.Term, error) {
	left, err := p.parseMulTerm()
	if err != nil {
		return nil, err
	}
	for p.at(tPlus) || p.at(tMinus) {
		op := assertion.AAdd
		if p.take().kind == tMinus {
			op = assertion.ASub
		}
		right, err := p.parseMulTerm()
		if err != nil {
			return nil, err
		}
		left = assertion.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMulTerm() (assertion.Term, error) {
	left, err := p.parsePrimTerm()
	if err != nil {
		return nil, err
	}
	for p.at(tStar) || p.at(tSlash) || p.at(tPercent) {
		var op assertion.ArithOp
		switch p.take().kind {
		case tStar:
			op = assertion.AMul
		case tSlash:
			op = assertion.ADiv
		default:
			op = assertion.AMod
		}
		right, err := p.parsePrimTerm()
		if err != nil {
			return nil, err
		}
		left = assertion.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimTerm() (assertion.Term, error) {
	switch {
	case p.at(tInt):
		return assertion.Int(p.take().val), nil

	case p.at(tMinus):
		p.take()
		t, err := p.expect(tInt)
		if err != nil {
			return nil, err
		}
		return assertion.Int(-t.val), nil

	case p.at(tHash):
		p.take()
		s, err := p.parsePrimTerm()
		if err != nil {
			return nil, err
		}
		return assertion.Len{S: s}, nil

	case p.at(tLt):
		// Sequence literal <a, b, c> or the empty sequence <>.
		p.take()
		if p.at(tGt) {
			p.take()
			return assertion.Empty(), nil
		}
		var elems []assertion.Term
		for {
			e, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.at(tComma) {
				p.take()
				continue
			}
			break
		}
		if _, err := p.expect(tGt); err != nil {
			return nil, err
		}
		return assertion.SeqLit{Elems: elems}, nil

	case p.atKeyword("sum"):
		p.take()
		v, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon); err != nil {
			return nil, err
		}
		lo, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDotDot); err != nil {
			return nil, err
		}
		hi, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDot); err != nil {
			return nil, err
		}
		body, err := p.parsePrimTerm()
		if err != nil {
			return nil, err
		}
		return assertion.Sum{Var: v.text, Lo: lo, Hi: hi, Body: body}, nil

	case p.at(tIdent):
		name := p.take()
		switch {
		case p.at(tLParen):
			p.take()
			var args []assertion.Term
			if !p.at(tRParen) {
				for {
					a, err := p.parseTerm()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.at(tComma) {
						p.take()
						continue
					}
					break
				}
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			return p.parsePostfixIndex(assertion.Apply{Fn: name.text, Args: args})
		case p.at(tLBrack):
			p.take()
			sub, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrack); err != nil {
				return nil, err
			}
			return p.parsePostfixIndex(assertion.Unresolved{Name: name.text, Sub: sub})
		default:
			return assertion.Unresolved{Name: name.text}, nil
		}

	case p.at(tLParen):
		p.take()
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return p.parsePostfixIndex(t)

	default:
		return nil, p.errf("expected a term, found %s", p.peek())
	}
}

// parsePostfixIndex wraps a term with trailing [i] indexes: the paper's sᵢ.
// (The first subscript directly after a bare identifier is captured inside
// Unresolved instead — whether it selects a channel-array element or a
// sequence position is decided at resolution time.)
func (p *parser) parsePostfixIndex(t assertion.Term) (assertion.Term, error) {
	for p.at(tLBrack) {
		p.take()
		idx, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBrack); err != nil {
			return nil, err
		}
		t = assertion.At{S: t, Idx: idx}
	}
	return t, nil
}

// resolveAsserts replaces Unresolved placeholders now that the whole module
// is known. Resolution rules, in order:
//
//   - a variable bound by an enclosing quantifier (or the assert's own
//     forall prefix) resolves to that variable;
//   - a name some process communicates on resolves to a channel (subscripted
//     names: the array name);
//   - a declared constant array with a subscript resolves to ConstIndex;
//   - an all-uppercase name resolves to a symbol literal;
//   - anything else resolves to a free variable.
func (p *parser) resolveAsserts() error {
	chanNames := p.moduleChanUsage()
	for i := range p.asserts {
		if p.asserts[i].A == nil {
			continue // a refinement assert has no formula to resolve
		}
		a, err := resolveFormula(p.asserts[i].A, p.asserts[i].Quants, chanNames, p.module)
		if err != nil {
			return fmt.Errorf("assert at line %d: %w", p.asserts[i].Line, err)
		}
		p.asserts[i].A = a
	}
	return nil
}

// chanUsage records how the module's processes use each channel name:
// whether it appears at all, and whether it is subscripted (a channel
// array). The distinction resolves the name[i] ambiguity in assertions:
// row[j] selects an array element, output[i] indexes a plain channel's
// history.
type chanUsage struct {
	used  map[string]bool
	array map[string]bool
}

func (p *parser) moduleChanUsage() chanUsage {
	u := chanUsage{used: map[string]bool{}, array: map[string]bool{}}
	note := func(name string, array bool) {
		u.used[name] = true
		if array {
			u.array[name] = true
		}
	}
	for _, name := range p.module.Names() {
		def, _ := p.module.Lookup(name)
		syntax.Chans(def.Body, note)
	}
	return u
}

// resolveFormula resolves the placeholders of an assert's formula by the
// rules above; quants is the assert's forall prefix.
func resolveFormula(a assertion.A, quants []Quant, chans chanUsage, m *syntax.Module) (assertion.A, error) {
	if o, ok := a.(assertion.Offers); ok {
		// The named channels must be ones the module communicates on —
		// an assertion about a channel nothing uses is a typo, and it
		// would hold vacuously forever.
		for _, c := range o.Chans {
			if !chans.used[c] {
				return nil, fmt.Errorf("offers names channel %q which no process uses", c)
			}
		}
		return a, nil
	}
	return assertion.Resolve(a, func(x assertion.Unresolved, bound bool) (assertion.Term, error) {
		if x.Sub == nil {
			switch {
			case bound || slices.ContainsFunc(quants, func(q Quant) bool { return q.Var == x.Name }):
				return assertion.Var(x.Name), nil
			case chans.used[x.Name]:
				return assertion.Chan(x.Name), nil
			case isSymbolName(x.Name):
				return assertion.Lit{Val: value.Sym(x.Name)}, nil
			default:
				return assertion.Var(x.Name), nil
			}
		}
		switch {
		case chans.array[x.Name]:
			return assertion.ChanT{Name: x.Name, Sub: x.Sub}, nil
		case chans.used[x.Name]:
			// A subscripted plain channel indexes its history: outputᵢ.
			return assertion.At{S: assertion.Chan(x.Name), Idx: x.Sub}, nil
		case m.Arrays[x.Name].Name == x.Name:
			return assertion.ConstIndex{Name: x.Name, Sub: x.Sub}, nil
		default:
			return nil, fmt.Errorf("parser: %s[…] is neither a channel nor a constant array", x.Name)
		}
	})
}
