package msl

// maxNesting bounds how deep an expression nests: parentheses, prefix
// operators, ternary arms and operator chains all count. The parser and
// the elaborator recurse once per level, and running out of goroutine
// stack kills the process, so a deeper expression is a positioned
// error instead. A level costs a few KB of stack.
const maxNesting = 1000

type parser struct {
	lx    *lexer
	tok   token
	depth int // expression nesting at the current token
}

// Parse parses MSL source text into a File.
func Parse(src string) (*File, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseFile()
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// nest enters one more level of expression nesting, failing past
// maxNesting; callers restore p.depth when they return.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return errAt(p.tok.line, p.tok.col, "expression nested deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, errAt(p.tok.line, p.tok.col, "expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) parseFile() (*File, error) {
	f := &File{}
	if _, err := p.expect(tokModel); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	f.Name = name.text

	for p.tok.kind != tokEOF {
		switch p.tok.kind {
		case tokInput:
			d, err := p.parseInput()
			if err != nil {
				return nil, err
			}
			f.Inputs = append(f.Inputs, d)
		case tokVar:
			d, err := p.parseVar()
			if err != nil {
				return nil, err
			}
			f.Decls = append(f.Decls, d)
		case tokNext:
			s, err := p.parseNext()
			if err != nil {
				return nil, err
			}
			f.Nexts = append(f.Nexts, s)
		case tokBad:
			s, err := p.parseBad()
			if err != nil {
				return nil, err
			}
			f.Bads = append(f.Bads, s)
		default:
			return nil, errAt(p.tok.line, p.tok.col, "expected declaration, found %v", p.tok.kind)
		}
	}
	return f, nil
}

func (p *parser) parseInput() (*InputDecl, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	width := 1
	if p.tok.kind == tokColon {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		width = int(w.num)
		if width < 1 || width > 64 {
			return nil, errAt(w.line, w.col, "input width must be 1..64, got %d", width)
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &InputDecl{Name: name.text, Width: width, Line: line}, nil
}

func (p *parser) parseVar() (*VarDecl, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	w, err := p.expect(tokNumber)
	if err != nil {
		return nil, err
	}
	width := int(w.num)
	if width < 1 || width > 64 {
		return nil, errAt(w.line, w.col, "register width must be 1..64, got %d", width)
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	d := &VarDecl{Name: name.text, Width: width, Line: line}
	switch p.tok.kind {
	case tokNumber:
		d.Init = p.tok.num
		if width < 64 && d.Init >= uint64(1)<<uint(width) {
			return nil, errAt(p.tok.line, p.tok.col, "reset value %d does not fit in %d bits", d.Init, width)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokIdent:
		if p.tok.text != "x" {
			return nil, errAt(p.tok.line, p.tok.col, "reset value must be a number or 'x'")
		}
		d.InitX = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, errAt(p.tok.line, p.tok.col, "reset value must be a number or 'x'")
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseNext() (*NextStmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &NextStmt{Name: name.text, Expr: e, Line: line}, nil
}

func (p *parser) parseBad() (*BadStmt, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &BadStmt{Expr: e, Line: line}, nil
}

// Expression grammar (loosest first):
//
//	expr    := ternary
//	ternary := or ('?' expr ':' expr)?
//	or      := xor ('|' xor)*
//	xor     := and ('^' and)*
//	and     := cmp ('&' cmp)*
//	cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//	add     := shift (('+'|'-') shift)*
//	shift   := unary (('<<'|'>>') NUMBER)*
//	unary   := ('~'|'!')* primary
//	primary := NUMBER | IDENT ('[' NUMBER ']')? | '(' expr ')'
func (p *parser) parseExpr() (Expr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	return p.parseTernary()
}

func (p *parser) parseTernary() (Expr, error) {
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokQuestion {
		return c, nil
	}
	line, col := p.tok.line, p.tok.col
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{pos: pos{line, col}, C: c, T: t, E: e}, nil
}

func (p *parser) parseBinaryChain(sub func() (Expr, error), ops map[tokenKind]string) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	defer func(d int) { p.depth = d }(p.depth)
	for {
		op, ok := ops[p.tok.kind]
		if !ok {
			return x, nil
		}
		line, col := p.tok.line, p.tok.col
		// Each link nests the chain's left operand one level deeper.
		if err := p.nest(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := sub()
		if err != nil {
			return nil, err
		}
		x = &Binary{pos: pos{line, col}, Op: op, X: x, Y: y}
	}
}

func (p *parser) parseOr() (Expr, error) {
	return p.parseBinaryChain(p.parseXor, map[tokenKind]string{tokOr: "|"})
}

func (p *parser) parseXor() (Expr, error) {
	return p.parseBinaryChain(p.parseAnd, map[tokenKind]string{tokXor: "^"})
}

func (p *parser) parseAnd() (Expr, error) {
	return p.parseBinaryChain(p.parseCmp, map[tokenKind]string{tokAnd: "&"})
}

var cmpOps = map[tokenKind]string{
	tokEq: "==", tokNeq: "!=", tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
}

func (p *parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	op, ok := cmpOps[p.tok.kind]
	if !ok {
		return x, nil
	}
	line, col := p.tok.line, p.tok.col
	if err := p.advance(); err != nil {
		return nil, err
	}
	y, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &Binary{pos: pos{line, col}, Op: op, X: x, Y: y}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	return p.parseBinaryChain(p.parseShift, map[tokenKind]string{tokPlus: "+", tokMinus: "-"})
}

func (p *parser) parseShift() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokShl || p.tok.kind == tokShr {
		op := "<<"
		if p.tok.kind == tokShr {
			op = ">>"
		}
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, errAt(line, col, "shift amount must be a numeric literal")
		}
		x = &Binary{pos: pos{line, col}, Op: op, X: x, Y: &Num{pos: pos{n.line, n.col}, Value: n.num}}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.tok.kind {
	case tokNot, tokLNot:
		op := "~"
		if p.tok.kind == tokLNot {
			op = "!"
		}
		line, col := p.tok.line, p.tok.col
		if err := p.nest(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &Unary{pos: pos{line, col}, Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokNumber:
		e := &Num{pos: pos{p.tok.line, p.tok.col}, Value: p.tok.num}
		return e, p.advance()
	case tokIdent:
		e := &Ref{pos: pos{p.tok.line, p.tok.col}, Name: p.tok.text}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLBracket {
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			line, col := e.Pos()
			return &Index{pos: pos{line, col}, X: e, Bit: int(n.num)}, nil
		}
		return e, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errAt(p.tok.line, p.tok.col, "expected expression, found %v", p.tok.kind)
}
