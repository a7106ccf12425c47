package datalog

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// TokKind enumerates lexer token kinds.
type TokKind uint8

// Token kinds produced by the lexer.
const (
	TokEOF      TokKind = iota
	TokIdent            // lower-case identifier: predicate / function name
	TokVar              // Upper-case identifier: logic variable
	TokWild             // _
	TokInt              // integer literal
	TokString           // "..." string literal
	TokQName            // 'pred  quoted predicate name
	TokNode             // @"host:port" node literal
	TokPrin             // #alice or #"alice" principal literal
	TokTrue             // true
	TokFalse            // false
	TokAgg              // agg
	TokLParen           // (
	TokRParen           // )
	TokLBrack           // [
	TokRBrack           // ]
	TokComma            // ,
	TokDot              // .
	TokBang             // !
	TokEq               // =
	TokNe               // !=
	TokLt               // <
	TokLe               // <=
	TokGt               // >
	TokGe               // >=
	TokPlus             // +
	TokMinus            // -
	TokStar             // *
	TokSlash            // /
	TokArrowL           // <-
	TokArrowR           // ->
	TokArrowL2          // <--  (generic rule)
	TokArrowR2          // -->  (generic constraint)
	TokShiftL           // <<
	TokShiftR           // >>
	TokTemplate         // `{ ... }  raw template block
	TokBytes            // 0xDEADBEEF bytes literal
)

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokVar: "variable", TokWild: "_",
	TokInt: "integer", TokString: "string", TokQName: "quoted name",
	TokNode: "node literal", TokPrin: "principal literal", TokTrue: "true",
	TokFalse: "false", TokAgg: "agg", TokLParen: "(", TokRParen: ")",
	TokLBrack: "[", TokRBrack: "]", TokComma: ",", TokDot: ".", TokBang: "!",
	TokEq: "=", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokArrowL: "<-", TokArrowR: "->", TokArrowL2: "<--", TokArrowR2: "-->",
	TokShiftL: "<<", TokShiftR: ">>", TokTemplate: "template block",
	TokBytes: "bytes literal",
}

// String returns a human-readable token kind name.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", k)
}

// Token is one lexical unit with its source position (line, column).
type Token struct {
	Kind TokKind
	Text string // identifier text, string contents, raw template body
	Int  int64  // integer value for TokInt
	Line int
	Col  int
}

// Lexer tokenizes DatalogLB and BloxGenerics source text.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return fmt.Errorf("line %d: unterminated block comment", lx.line)
				}
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }

// isIdentPart additionally admits '$', the namespace separator of
// generics-generated predicate names (says$reachable); '$' cannot start an
// identifier, so user code cannot collide with generated names.
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$'
}

func (lx *Lexer) lexIdent() string {
	start := lx.pos
	for lx.pos < len(lx.src) {
		r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isIdentPart(r) {
			break
		}
		lx.pos += sz
		lx.col++
	}
	return lx.src[start:lx.pos]
}

func (lx *Lexer) lexString() (string, error) {
	// opening quote already consumed; escapes are Go's, so every string
	// strconv.Quote prints lexes back to itself
	var sb strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return "", fmt.Errorf("line %d: unterminated string literal", lx.line)
		}
		switch c := lx.peek(); c {
		case '"':
			lx.advance()
			return sb.String(), nil
		case '\\':
			v, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.pos:], '"')
			if err != nil {
				return "", fmt.Errorf("line %d: bad escape in string literal", lx.line)
			}
			for n := len(lx.src) - len(tail); lx.pos < n; {
				lx.advance()
			}
			if multibyte {
				sb.WriteRune(v)
			} else {
				sb.WriteByte(byte(v))
			}
		default:
			sb.WriteByte(lx.advance())
		}
	}
}

// Next returns the next token or an error.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := lx.peek()
	switch {
	case c >= '0' && c <= '9':
		if c == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
			lx.advance()
			lx.advance()
			start := lx.pos
			for lx.pos < len(lx.src) && isHexDigit(lx.peek()) {
				lx.advance()
			}
			raw, err := hex.DecodeString(lx.src[start:lx.pos])
			if err != nil {
				return tok, fmt.Errorf("line %d: bad bytes literal: %v", tok.Line, err)
			}
			tok.Kind, tok.Text = TokBytes, string(raw)
			return tok, nil
		}
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peek() >= '0' && lx.peek() <= '9' {
			lx.advance()
		}
		n, err := strconv.ParseInt(lx.src[start:lx.pos], 10, 64)
		if err != nil {
			return tok, fmt.Errorf("line %d: bad integer: %v", tok.Line, err)
		}
		tok.Kind, tok.Int = TokInt, n
		return tok, nil
	case c == '"':
		lx.advance()
		s, err := lx.lexString()
		if err != nil {
			return tok, err
		}
		tok.Kind, tok.Text = TokString, s
		return tok, nil
	case c == '\'':
		lx.advance()
		r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isIdentStart(r) {
			return tok, fmt.Errorf("line %d: expected identifier after '", tok.Line)
		}
		tok.Kind, tok.Text = TokQName, lx.lexIdent()
		return tok, nil
	case c == '@':
		lx.advance()
		if lx.peek() != '"' {
			return tok, fmt.Errorf("line %d: expected string after @", tok.Line)
		}
		lx.advance()
		s, err := lx.lexString()
		if err != nil {
			return tok, err
		}
		tok.Kind, tok.Text = TokNode, s
		return tok, nil
	case c == '#':
		lx.advance()
		if lx.peek() == '"' {
			lx.advance()
			s, err := lx.lexString()
			if err != nil {
				return tok, err
			}
			tok.Kind, tok.Text = TokPrin, s
			return tok, nil
		}
		r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isIdentStart(r) {
			return tok, fmt.Errorf("line %d: expected identifier or string after #", tok.Line)
		}
		tok.Kind, tok.Text = TokPrin, lx.lexIdent()
		return tok, nil
	case c == '`':
		// `{ raw template body }
		lx.advance()
		if lx.peek() != '{' {
			return tok, fmt.Errorf("line %d: expected { after `", tok.Line)
		}
		lx.advance()
		start := lx.pos
		depth := 1
		for {
			if lx.pos >= len(lx.src) {
				return tok, fmt.Errorf("line %d: unterminated template block", tok.Line)
			}
			ch := lx.advance()
			if ch == '{' {
				depth++
			} else if ch == '}' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		tok.Kind, tok.Text = TokTemplate, lx.src[start:lx.pos-1]
		return tok, nil
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	if isIdentStart(r) {
		id := lx.lexIdent()
		switch id {
		case "_":
			tok.Kind = TokWild
		case "true":
			tok.Kind = TokTrue
		case "false":
			tok.Kind = TokFalse
		case "agg":
			tok.Kind = TokAgg
		default:
			first, _ := utf8.DecodeRuneInString(id)
			if unicode.IsUpper(first) {
				tok.Kind = TokVar
			} else if strings.HasPrefix(id, "_") && len(id) > 1 {
				tok.Kind = TokVar // _Hidden counts as a named variable
			} else {
				tok.Kind = TokIdent
			}
			tok.Text = id
		}
		return tok, nil
	}
	lx.advance()
	switch c {
	case '(':
		tok.Kind = TokLParen
	case ')':
		tok.Kind = TokRParen
	case '[':
		tok.Kind = TokLBrack
	case ']':
		tok.Kind = TokRBrack
	case ',':
		tok.Kind = TokComma
	case '.':
		tok.Kind = TokDot
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			tok.Kind = TokNe
		} else {
			tok.Kind = TokBang
		}
	case '=':
		tok.Kind = TokEq
	case '<':
		switch lx.peek() {
		case '-':
			lx.advance()
			if lx.peek() == '-' {
				lx.advance()
				tok.Kind = TokArrowL2
			} else {
				tok.Kind = TokArrowL
			}
		case '=':
			lx.advance()
			tok.Kind = TokLe
		case '<':
			lx.advance()
			tok.Kind = TokShiftL
		default:
			tok.Kind = TokLt
		}
	case '>':
		switch lx.peek() {
		case '=':
			lx.advance()
			tok.Kind = TokGe
		case '>':
			lx.advance()
			tok.Kind = TokShiftR
		default:
			tok.Kind = TokGt
		}
	case '-':
		if lx.peek() == '-' && lx.peekAt(1) == '>' {
			lx.advance()
			lx.advance()
			tok.Kind = TokArrowR2
		} else if lx.peek() == '>' {
			lx.advance()
			tok.Kind = TokArrowR
		} else {
			tok.Kind = TokMinus
		}
	case '+':
		tok.Kind = TokPlus
	case '*':
		tok.Kind = TokStar
	case '/':
		tok.Kind = TokSlash
	default:
		return tok, fmt.Errorf("line %d:%d: unexpected character %q", tok.Line, tok.Col, c)
	}
	return tok, nil
}

// Tokens lexes the whole input, returning all tokens up to and including EOF.
func Tokens(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
