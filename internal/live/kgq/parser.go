// Package kgq implements the Live KG Query Engine's query language (§4.2).
// KGQ is expressive enough to capture the graph-traversal semantics of
// natural-language queries while deliberately limiting expressiveness
// (compared to general graph query languages) so query performance stays
// bounded. A query is a pipeline of stages:
//
//	entity(type="city", name="Chicago") | follow("mayor") | attr("name")
//
// Stages transform entity sets: seed stages (entity, search, id) produce
// sets from indexes; traversal stages (follow, in) walk references; filter,
// rank, and limit shape the set; attr projects values. Virtual operators let
// users encapsulate complex expressions as new reusable operators.
package kgq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Arg is one stage argument, positional or keyed.
type Arg struct {
	// Key is the argument name, or "" for positional arguments.
	Key string
	// Str holds string and identifier values.
	Str string
	// Num holds numeric values when IsNum.
	Num   float64
	IsNum bool
}

// Text returns the argument's value as text.
func (a Arg) Text() string {
	if a.IsNum {
		return strconv.FormatFloat(a.Num, 'g', -1, 64)
	}
	return a.Str
}

// Stage is one pipeline stage: an operator invocation.
type Stage struct {
	Name string
	Args []Arg
}

// Arg returns the first argument with the given key (or the positional
// argument at index pos when key lookup fails), reporting presence.
func (s Stage) Arg(key string, pos int) (Arg, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			return a, true
		}
	}
	n := 0
	for _, a := range s.Args {
		if a.Key == "" {
			if n == pos {
				return a, true
			}
			n++
		}
	}
	return Arg{}, false
}

// Query is a parsed KGQ pipeline.
type Query struct {
	Stages []Stage
}

// String renders the query back to KGQ text: Parse(q.String()) yields q.
// A key that is not an identifier (only pushdown makes one) is written as a
// quoted string; Parse rejects that, but the text stays unambiguous, which
// is what the result cache keyed on Plan.String needs.
func (q Query) String() string {
	parts := make([]string, len(q.Stages))
	for i, s := range q.Stages {
		args := make([]string, len(s.Args))
		for j, a := range s.Args {
			v := quote(a.Str)
			if a.IsNum {
				// The lexer reads numbers without a '+' sign, so "1e+06" is
				// written "1e06".
				v = strings.Replace(a.Text(), "e+", "e", 1)
			}
			if key := a.Key; key != "" {
				if !isIdent(key) {
					key = quote(key)
				}
				args[j] = key + "=" + v
			} else {
				args[j] = v
			}
		}
		parts[i] = s.Name + "(" + strings.Join(args, ", ") + ")"
	}
	return strings.Join(parts, " | ")
}

// quote renders s as a KGQ string literal. The lexer reads a backslash as
// "take the next character literally", so only the quote and the backslash
// itself are escaped; every other character, control characters included,
// is written raw.
func quote(s string) string { return `"` + stringEscaper.Replace(s) + `"` }

var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// identRune reports whether r may appear in an identifier, at its start when
// first is set.
func identRune(r rune, first bool) bool {
	return unicode.IsLetter(r) || r == '_' || r == '$' || (!first && unicode.IsDigit(r))
}

// isIdent reports whether the lexer reads s back as exactly one identifier.
func isIdent(s string) bool {
	for i, r := range s {
		if !identRune(r, i == 0) {
			return false
		}
	}
	return s != ""
}

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokEquals
	tokPipe
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

type lexer struct {
	src []rune
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokEquals, pos: start}, nil
	case c == '|':
		l.pos++
		return token{kind: tokPipe, pos: start}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
			}
			b.WriteRune(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("kgq: unterminated string at %d", start)
		}
		l.pos++
		return token{kind: tokString, text: b.String(), pos: start}, nil
	case unicode.IsDigit(c) || c == '-' || c == '.':
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == '-' || l.src[l.pos] == 'e') {
			l.pos++
		}
		text := string(l.src[start:l.pos])
		n, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("kgq: bad number %q at %d", text, start)
		}
		return token{kind: tokNumber, num: n, pos: start}, nil
	case identRune(c, true):
		for l.pos < len(l.src) && identRune(l.src[l.pos], false) {
			l.pos++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.pos]), pos: start}, nil
	}
	return token{}, fmt.Errorf("kgq: unexpected character %q at %d", c, start)
}

// Parse parses KGQ text into a Query.
func Parse(src string) (Query, error) {
	l := &lexer{src: []rune(src)}
	var q Query
	tok, err := l.next()
	if err != nil {
		return q, err
	}
	for {
		if tok.kind != tokIdent {
			return q, fmt.Errorf("kgq: expected operator name at %d", tok.pos)
		}
		stage := Stage{Name: tok.text}
		if tok, err = l.next(); err != nil {
			return q, err
		}
		if tok.kind != tokLParen {
			return q, fmt.Errorf("kgq: expected '(' after %s", stage.Name)
		}
		if tok, err = l.next(); err != nil {
			return q, err
		}
		for tok.kind != tokRParen {
			var arg Arg
			switch tok.kind {
			case tokIdent:
				name := tok.text
				if tok, err = l.next(); err != nil {
					return q, err
				}
				if tok.kind == tokEquals {
					if tok, err = l.next(); err != nil {
						return q, err
					}
					switch tok.kind {
					case tokString, tokIdent:
						arg = Arg{Key: name, Str: tok.text}
					case tokNumber:
						arg = Arg{Key: name, Num: tok.num, IsNum: true}
					default:
						return q, fmt.Errorf("kgq: expected value after %s=", name)
					}
					if tok, err = l.next(); err != nil {
						return q, err
					}
				} else {
					arg = Arg{Str: name} // bare identifier positional
					// tok already advanced
				}
			case tokString:
				arg = Arg{Str: tok.text}
				if tok, err = l.next(); err != nil {
					return q, err
				}
			case tokNumber:
				arg = Arg{Num: tok.num, IsNum: true}
				if tok, err = l.next(); err != nil {
					return q, err
				}
			default:
				return q, fmt.Errorf("kgq: unexpected token in arguments of %s at %d", stage.Name, tok.pos)
			}
			stage.Args = append(stage.Args, arg)
			if tok.kind == tokComma {
				if tok, err = l.next(); err != nil {
					return q, err
				}
			}
		}
		q.Stages = append(q.Stages, stage)
		if tok, err = l.next(); err != nil {
			return q, err
		}
		if tok.kind == tokEOF {
			return q, nil
		}
		if tok.kind != tokPipe {
			return q, fmt.Errorf("kgq: expected '|' between stages at %d", tok.pos)
		}
		if tok, err = l.next(); err != nil {
			return q, err
		}
	}
}
