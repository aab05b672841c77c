package was

import (
	"fmt"
	"strconv"
)

// maxArgs bounds a call's argument list: the arguments live in the FieldCall
// itself, and no application takes more than three.
const maxArgs = 8

// FieldCall is a parsed GraphQL-style field invocation such as
//
//	liveVideoComments(videoID: 7, viewer: 12)
//
// It is the surface syntax devices use for queries, mutations, and
// subscription expressions. Only the subset the Bladerunner applications
// need is supported: a field name and a flat argument list of strings and
// integers (Uint64Arg, StringArg), held as substrings of the expression.
type FieldCall struct {
	Name string
	args [maxArgs]struct{ name, value string }
	n    int
}

// ParseField scans a field invocation left to right, once. The grammar
// (spaces, tabs and newlines may separate any two tokens):
//
//	call  := name [ '(' [ arg { ',' arg } ] ')' ]
//	arg   := name ':' value
//	value := quoted-string | bare-word
//
// A quoted string is a Go string literal: `\"` does not end it. A bare word
// ends at white space, ',' or ')', and only those may follow a value.
func ParseField(expr string) (FieldCall, error) {
	var f FieldCall
	p := scanner{s: expr}
	p.space()
	if f.Name = p.name(); f.Name == "" {
		return FieldCall{}, fmt.Errorf("was: want a field name at offset %d of %q", p.i, expr)
	}
	if p.eat('(') && !p.eat(')') {
		for more := true; more; more = !p.eat(')') {
			if f.n > 0 && !p.eat(',') {
				return FieldCall{}, fmt.Errorf("was: want ',' or ')' at offset %d of %q", p.i, expr)
			}
			name := p.name()
			if name == "" || !p.eat(':') {
				return FieldCall{}, fmt.Errorf("was: want `name:` at offset %d of %q", p.i, expr)
			}
			value, err := p.value()
			if err != nil {
				return FieldCall{}, fmt.Errorf("was: argument %q of %q: %v", name, expr, err)
			}
			if _, dup := f.arg(name); dup {
				return FieldCall{}, fmt.Errorf("was: duplicate argument %q in %q", name, expr)
			}
			if f.n == maxArgs {
				return FieldCall{}, fmt.Errorf("was: more than %d arguments in %q", maxArgs, expr)
			}
			f.args[f.n].name, f.args[f.n].value = name, value
			f.n++
		}
	}
	if p.i != len(expr) {
		return FieldCall{}, fmt.Errorf("was: trailing input at offset %d of %q", p.i, expr)
	}
	return f, nil
}

// scanner is a position in an expression; what it returns are substrings.
type scanner struct {
	s string
	i int
}

func (p *scanner) space() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t' || p.s[p.i] == '\n' || p.s[p.i] == '\r') {
		p.i++
	}
}

// eat consumes c, and the space behind it, if c is next.
func (p *scanner) eat(c byte) bool {
	if p.i == len(p.s) || p.s[p.i] != c {
		return false
	}
	p.i++
	p.space()
	return true
}

// name consumes a name — letters, digits and '_', not starting with a digit
// — and the space behind it; "" when none is next.
func (p *scanner) name() string {
	start := p.i
	for ; p.i < len(p.s); p.i++ {
		c := p.s[p.i]
		if (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && c != '_' && (c < '0' || c > '9' || p.i == start) {
			break
		}
	}
	name := p.s[start:p.i]
	p.space()
	return name
}

// value consumes a quoted string or a bare word, and the space behind it.
func (p *scanner) value() (v string, err error) {
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '"' {
		for p.i++; p.i < len(p.s) && p.s[p.i] != '"'; p.i++ {
			if p.s[p.i] == '\\' {
				p.i++
			}
		}
		if p.i >= len(p.s) {
			return "", fmt.Errorf("unterminated string")
		}
		p.i++
		v, err = strconv.Unquote(p.s[start:p.i]) // allocates only when there are escapes
	} else {
		for p.i < len(p.s) && p.s[p.i] > ' ' && p.s[p.i] != ',' && p.s[p.i] != ')' {
			p.i++
		}
		if v = p.s[start:p.i]; v == "" {
			err = fmt.Errorf("no value")
		}
	}
	p.space()
	return v, err
}

func (f *FieldCall) arg(name string) (string, bool) {
	for _, a := range f.args[:f.n] {
		if a.name == name {
			return a.value, true
		}
	}
	return "", false
}

// Uint64Arg extracts a uint64 argument.
func (f FieldCall) Uint64Arg(name string) (uint64, error) {
	v, err := f.StringArg(name)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("was: %s: argument %q: %v", f.Name, name, err)
	}
	return n, nil
}

// StringArg extracts a string argument.
func (f FieldCall) StringArg(name string) (string, error) {
	v, ok := f.arg(name)
	if !ok {
		return "", fmt.Errorf("was: %s: missing argument %q", f.Name, name)
	}
	return v, nil
}
