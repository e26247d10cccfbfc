package xmltok

import (
	"io"
	"strings"

	"repro/internal/token"
)

// ParseOptions controls materializing parses.
type ParseOptions struct {
	// StripWhitespace drops text tokens that consist entirely of XML
	// whitespace (typical pretty-printing indentation).
	StripWhitespace bool
	// DropComments drops comment tokens.
	DropComments bool
	// DropPIs drops processing-instruction tokens.
	DropPIs bool
}

func isAllSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isSpace(s[i]) {
			return false
		}
	}
	return true
}

func collect(s *Scanner, opts ParseOptions) ([]token.Token, error) {
	var out []token.Token
	if s.r == nil {
		// String input: size the result once. A leaf element's two tags
		// carry its begin, text and end (1.5 tokens per '<'), an '=' an
		// attribute's pair; denser input grows the slice.
		lt := strings.Count(s.src, "<")
		out = make([]token.Token, 0, lt+lt/2+2*strings.Count(s.src, "=")+1)
	}
	for {
		n := len(out)
		var err error
		if out, err = s.read(out); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		if len(out) > n+1 {
			continue // an element begin and its attributes
		}
		switch t := out[n]; {
		case opts.StripWhitespace && t.Kind == token.Text && isAllSpace(t.Value),
			opts.DropComments && t.Kind == token.Comment,
			opts.DropPIs && t.Kind == token.PI:
			out = out[:n]
		}
	}
}

// Parse tokenizes a complete XML document from r. The result is the token
// sequence of the root element and any surrounding comments/PIs; document
// bracket tokens are not emitted (the store holds XQuery Data Model
// sequences, not document nodes).
func Parse(r io.Reader, opts ParseOptions) ([]token.Token, error) {
	return collect(NewScanner(r), opts)
}

// ParseString is Parse over a string, scanned in place: the returned tokens
// may share memory with s.
func ParseString(s string, opts ParseOptions) ([]token.Token, error) {
	return collect(newScanner(s, nil, false), opts)
}

// ParseFragment tokenizes an XML fragment (any sequence of top-level nodes).
func ParseFragment(r io.Reader, opts ParseOptions) ([]token.Token, error) {
	return collect(NewFragmentScanner(r), opts)
}

// ParseFragmentString is ParseFragment over a string, scanned in place: the
// returned tokens may share memory with s.
func ParseFragmentString(s string, opts ParseOptions) ([]token.Token, error) {
	return collect(newScanner(s, nil, true), opts)
}

// MustParse parses a trusted document literal, panicking on error. Intended
// for tests and examples.
func MustParse(s string) []token.Token {
	toks, err := ParseString(s, ParseOptions{StripWhitespace: true})
	if err != nil {
		panic(err)
	}
	return toks
}

// MustParseFragment parses a trusted fragment literal, panicking on error.
func MustParseFragment(s string) []token.Token {
	toks, err := ParseFragmentString(s, ParseOptions{StripWhitespace: true})
	if err != nil {
		panic(err)
	}
	return toks
}
