package xmltok

import (
	"io"
	"slices"
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

// collect appends every token s yields to dst. On an error it returns dst
// as it came, with the error.
func collect(dst []token.Token, s *Scanner, opts ParseOptions) ([]token.Token, error) {
	if s.r == nil {
		// String input: size the room once. A leaf element's two tags
		// carry its begin, text and end (1.5 tokens per '<'), an '=' an
		// attribute's pair; denser input grows the slice.
		lt := strings.Count(s.src, "<")
		dst = slices.Grow(dst, lt+lt/2+2*strings.Count(s.src, "=")+1)
	}
	out := dst
	for {
		n := len(out)
		var err error
		if out, err = s.read(out); err == io.EOF {
			return out, nil
		} else if err != nil {
			return dst, err
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
	return parsed(collect(nil, NewScanner(r), opts))
}

// ParseString is Parse over a string, scanned in place: the returned tokens
// may share memory with s.
func ParseString(s string, opts ParseOptions) ([]token.Token, error) {
	return parsed(collect(nil, newScanner(s, nil, false), opts))
}

// ParseFragment tokenizes an XML fragment (any sequence of top-level nodes).
func ParseFragment(r io.Reader, opts ParseOptions) ([]token.Token, error) {
	return parsed(collect(nil, NewFragmentScanner(r), opts))
}

// ParseFragmentString is ParseFragment over a string, scanned in place: the
// returned tokens may share memory with s.
func ParseFragmentString(s string, opts ParseOptions) ([]token.Token, error) {
	return parsed(AppendFragment(nil, s, opts))
}

// AppendFragment is ParseFragmentString appending to dst: the fragment's
// tokens go after dst's, in dst's array while it has room, so a caller that
// parses one fragment after another into the same slice allocates for none
// of them once the slice has grown. On an error dst comes back as it was.
// The tokens share memory with s.
func AppendFragment(dst []token.Token, s string, opts ParseOptions) ([]token.Token, error) {
	sc := Scanner{src: s, fragOK: true}
	return collect(dst, &sc, opts)
}

// parsed is what the allocating parses return: nil with an error.
func parsed(toks []token.Token, err error) ([]token.Token, error) {
	if err != nil {
		return nil, err
	}
	return toks, nil
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
