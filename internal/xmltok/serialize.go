package xmltok

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/token"
)

// Appender is the state of one XML rendering: which elements are open and
// whether the last start tag still waits for its '>' (an element that closes
// right away is written self-closing). AppendToken drives it; it is the one
// place that knows how tokens become XML text, whether they arrive as
// materialized Tokens (Serializer) or as the stored bytes (the store's
// AppendNodeXML). The zero value is ready; Reset readies a used one.
type Appender struct {
	names   []byte // names of the open elements, back to back
	starts  []int  // where each begins in names
	openTag bool   // begin element written, '>' not yet emitted
}

// Reset forgets any rendering in progress, keeping the allocated state.
func (a *Appender) Reset() {
	a.names, a.starts, a.openTag = a.names[:0], a.starts[:0], false
}

// AppendToken appends the XML text of one token — its kind with its name and
// value, as strings or as bytes — to dst. It is the inverse of the Scanner
// for well-formed streams. Document brackets have no textual form.
func AppendToken[S ~string | ~[]byte](a *Appender, dst []byte, k token.Kind, name, value S) ([]byte, error) {
	switch k {
	case token.BeginDocument, token.EndDocument:
	case token.BeginElement:
		dst = a.closeOpenTag(dst)
		dst = append(append(dst, '<'), name...)
		a.openTag = true
		a.starts = append(a.starts, len(a.names))
		a.names = append(a.names, name...)
	case token.BeginAttribute:
		if !a.openTag {
			return dst, fmt.Errorf("xmltok: attribute %q outside element start", name)
		}
		dst = append(append(append(dst, ' '), name...), '=', '"')
		dst = append(appendEscaped(dst, value, '"'), '"')
	case token.EndAttribute:
		if !a.openTag {
			return dst, fmt.Errorf("xmltok: end-attribute outside element start")
		}
	case token.EndElement:
		if len(a.starts) == 0 {
			return dst, fmt.Errorf("xmltok: end element without open element")
		}
		start := a.starts[len(a.starts)-1]
		if a.openTag {
			dst = append(dst, '/', '>')
			a.openTag = false
		} else {
			dst = append(append(append(dst, '<', '/'), a.names[start:]...), '>')
		}
		a.names, a.starts = a.names[:start], a.starts[:len(a.starts)-1]
	case token.Text:
		dst = appendEscaped(a.closeOpenTag(dst), value, '>')
	case token.Comment:
		dst = append(append(append(a.closeOpenTag(dst), "<!--"...), value...), "-->"...)
	case token.PI:
		dst = append(append(append(a.closeOpenTag(dst), '<', '?'), name...), ' ')
		dst = append(append(dst, value...), '?', '>')
	default:
		return dst, fmt.Errorf("xmltok: cannot serialize %s", k)
	}
	return dst, nil
}

func (a *Appender) closeOpenTag(dst []byte) []byte {
	if a.openTag {
		dst = append(dst, '>')
		a.openTag = false
	}
	return dst
}

// Finish completes the rendering: it reports an error if elements remain
// open, and closes a start tag still waiting for its '>'.
func (a *Appender) Finish(dst []byte) ([]byte, error) {
	if len(a.starts) > 0 {
		return dst, fmt.Errorf("xmltok: %d unclosed element(s) at flush", len(a.starts))
	}
	return a.closeOpenTag(dst), nil
}

// appendEscaped appends character data with & and < escaped, and third — '>'
// in element content, '"' in a double-quoted attribute value.
func appendEscaped[S ~string | ~[]byte](dst []byte, s S, third byte) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c != third:
			continue
		case c == '>':
			esc = "&gt;"
		default:
			esc = "&quot;"
		}
		dst = append(append(dst, s[from:i]...), esc...)
		from = i + 1
	}
	return append(dst, s[from:]...)
}

// serializerFlushBytes is how much text a Serializer gathers between writes.
const serializerFlushBytes = 4096

// Serializer writes a token stream back out as XML text: AppendToken behind
// an io.Writer, for callers that hold Tokens and stream the result.
type Serializer struct {
	w   io.Writer
	a   Appender
	buf []byte
	err error
}

// NewSerializer returns a Serializer writing to w.
func NewSerializer(w io.Writer) *Serializer {
	return &Serializer{w: w}
}

// Write emits one token. The first error is kept and returned by every later
// call.
func (s *Serializer) Write(t token.Token) error {
	if s.err != nil {
		return s.err
	}
	s.buf, s.err = AppendToken(&s.a, s.buf, t.Kind, t.Name, t.Value)
	if s.err == nil && len(s.buf) >= serializerFlushBytes {
		s.err = s.flush()
	}
	return s.err
}

func (s *Serializer) flush() error {
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Flush completes serialization and writes out buffered output. It reports an
// error if elements remain open.
func (s *Serializer) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.buf, s.err = s.a.Finish(s.buf); s.err != nil {
		return s.err
	}
	s.err = s.flush()
	return s.err
}

// Serialize writes the whole token sequence to w as XML.
func Serialize(w io.Writer, seq []token.Token) error {
	s := NewSerializer(w)
	for _, t := range seq {
		if err := s.Write(t); err != nil {
			return err
		}
	}
	return s.Flush()
}

// ToString renders a token sequence as an XML string, for tests, examples
// and the CLI.
func ToString(seq []token.Token) (string, error) {
	var sb strings.Builder
	if err := Serialize(&sb, seq); err != nil {
		return "", err
	}
	return sb.String(), nil
}
