package xmltok

// The reference tokenizer: the package's earlier rune-at-a-time scanner over
// bufio, kept unchanged (only renamed) as the oracle FuzzScannerDifferential
// holds the indexing scanner to — the same tokens, or both reject.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/token"
)

// refParse tokenizes all of r with the reference scanner.
func refParse(r io.Reader, fragment bool) ([]token.Token, error) {
	s := newRefScanner(r)
	s.fragOK = fragment
	var out []token.Token
	for {
		t, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// refScanner reads XML text and produces tokens one at a time.
type refScanner struct {
	r       *bufio.Reader
	off     int // bytes consumed so far
	stack   []string
	pending []token.Token // queued tokens not yet returned (attrs after element begin)
	started bool          // saw the root element begin
	done    bool          // saw the root element end
	fragOK  bool          // allow multiple top-level nodes (fragment mode)
	err     error
}

// newRefScanner returns a scanner over a complete XML document: exactly one
// root element, optional prolog, comments and PIs around it.
func newRefScanner(r io.Reader) *refScanner {
	return &refScanner{r: bufio.NewReader(r)}
}

// newRefFragmentScanner returns a scanner that accepts a fragment: any sequence
// of elements, text, comments and PIs at top level.
func newRefFragmentScanner(r io.Reader) *refScanner {
	return &refScanner{r: bufio.NewReader(r), fragOK: true}
}

// Next returns the next token, or io.EOF after the last one.
func (s *refScanner) Next() (token.Token, error) {
	if len(s.pending) > 0 {
		t := s.pending[0]
		s.pending = s.pending[1:]
		return t, nil
	}
	if s.err != nil {
		return token.Token{}, s.err
	}
	t, err := s.scan()
	if err != nil {
		s.err = err
	}
	return t, err
}

func (s *refScanner) errorf(format string, args ...any) error {
	return &SyntaxError{Offset: s.off, Msg: fmt.Sprintf(format, args...)}
}

func (s *refScanner) readByte() (byte, error) {
	b, err := s.r.ReadByte()
	if err == nil {
		s.off++
	}
	return b, err
}

func (s *refScanner) unreadByte() {
	if err := s.r.UnreadByte(); err == nil {
		s.off--
	}
}

func (s *refScanner) peekByte() (byte, error) {
	b, err := s.r.Peek(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func refIsSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func (s *refScanner) skipSpace() error {
	for {
		b, err := s.peekByte()
		if err != nil {
			return err
		}
		if !refIsSpace(b) {
			return nil
		}
		s.readByte()
	}
}

// scan produces the next token from the input.
func (s *refScanner) scan() (token.Token, error) {
	atTop := len(s.stack) == 0
	if atTop {
		// Between top-level constructs, whitespace is insignificant.
		if err := s.skipSpace(); err != nil {
			return s.finish(err)
		}
	}
	b, err := s.peekByte()
	if err != nil {
		return s.finish(err)
	}
	if b != '<' {
		if atTop {
			if !s.fragOK {
				return token.Token{}, s.errorf("character data outside root element")
			}
			return s.scanText()
		}
		return s.scanText()
	}
	s.readByte() // consume '<'
	b, err = s.peekByte()
	if err != nil {
		return token.Token{}, s.errorf("unexpected EOF after '<'")
	}
	switch {
	case b == '?':
		return s.scanPI()
	case b == '!':
		return s.scanBang()
	case b == '/':
		s.readByte()
		return s.scanEndTag()
	default:
		return s.scanStartTag()
	}
}

// finish maps io.EOF to either a clean end of input or an error about
// dangling state.
func (s *refScanner) finish(err error) (token.Token, error) {
	if err != io.EOF {
		return token.Token{}, err
	}
	if len(s.stack) > 0 {
		return token.Token{}, s.errorf("unexpected EOF: %d unclosed element(s), innermost <%s>", len(s.stack), s.stack[len(s.stack)-1])
	}
	if !s.fragOK && !s.started {
		return token.Token{}, s.errorf("no root element")
	}
	return token.Token{}, io.EOF
}

func refIsNameStart(r rune) bool {
	return r == '_' || r == ':' || unicode.IsLetter(r)
}

func refIsNameChar(r rune) bool {
	return refIsNameStart(r) || r == '-' || r == '.' || unicode.IsDigit(r)
}

func (s *refScanner) scanName() (string, error) {
	var sb strings.Builder
	first := true
	for {
		r, err := s.readRune()
		if err != nil {
			if sb.Len() > 0 {
				return sb.String(), nil
			}
			return "", s.errorf("unexpected EOF in name")
		}
		if first {
			if !refIsNameStart(r) {
				s.unreadRune(r)
				return "", s.errorf("invalid name start character %q", r)
			}
			first = false
		} else if !refIsNameChar(r) {
			s.unreadRune(r)
			return sb.String(), nil
		}
		sb.WriteRune(r)
	}
}

// readRune reads one UTF-8 rune.
func (s *refScanner) readRune() (rune, error) {
	b, err := s.readByte()
	if err != nil {
		return 0, err
	}
	if b < utf8.RuneSelf {
		return rune(b), nil
	}
	// Multi-byte: collect continuation bytes.
	buf := []byte{b}
	for !utf8.FullRune(buf) && len(buf) < utf8.UTFMax {
		nb, err := s.readByte()
		if err != nil {
			break
		}
		buf = append(buf, nb)
	}
	r, _ := utf8.DecodeRune(buf)
	return r, nil
}

// unreadRune pushes back a single-byte rune; multi-byte runes are never
// pushed back by the scanner (names end at ASCII delimiters).
func (s *refScanner) unreadRune(r rune) {
	if r < utf8.RuneSelf {
		s.unreadByte()
	}
}

func (s *refScanner) scanStartTag() (token.Token, error) {
	if s.done && !s.fragOK {
		return token.Token{}, s.errorf("content after root element")
	}
	name, err := s.scanName()
	if err != nil {
		return token.Token{}, err
	}
	begin := token.Elem(name)
	var attrs []token.Token
	seen := map[string]bool{}
	selfClose := false
	for {
		if err := s.skipSpace(); err != nil {
			return token.Token{}, s.errorf("unexpected EOF in tag <%s>", name)
		}
		b, err := s.peekByte()
		if err != nil {
			return token.Token{}, s.errorf("unexpected EOF in tag <%s>", name)
		}
		if b == '>' {
			s.readByte()
			break
		}
		if b == '/' {
			s.readByte()
			b2, err := s.readByte()
			if err != nil || b2 != '>' {
				return token.Token{}, s.errorf("expected '>' after '/' in tag <%s>", name)
			}
			selfClose = true
			break
		}
		aname, err := s.scanName()
		if err != nil {
			return token.Token{}, err
		}
		if seen[aname] {
			return token.Token{}, s.errorf("duplicate attribute %q on <%s>", aname, name)
		}
		seen[aname] = true
		if err := s.skipSpace(); err != nil {
			return token.Token{}, s.errorf("unexpected EOF after attribute name")
		}
		b, err = s.readByte()
		if err != nil || b != '=' {
			return token.Token{}, s.errorf("expected '=' after attribute %q", aname)
		}
		if err := s.skipSpace(); err != nil {
			return token.Token{}, s.errorf("unexpected EOF after '='")
		}
		val, err := s.scanAttrValue()
		if err != nil {
			return token.Token{}, err
		}
		attrs = append(attrs, token.Attr(aname, val), token.EndAttr())
	}
	s.started = true
	if selfClose {
		attrs = append(attrs, token.EndElem())
		if len(s.stack) == 0 {
			s.done = true
		}
	} else {
		s.stack = append(s.stack, name)
	}
	s.pending = attrs
	return begin, nil
}

func (s *refScanner) scanAttrValue() (string, error) {
	q, err := s.readByte()
	if err != nil {
		return "", s.errorf("unexpected EOF before attribute value")
	}
	if q != '"' && q != '\'' {
		return "", s.errorf("attribute value must be quoted")
	}
	var sb strings.Builder
	for {
		b, err := s.readByte()
		if err != nil {
			return "", s.errorf("unexpected EOF in attribute value")
		}
		switch b {
		case q:
			return sb.String(), nil
		case '<':
			return "", s.errorf("'<' in attribute value")
		case '&':
			r, err := s.scanReference()
			if err != nil {
				return "", err
			}
			sb.WriteString(r)
		default:
			sb.WriteByte(b)
		}
	}
}

func (s *refScanner) scanEndTag() (token.Token, error) {
	name, err := s.scanName()
	if err != nil {
		return token.Token{}, err
	}
	if err := s.skipSpace(); err != nil {
		return token.Token{}, s.errorf("unexpected EOF in end tag </%s>", name)
	}
	b, err := s.readByte()
	if err != nil || b != '>' {
		return token.Token{}, s.errorf("expected '>' in end tag </%s>", name)
	}
	if len(s.stack) == 0 {
		return token.Token{}, s.errorf("end tag </%s> without open element", name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return token.Token{}, s.errorf("end tag </%s> does not match open element <%s>", name, top)
	}
	s.stack = s.stack[:len(s.stack)-1]
	if len(s.stack) == 0 {
		s.done = true
	}
	return token.EndElem(), nil
}

// scanText accumulates character data until the next markup. Entity and
// character references are decoded. CDATA sections encountered mid-text are
// folded into the same text token.
func (s *refScanner) scanText() (token.Token, error) {
	var sb strings.Builder
	for {
		b, err := s.peekByte()
		if err != nil {
			break
		}
		if b == '<' {
			// CDATA folds into the current text run; other markup ends it.
			if s.peekCDATA() {
				if err := s.scanCDATA(&sb); err != nil {
					return token.Token{}, err
				}
				continue
			}
			break
		}
		s.readByte()
		if b == '&' {
			r, err := s.scanReference()
			if err != nil {
				return token.Token{}, err
			}
			sb.WriteString(r)
			continue
		}
		sb.WriteByte(b)
	}
	return token.TextTok(sb.String()), nil
}

func (s *refScanner) peekCDATA() bool {
	b, err := s.r.Peek(9)
	if err != nil {
		return false
	}
	return string(b) == "<![CDATA["
}

func (s *refScanner) scanCDATA(sb *strings.Builder) error {
	for i := 0; i < 9; i++ {
		s.readByte()
	}
	var tail [3]byte
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errorf("unexpected EOF in CDATA section")
		}
		tail[0], tail[1], tail[2] = tail[1], tail[2], b
		sb.WriteByte(b)
		if tail == [3]byte{']', ']', '>'} {
			str := sb.String()
			sb.Reset()
			sb.WriteString(str[:len(str)-3])
			return nil
		}
	}
}

// scanReference decodes an entity or character reference after the '&'.
func (s *refScanner) scanReference() (string, error) {
	var sb strings.Builder
	for {
		b, err := s.readByte()
		if err != nil {
			return "", s.errorf("unexpected EOF in entity reference")
		}
		if b == ';' {
			break
		}
		if sb.Len() > 16 {
			return "", s.errorf("entity reference too long")
		}
		sb.WriteByte(b)
	}
	ref := sb.String()
	switch ref {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return `"`, nil
	}
	if strings.HasPrefix(ref, "#") {
		num := ref[1:]
		base := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num, base = num[1:], 16
		}
		n, err := strconv.ParseUint(num, base, 32)
		if err != nil || !utf8.ValidRune(rune(n)) {
			return "", s.errorf("invalid character reference &%s;", ref)
		}
		return string(rune(n)), nil
	}
	return "", s.errorf("unknown entity &%s;", ref)
}

func (s *refScanner) scanPI() (token.Token, error) {
	s.readByte() // '?'
	name, err := s.scanName()
	if err != nil {
		return token.Token{}, err
	}
	var sb strings.Builder
	var tail [2]byte
	for {
		b, err := s.readByte()
		if err != nil {
			return token.Token{}, s.errorf("unexpected EOF in processing instruction")
		}
		tail[0], tail[1] = tail[1], b
		sb.WriteByte(b)
		if tail == [2]byte{'?', '>'} {
			data := strings.TrimLeft(sb.String()[:sb.Len()-2], " \t\r\n")
			if strings.EqualFold(name, "xml") {
				// XML declaration: swallow it, produce the following token.
				return s.scan()
			}
			return token.PITok(name, data), nil
		}
	}
}

// scanBang handles comments, CDATA at top of content, and DOCTYPE.
func (s *refScanner) scanBang() (token.Token, error) {
	s.readByte() // '!'
	b, err := s.r.Peek(2)
	if err != nil {
		return token.Token{}, s.errorf("unexpected EOF after '<!'")
	}
	switch {
	case string(b) == "--":
		s.readByte()
		s.readByte()
		return s.scanComment()
	case b[0] == '[':
		// CDATA outside scanText means element content beginning with CDATA.
		var sb strings.Builder
		// Back up conceptually: we already consumed "<!", so check "[CDATA[".
		head, err := s.r.Peek(7)
		if err != nil || string(head) != "[CDATA[" {
			return token.Token{}, s.errorf("malformed CDATA section")
		}
		for i := 0; i < 7; i++ {
			s.readByte()
		}
		var tail [3]byte
		for {
			c, err := s.readByte()
			if err != nil {
				return token.Token{}, s.errorf("unexpected EOF in CDATA section")
			}
			tail[0], tail[1], tail[2] = tail[1], tail[2], c
			sb.WriteByte(c)
			if tail == [3]byte{']', ']', '>'} {
				str := sb.String()
				if len(str) == 3 {
					return s.scan() // an empty section is no text node
				}
				return token.TextTok(str[:len(str)-3]), nil
			}
		}
	case b[0] == 'D' || b[0] == 'd':
		if err := s.skipDoctype(); err != nil {
			return token.Token{}, err
		}
		return s.scan()
	default:
		return token.Token{}, s.errorf("unsupported '<!' construct")
	}
}

func (s *refScanner) scanComment() (token.Token, error) {
	var sb strings.Builder
	var tail [3]byte
	for {
		b, err := s.readByte()
		if err != nil {
			return token.Token{}, s.errorf("unexpected EOF in comment")
		}
		tail[0], tail[1], tail[2] = tail[1], tail[2], b
		sb.WriteByte(b)
		if tail == [3]byte{'-', '-', '>'} {
			text := sb.String()
			text = text[:len(text)-3]
			if strings.Contains(text, "--") {
				return token.Token{}, s.errorf("'--' inside comment")
			}
			return token.CommentTok(text), nil
		}
	}
}

// skipDoctype consumes a DOCTYPE declaration, tracking bracket nesting for an
// internal subset. Entity declarations in the subset are not interpreted.
func (s *refScanner) skipDoctype() error {
	depth := 0
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errorf("unexpected EOF in DOCTYPE")
		}
		switch b {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}
