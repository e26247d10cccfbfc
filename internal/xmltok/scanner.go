// Package xmltok is a from-scratch pull-based XML tokenizer and serializer.
//
// It converts XML text into the enriched-event token stream of the token
// package (the BEA/XQRL-style representation the paper builds on): elements
// produce begin/end tokens, each attribute produces its own begin/end pair,
// and character data, comments and processing instructions are single
// tokens. The scanner checks well-formedness (tag balance, attribute
// uniqueness, legal name characters) and decodes the five predefined
// entities plus numeric character references.
//
// The scanner indexes its input instead of reading it rune by rune. A
// string is scanned in place: a name or value with no reference in it is a
// substring of the input, so returned tokens share memory with it. A reader
// is scanned through a window that is refilled only when a construct crosses
// its end, and a refill at least doubles what the window holds of that
// construct: memory is bounded by the window plus twice the largest token,
// and a long token costs linear time.
//
// Namespace prefixes are preserved literally in token names ("ns:local");
// the store treats names as opaque strings, which is sufficient for the
// paper's storage-level experiments.
package xmltok

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/token"
)

// SyntaxError describes a well-formedness violation with its byte offset in
// the input.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmltok: offset %d: %s", e.Offset, e.Msg)
}

// windowSize is how many bytes a reader-backed scanner asks for per refill.
const windowSize = 32 << 10

// errMore reports that a construct runs past the end of the window while the
// reader may still hold its rest: Next refills and scans the construct again.
var errMore = errors.New("xmltok: construct crosses the window")

// Scanner reads XML text and produces tokens one at a time.
type Scanner struct {
	src  string    // the input, or (reader input) the window onto it
	pos  int       // next byte of src to scan
	base int       // input offset of src[0]
	r    io.Reader // nil once the rest of the input is in src
	buf  []byte    // read buffer (reader input)

	stack   openNames
	pending []token.Token // the tokens of the construct Next is returning
	npend   int           // pending tokens already returned
	scratch []byte        // a value being decoded (references, CDATA)
	started bool          // saw the root element begin
	done    bool          // saw the root element end
	fragOK  bool          // allow multiple top-level nodes (fragment mode)
	err     error
}

// openNames is the stack of open elements' names. The innermost eight are
// held in the Scanner itself (a pointer into it would move a scanner made on
// the stack to the heap), deeper ones in a slice, so a shallow fragment's
// parse allocates no stack.
type openNames struct {
	n    int
	low  [8]string
	high []string // the names past len(low)
}

func (o *openNames) push(name string) {
	if o.n < len(o.low) {
		o.low[o.n] = name
	} else {
		o.high = append(o.high, name)
	}
	o.n++
}

func (o *openNames) pop() {
	if o.n--; o.n >= len(o.low) {
		o.high = o.high[:len(o.high)-1]
	}
}

func (o *openNames) top() string {
	if o.n > len(o.low) {
		return o.high[len(o.high)-1]
	}
	return o.low[o.n-1]
}

func newScanner(src string, r io.Reader, fragment bool) *Scanner {
	return &Scanner{src: src, r: r, fragOK: fragment}
}

// NewScanner returns a scanner over a complete XML document: exactly one
// root element, optional prolog, comments and PIs around it.
func NewScanner(r io.Reader) *Scanner { return newScanner("", r, false) }

// NewFragmentScanner returns a scanner that accepts a fragment: any sequence
// of elements, text, comments and PIs at top level.
func NewFragmentScanner(r io.Reader) *Scanner { return newScanner("", r, true) }

// Next returns the next token, or io.EOF after the last one.
func (s *Scanner) Next() (token.Token, error) {
	if s.npend < len(s.pending) {
		s.npend++
		return s.pending[s.npend-1], nil
	}
	if s.err != nil {
		return token.Token{}, s.err
	}
	s.pending, s.err = s.read(s.pending[:0])
	if s.err != nil {
		return token.Token{}, s.err
	}
	s.npend = 1
	return s.pending[0], nil
}

// read appends the tokens of the next construct that yields any to out: an
// element begin with its attributes (and its end if it closes itself), or
// one end, text, comment or PI token.
func (s *Scanner) read(out []token.Token) ([]token.Token, error) {
	n := len(out)
	for len(out) == n {
		start := s.pos
		var err error
		out, err = s.scan(out)
		if err == errMore {
			s.pos, out = start, out[:n]
			err = s.fill()
		}
		if err != nil {
			return out[:n], err
		}
	}
	return out, nil
}

// fill appends input to the unscanned tail of the window, src[pos:]: the
// start of the construct that crossed its end. It reads at least as many
// bytes as that tail holds, so the window doubles while one construct keeps
// crossing it: a construct T bytes long is copied and scanned again O(log T)
// times, and the window stays under twice it plus one Read.
func (s *Scanner) fill() error {
	if s.buf == nil {
		s.buf = make([]byte, windowSize)
	}
	tail := s.src[s.pos:]
	var w strings.Builder
	var err error
	for got, empty := 0, 0; got < max(len(tail), 1) && err == nil; {
		var n int
		if n, err = s.r.Read(s.buf); n == 0 {
			if empty++; empty == 100 && err == nil {
				err = io.ErrNoProgress
			}
			continue
		}
		if got == 0 {
			size := len(tail) + n
			if n < len(tail) {
				size += len(tail) // Reads like this one until they pass the tail
			}
			w.Grow(size)
			w.WriteString(tail)
		}
		w.Write(s.buf[:n])
		got += n
	}
	if w.Len() > 0 {
		s.base += s.pos
		s.src, s.pos = w.String(), 0
	}
	if err == io.EOF {
		s.r = nil
		return nil
	}
	return err
}

func (s *Scanner) errorf(i int, format string, args ...any) error {
	return &SyntaxError{Offset: s.base + i, Msg: fmt.Sprintf(format, args...)}
}

// short reports input that ended at src[i]: a syntax error at the end of the
// input, errMore while the reader may hold more.
func (s *Scanner) short(i int, format string, args ...any) error {
	if s.r != nil {
		return errMore
	}
	return s.errorf(i, format, args...)
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

func (s *Scanner) skipSpace(i int) int {
	for i < len(s.src) && isSpace(s.src[i]) {
		i++
	}
	return i
}

// scan appends the tokens of the next construct to out. Some constructs
// (top-level whitespace, an XML declaration, a DOCTYPE) append none. On an
// error, what it appended is the caller's to drop.
func (s *Scanner) scan(out []token.Token) ([]token.Token, error) {
	src, i := s.src, s.pos
	if s.stack.n == 0 {
		// Between top-level constructs, whitespace is insignificant.
		if i = s.skipSpace(i); i > s.pos {
			s.pos = i
			return out, nil
		}
	}
	if i == len(src) {
		if s.r != nil {
			return out, errMore
		}
		return out, s.finish()
	}
	if src[i] != '<' {
		if s.stack.n == 0 && !s.fragOK {
			return out, s.errorf(i, "character data outside root element")
		}
		return s.scanText(out, i)
	}
	if i+1 == len(src) {
		return out, s.short(i, "unexpected EOF after '<'")
	}
	switch src[i+1] {
	case '?':
		return s.scanPI(out, i+2)
	case '!':
		return s.scanBang(out, i+2)
	case '/':
		return s.scanEndTag(out, i+2)
	}
	return s.scanStartTag(out, i+1)
}

// finish maps the end of the input to either io.EOF or an error about
// dangling state.
func (s *Scanner) finish() error {
	if s.stack.n > 0 {
		return s.errorf(s.pos, "unexpected EOF: %d unclosed element(s), innermost <%s>", s.stack.n, s.stack.top())
	}
	if !s.fragOK && !s.started {
		return s.errorf(s.pos, "no root element")
	}
	return io.EOF
}

func isNameStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r|0x20 && r|0x20 <= 'z' || r == '_' || r == ':'
	}
	return unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	if r < utf8.RuneSelf {
		return isNameStart(r) || '0' <= r && r <= '9' || r == '-' || r == '.'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// name scans the XML name at src[i] and returns it with the index where
// scanning resumes: the byte after it, or past the non-ASCII rune that ended
// it (the rune-at-a-time scanner this one replaced consumed that rune).
func (s *Scanner) name(i int) (string, int, error) {
	src, j := s.src, i
	for j < len(src) {
		r, n := rune(src[j]), 1
		if r >= utf8.RuneSelf {
			var err error
			if r, n, err = s.runeAt(j); err != nil {
				return "", j, err
			}
		}
		if j == i && isNameStart(r) || j > i && isNameChar(r) {
			j += n
			continue
		}
		if j == i {
			return "", j, s.errorf(j, "invalid name start character %q", r)
		}
		if r < utf8.RuneSelf {
			n = 0 // an ASCII delimiter is the caller's
		}
		return src[i:j], j + n, nil
	}
	if j == i {
		return "", j, s.short(j, "unexpected EOF in name")
	}
	if s.r != nil {
		return "", j, errMore
	}
	return src[i:j], j, nil
}

// runeAt decodes the rune at src[j] the way a byte-at-a-time reader does:
// bytes are taken until they form a full rune or an invalid one, so a
// malformed sequence consumes the bytes it was judged on.
func (s *Scanner) runeAt(j int) (rune, int, error) {
	n := 1
	for n < utf8.UTFMax && !utf8.FullRuneInString(s.src[j:j+n]) {
		if j+n == len(s.src) {
			if s.r != nil {
				return 0, 0, errMore
			}
			break
		}
		n++
	}
	r, _ := utf8.DecodeRuneInString(s.src[j : j+n])
	return r, n, nil
}

// maxListAttrs is how many attributes an element may carry before duplicates
// are looked up in a map rather than among its pending attribute tokens, so
// an element with many attributes scans in linear time.
const maxListAttrs = 16

// hasAttr reports whether name is among the attribute tokens attrs (a begin
// and an end each). Once attrs holds maxListAttrs attributes, their names go
// into *seen, made then, and so does every name asked about after.
func hasAttr(attrs []token.Token, name string, seen *map[string]bool) bool {
	if *seen == nil {
		if len(attrs) < 2*maxListAttrs {
			for k := 0; k < len(attrs); k += 2 {
				if attrs[k].Name == name {
					return true
				}
			}
			return false
		}
		*seen = make(map[string]bool, len(attrs))
		for k := 0; k < len(attrs); k += 2 {
			(*seen)[attrs[k].Name] = true
		}
	}
	dup := (*seen)[name]
	(*seen)[name] = true
	return dup
}

// scanStartTag scans the element whose name starts at src[i]: its begin,
// its attributes, and its end if it closes itself.
func (s *Scanner) scanStartTag(out []token.Token, i int) ([]token.Token, error) {
	if s.done && !s.fragOK {
		return out, s.errorf(i, "content after root element")
	}
	name, i, err := s.name(i)
	if err != nil {
		return out, err
	}
	src := s.src
	out = append(out, token.Elem(name))
	attrs := len(out)
	var seen map[string]bool // the attribute names, past maxListAttrs of them
	selfClose := false
	for {
		if i = s.skipSpace(i); i == len(src) {
			return out, s.short(i, "unexpected EOF in tag <%s>", name)
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' {
			if i+1 == len(src) {
				return out, s.short(i, "unexpected EOF in tag <%s>", name)
			}
			if src[i+1] != '>' {
				return out, s.errorf(i, "expected '>' after '/' in tag <%s>", name)
			}
			i += 2
			selfClose = true
			break
		}
		var aname, val string
		if aname, i, err = s.name(i); err != nil {
			return out, err
		}
		if hasAttr(out[attrs:], aname, &seen) {
			return out, s.errorf(i, "duplicate attribute %q on <%s>", aname, name)
		}
		if i = s.skipSpace(i); i == len(src) {
			return out, s.short(i, "unexpected EOF after attribute name")
		}
		if src[i] != '=' {
			return out, s.errorf(i, "expected '=' after attribute %q", aname)
		}
		if i = s.skipSpace(i + 1); i == len(src) {
			return out, s.short(i, "unexpected EOF after '='")
		}
		if val, i, err = s.attrValue(i); err != nil {
			return out, err
		}
		out = append(out, token.Attr(aname, val), token.EndAttr())
	}
	s.pos, s.started = i, true
	if selfClose {
		out = append(out, token.EndElem())
		if s.stack.n == 0 {
			s.done = true
		}
	} else {
		s.stack.push(name)
	}
	return out, nil
}

// attrValue scans the quoted value at src[i] and returns it with the index
// past its closing quote.
func (s *Scanner) attrValue(i int) (string, int, error) {
	src, q := s.src, s.src[i]
	if q != '"' && q != '\'' {
		return "", i, s.errorf(i, "attribute value must be quoted")
	}
	i++
	start, lit := i, i
	s.scratch = s.scratch[:0]
	for i < len(src) {
		switch src[i] {
		case q:
			return s.value(start, lit, i), i + 1, nil
		case '<':
			return "", i, s.errorf(i, "'<' in attribute value")
		case '&':
			var err error
			if s.scratch, i, err = s.appendRef(append(s.scratch, src[lit:i]...), i); err != nil {
				return "", i, err
			}
			lit = i
		default:
			i++
		}
	}
	return "", i, s.short(i, "unexpected EOF in attribute value")
}

// value returns the text src[start:end] with its decoded part: nothing was
// decoded when lit is still start, so the value is a substring of src;
// otherwise scratch holds the decoded src[start:lit].
func (s *Scanner) value(start, lit, end int) string {
	if lit == start {
		return s.src[start:end]
	}
	s.scratch = append(s.scratch, s.src[lit:end]...)
	return string(s.scratch)
}

// scanEndTag scans the end tag whose name starts at src[i].
func (s *Scanner) scanEndTag(out []token.Token, i int) ([]token.Token, error) {
	name, i, err := s.name(i)
	if err != nil {
		return out, err
	}
	if i = s.skipSpace(i); i == len(s.src) {
		return out, s.short(i, "unexpected EOF in end tag </%s>", name)
	}
	if s.src[i] != '>' {
		return out, s.errorf(i, "expected '>' in end tag </%s>", name)
	}
	if s.stack.n == 0 {
		return out, s.errorf(i, "end tag </%s> without open element", name)
	}
	if top := s.stack.top(); top != name {
		return out, s.errorf(i, "end tag </%s> does not match open element <%s>", name, top)
	}
	s.stack.pop()
	if s.stack.n == 0 {
		s.done = true
	}
	s.pos = i + 1
	return append(out, token.EndElem()), nil
}

const cdataOpen = "<![CDATA["

// scanText accumulates character data from src[i] until the next markup.
// Entity and character references are decoded; CDATA sections met mid-text
// fold into the same text token.
func (s *Scanner) scanText(out []token.Token, i int) ([]token.Token, error) {
	src := s.src
	start, lit := i, i
	s.scratch = s.scratch[:0]
	for {
		end := len(src)
		if k := strings.IndexByte(src[i:], '<'); k >= 0 {
			end = i + k
		}
		// A reference that decodes holds no '<', so i stays within end.
		for k := strings.IndexByte(src[i:end], '&'); k >= 0; k = strings.IndexByte(src[i:end], '&') {
			var err error
			if s.scratch, i, err = s.appendRef(append(s.scratch, src[lit:i+k]...), i+k); err != nil {
				return out, err
			}
			lit = i
		}
		i = end
		if len(src)-i < len(cdataOpen) && s.r != nil {
			return out, errMore // the run may end at EOF, or at a CDATA section
		}
		if !strings.HasPrefix(src[i:], cdataOpen) {
			break
		}
		body, next, err := s.until(i+len(cdataOpen), "]]>", "unexpected EOF in CDATA section")
		if err != nil {
			return out, err
		}
		s.scratch = append(append(s.scratch, src[lit:i]...), body...)
		i, lit = next, next
	}
	s.pos = i
	return append(out, token.TextTok(s.value(start, lit, i))), nil
}

// until returns src[i:] up to the first delim and the index past the delim.
func (s *Scanner) until(i int, delim, eofMsg string) (string, int, error) {
	k := strings.Index(s.src[i:], delim)
	if k < 0 {
		return "", i, s.short(len(s.src), "%s", eofMsg)
	}
	return s.src[i : i+k], i + k + len(delim), nil
}

// maxRef is the longest entity or character reference name accepted.
const maxRef = 17

// appendRef decodes the entity or character reference whose '&' is at
// src[i] onto b and returns the index past its ';'.
func (s *Scanner) appendRef(b []byte, i int) ([]byte, int, error) {
	rest := s.src[i+1:]
	if len(rest) > maxRef+1 {
		rest = rest[:maxRef+1]
	}
	n := strings.IndexByte(rest, ';')
	if n < 0 {
		if len(rest) > maxRef {
			return b, i, s.errorf(i, "entity reference too long")
		}
		return b, i, s.short(i, "unexpected EOF in entity reference")
	}
	ref, end := rest[:n], i+n+2
	switch ref {
	case "lt":
		return append(b, '<'), end, nil
	case "gt":
		return append(b, '>'), end, nil
	case "amp":
		return append(b, '&'), end, nil
	case "apos":
		return append(b, '\''), end, nil
	case "quot":
		return append(b, '"'), end, nil
	}
	if num, ok := strings.CutPrefix(ref, "#"); ok {
		base := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num, base = num[1:], 16
		}
		n, err := strconv.ParseUint(num, base, 32)
		if err != nil || !utf8.ValidRune(rune(n)) {
			return b, i, s.errorf(i, "invalid character reference &%s;", ref)
		}
		return utf8.AppendRune(b, rune(n)), end, nil
	}
	return b, i, s.errorf(i, "unknown entity &%s;", ref)
}

// scanPI scans the processing instruction whose target starts at src[i]. An
// XML declaration is consumed without a token.
func (s *Scanner) scanPI(out []token.Token, i int) ([]token.Token, error) {
	name, i, err := s.name(i)
	if err != nil {
		return out, err
	}
	data, next, err := s.until(i, "?>", "unexpected EOF in processing instruction")
	if err != nil {
		return out, err
	}
	s.pos = next
	if strings.EqualFold(name, "xml") {
		return out, nil
	}
	return append(out, token.PITok(name, strings.TrimLeft(data, " \t\r\n"))), nil
}

// scanBang handles what follows "<!" at src[i]: comments, CDATA at the start
// of content, and DOCTYPE. An empty CDATA section yields no token: an empty
// text node would serialize as nothing and vanish on reload.
func (s *Scanner) scanBang(out []token.Token, i int) ([]token.Token, error) {
	src := s.src
	if len(src)-i < 2 {
		return out, s.short(i, "unexpected EOF after '<!'")
	}
	switch {
	case src[i] == '-' && src[i+1] == '-':
		text, next, err := s.until(i+2, "-->", "unexpected EOF in comment")
		if err != nil {
			return out, err
		}
		if strings.Contains(text, "--") {
			return out, s.errorf(i, "'--' inside comment")
		}
		s.pos = next
		return append(out, token.CommentTok(text)), nil
	case src[i] == '[':
		const open = "[CDATA["
		if len(src)-i < len(open) {
			return out, s.short(i, "malformed CDATA section")
		}
		if src[i:i+len(open)] != open {
			return out, s.errorf(i, "malformed CDATA section")
		}
		text, next, err := s.until(i+len(open), "]]>", "unexpected EOF in CDATA section")
		if err != nil {
			return out, err
		}
		s.pos = next
		if text == "" {
			return out, nil
		}
		return append(out, token.TextTok(text)), nil
	case src[i] == 'D' || src[i] == 'd':
		// DOCTYPE: skipped, tracking bracket nesting for an internal subset.
		// Entity declarations in the subset are not interpreted.
		depth := 0
		for ; i < len(src); i++ {
			switch src[i] {
			case '[':
				depth++
			case ']':
				depth--
			case '>':
				if depth <= 0 {
					s.pos = i + 1
					return out, nil
				}
			}
		}
		return out, s.short(i, "unexpected EOF in DOCTYPE")
	}
	return out, s.errorf(i, "unsupported '<!' construct")
}
