package token

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Binary token encoding.
//
// Tokens are stored as a compact, self-delimiting byte sequence so that a
// Range (a token subsequence) can be serialized into block storage and
// decoded token by token. The layout of one token is
//
//	kind    1 byte   (low 7 bits: the Kind; bit 7, nameRef: the name is an id)
//	type    uvarint  (PSVI annotation; omitted encoding value 0 is common)
//	name    nameRef clear: nameLen uvarint, name bytes
//	        nameRef set:   id uvarint, an entry of the store's Dict
//	        (only for kinds that carry a name)
//	valLen  uvarint, value bytes  (only for kinds that carry a value)
//
// Kinds without name/value (end tokens, document brackets) occupy two bytes.
// Every uvarint is minimal, so a token has exactly one encoding. Node
// identifiers are not encoded; they are regenerated on decode by the caller.
//
// A name by id costs one byte for the first 128 names of a Dict instead of
// its length and its bytes. Inline names stay valid beside ids: a nil *Dict
// writes and reads them only, and a Dict with no room left writes a new name
// inline. A decoder that predates nameRef rejects such a kind byte with
// ErrBadKind; it never misreads one.

// Encoding errors.
var (
	ErrShortBuffer = errors.New("token: short buffer")
	ErrBadKind     = errors.New("token: invalid kind byte")
	ErrBadVarint   = errors.New("token: overlong or overflowing varint")
	// ErrUnknownName is a name id with no entry in the dictionary decoding
	// it: the bytes and the dictionary disagree, which is corruption.
	ErrUnknownName = errors.New("token: name id not in the dictionary")
)

// nameRef is the kind-byte flag of a token whose name is a dictionary id.
const nameRef = 0x80

// KindOf returns the kind of the encoded token whose first byte is c,
// whichever form its name takes. Scans classify tokens with it without
// decoding them.
func KindOf(c byte) Kind { return Kind(c &^ nameRef) }

func kindHasName(k Kind) bool {
	switch k {
	case BeginElement, BeginAttribute, PI:
		return true
	}
	return false
}

func kindHasValue(k Kind) bool {
	switch k {
	case BeginAttribute, Text, Comment, PI:
		return true
	}
	return false
}

// EncodedSize returns the number of bytes Append will write for t.
func EncodedSize(t Token) int {
	n := 1 + uvarintLen(uint64(t.Type))
	if kindHasName(t.Kind) {
		n += uvarintLen(uint64(len(t.Name))) + len(t.Name)
	}
	if kindHasValue(t.Kind) {
		n += uvarintLen(uint64(len(t.Value))) + len(t.Value)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Dict is a store-wide, append-only name dictionary: the i-th name it
// learns gets id i, and an encoder given the Dict writes that id in place
// of the name. It learns lazily — a name enters the first time a token
// carrying it is encoded, while the encoded table stays within the limit
// given to NewDict — and never forgets, except when Load replaces the whole
// table. A nil *Dict is the inline codec: it writes every name in full and
// decodes only inline names.
//
// Decoders read the current table through one atomic load and get the
// interned name, so decoding a name by id allocates nothing. Learning is
// serialized by an internal mutex; a decoder sees every id encoded before
// the bytes it decodes were published to it.
type Dict struct {
	mu    sync.Mutex
	ids   map[string]uint64 // guarded by mu
	limit int
	tab   atomic.Pointer[dictTable]
	onBad func(error)
}

// dictTable is one immutable generation of a Dict's id → name table. A
// new name makes a new generation that shares the older one's arrays: an
// older generation never reads past its own length, and Load starts fresh
// arrays, so no slot a reader can see is ever written again.
type dictTable struct {
	names []string
	raw   [][]byte
	size  int // encoded size of the table (AppendTable)
}

// NewDict returns an empty dictionary whose encoded table (AppendTable)
// never exceeds limit bytes. onBad, when not nil, hears of every id a
// decode finds missing from the table, once per occurrence — a store
// degrades itself on it.
func NewDict(limit int, onBad func(error)) *Dict {
	d := &Dict{ids: make(map[string]uint64), limit: limit, onBad: onBad}
	d.tab.Store(&dictTable{})
	return d
}

// Len returns the number of names the dictionary holds.
func (d *Dict) Len() int {
	if d == nil {
		return 0
	}
	return len(d.tab.Load().names)
}

// AppendTable appends the dictionary's table to dst: each name in id
// order as a uvarint length and the name's bytes. Load reads it back.
func (d *Dict) AppendTable(dst []byte) []byte {
	if d == nil {
		return dst
	}
	for _, name := range d.tab.Load().names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// Load replaces the dictionary's table with the one AppendTable wrote into
// b. A malformed table — cut short, a repeated name, more than the limit —
// is an error and leaves the dictionary as it was.
func (d *Dict) Load(b []byte) error {
	if len(b) > d.limit {
		return fmt.Errorf("token: dictionary table of %d bytes exceeds its limit of %d", len(b), d.limit)
	}
	tab := &dictTable{size: len(b)}
	ids := make(map[string]uint64)
	for pos := 0; pos < len(b); {
		n, at, err := uvarintAt(b, pos)
		if err == nil && n > uint64(len(b)-at) {
			err = ErrShortBuffer
		}
		if err != nil {
			return fmt.Errorf("token: dictionary table: %w", err)
		}
		pos = at + int(n)
		s := string(b[at:pos])
		if _, dup := ids[s]; dup {
			return fmt.Errorf("token: dictionary table names %q twice", s)
		}
		ids[s] = uint64(len(tab.names))
		tab.names = append(tab.names, s)
		tab.raw = append(tab.raw, []byte(s))
	}
	d.mu.Lock()
	d.ids = ids
	d.tab.Store(tab)
	d.mu.Unlock()
	return nil
}

// idLocked returns name's id, learning it when the table has room (d.mu
// held). ok is false for a name that stays inline: the empty name, which an
// id would not shorten, and any name past the limit.
func (d *Dict) idLocked(name string) (id uint64, ok bool) {
	if id, ok := d.ids[name]; ok {
		return id, true
	}
	old := d.tab.Load()
	size := old.size + uvarintLen(uint64(len(name))) + len(name)
	if name == "" || size > d.limit {
		return 0, false
	}
	id = uint64(len(old.names))
	name = strings.Clone(name) // not the document it was parsed from
	d.ids[name] = id
	d.tab.Store(&dictTable{
		names: append(old.names, name),
		raw:   append(old.raw, []byte(name)),
		size:  size,
	})
	return id, true
}

// Append encodes t and appends the bytes to dst, returning the extended
// slice. The name is written inline.
func Append(dst []byte, t Token) []byte {
	dst = append(dst, byte(t.Kind))
	dst = binary.AppendUvarint(dst, uint64(t.Type))
	if kindHasName(t.Kind) {
		dst = binary.AppendUvarint(dst, uint64(len(t.Name)))
		dst = append(dst, t.Name...)
	}
	if kindHasValue(t.Kind) {
		dst = binary.AppendUvarint(dst, uint64(len(t.Value)))
		dst = append(dst, t.Value...)
	}
	return dst
}

// Append encodes t, its name by id when d has or can learn one; a nil d
// writes it inline.
func (d *Dict) Append(dst []byte, t Token) []byte {
	if d == nil || !kindHasName(t.Kind) {
		return Append(dst, t)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(dst, t)
}

// appendLocked is Append for a token with a name, d.mu held.
func (d *Dict) appendLocked(dst []byte, t Token) []byte {
	id, ok := d.idLocked(t.Name)
	if !ok {
		return Append(dst, t)
	}
	dst = append(dst, byte(t.Kind)|nameRef)
	dst = binary.AppendUvarint(dst, uint64(t.Type))
	dst = binary.AppendUvarint(dst, id)
	if kindHasValue(t.Kind) {
		dst = binary.AppendUvarint(dst, uint64(len(t.Value)))
		dst = append(dst, t.Value...)
	}
	return dst
}

// AppendAll encodes every token of seq inline, appending to dst.
func AppendAll(dst []byte, seq []Token) []byte {
	for _, t := range seq {
		dst = Append(dst, t)
	}
	return dst
}

// AppendAll encodes every token of seq through d, appending to dst.
func (d *Dict) AppendAll(dst []byte, seq []Token) []byte {
	if d == nil {
		return AppendAll(dst, seq)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range seq {
		if kindHasName(t.Kind) {
			dst = d.appendLocked(dst, t)
		} else {
			dst = Append(dst, t)
		}
	}
	return dst
}

// EncodeAll returns the inline binary encoding of seq.
func EncodeAll(seq []Token) []byte { return (*Dict)(nil).EncodeAll(seq) }

// EncodeAll returns the binary encoding of seq through d. The buffer is
// sized for the inline form, which bounds the id form of every name but the
// empty one (which stays inline).
func (d *Dict) EncodeAll(seq []Token) []byte {
	n := 0
	for _, t := range seq {
		n += EncodedSize(t)
	}
	return d.AppendAll(make([]byte, 0, n), seq)
}

// shape is what a kind byte says about the token it starts: zero for a
// byte that starts no valid token.
type shape uint8

const (
	shapeValid shape = 1 << iota
	shapeName        // the token carries a name
	shapeRef         // the name is a dictionary id
	shapeValue       // the token carries a value
)

// shapes classifies every kind byte, so a decoder learns a token's layout
// with one load.
var shapes = func() (t [256]shape) {
	for c := range t {
		k, ref := KindOf(byte(c)), c&nameRef != 0
		if !k.Valid() || ref && !kindHasName(k) {
			continue
		}
		t[c] = shapeValid
		if kindHasName(k) {
			t[c] |= shapeName
		}
		if ref {
			t[c] |= shapeRef
		}
		if kindHasValue(k) {
			t[c] |= shapeValue
		}
	}
	return t
}()

// uvarintAt reads the uvarint at b[pos:], returning it and the position
// after it: a longer encoding of a smaller value, or one that overflows 64
// bits, is ErrBadVarint. (Size and View take a one-byte varint inline and
// call it for the rest.)
func uvarintAt(b []byte, pos int) (uint64, int, error) {
	if pos >= len(b) {
		return 0, pos, ErrShortBuffer
	}
	v, n := binary.Uvarint(b[pos:])
	switch {
	case n == 0:
		return 0, pos, ErrShortBuffer
	case n < 0 || n > 1 && b[pos+n-1] == 0:
		return 0, pos, ErrBadVarint
	}
	return v, pos + n, nil
}

// nameBytes and nameString return name id's interned bytes or string; ok
// is false for an id the table does not hold (see unknown). Both inline into
// the decoders.
func (d *Dict) nameBytes(id uint64) (raw []byte, ok bool) {
	if d == nil {
		return nil, false
	}
	if tab := d.tab.Load(); id < uint64(len(tab.raw)) {
		return tab.raw[id], true
	}
	return nil, false
}

func (d *Dict) nameString(id uint64) (name string, ok bool) {
	if d == nil {
		return "", false
	}
	if tab := d.tab.Load(); id < uint64(len(tab.names)) {
		return tab.names[id], true
	}
	return "", false
}

// unknown reports id missing from the table to onBad and returns the error.
func (d *Dict) unknown(id uint64) error {
	err := fmt.Errorf("%w: id %d", ErrUnknownName, id)
	if d != nil && d.onBad != nil {
		d.onBad(err)
	}
	return err
}

// Decode decodes one token with an inline name from the front of b,
// returning the token and the number of bytes consumed.
func Decode(b []byte) (Token, int, error) { return (*Dict)(nil).Decode(b) }

// Decode decodes one token from the front of b, either name form; a name
// by id comes back as d's interned string.
func (d *Dict) Decode(b []byte) (Token, int, error) {
	if len(b) == 0 {
		return Token{}, 0, ErrShortBuffer
	}
	sh := shapes[b[0]]
	if sh == 0 {
		return Token{}, 0, fmt.Errorf("%w: %d", ErrBadKind, b[0])
	}
	// View's reads, building strings: a name by id is the interned one.
	var typ, n uint64
	var err error
	pos := 1
	if pos < len(b) && b[pos] < 0x80 {
		typ, pos = uint64(b[pos]), pos+1
	} else if typ, pos, err = uvarintAt(b, pos); err != nil {
		return Token{}, 0, err
	}
	if typ > math.MaxUint32 {
		return Token{}, 0, ErrBadVarint
	}
	t := Token{Kind: KindOf(b[0]), Type: Type(typ)}
	if sh&shapeName != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return Token{}, 0, err
		}
		if sh&shapeRef != 0 {
			var ok bool
			if t.Name, ok = d.nameString(n); !ok {
				return Token{}, 0, d.unknown(n)
			}
		} else {
			if n > uint64(len(b)-pos) {
				return Token{}, 0, ErrShortBuffer
			}
			t.Name, pos = string(b[pos:pos+int(n)]), pos+int(n)
		}
	}
	if sh&shapeValue != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return Token{}, 0, err
		}
		if n > uint64(len(b)-pos) {
			return Token{}, 0, ErrShortBuffer
		}
		t.Value, pos = string(b[pos:pos+int(n)]), pos+int(n)
	}
	return t, pos, nil
}

// DecodeAll decodes an entire inline-named buffer into a token slice.
func DecodeAll(b []byte) ([]Token, error) { return (*Dict)(nil).DecodeAll(b) }

// DecodeAll decodes the entire buffer through d into a token slice.
func (d *Dict) DecodeAll(b []byte) ([]Token, error) {
	var out []Token
	for len(b) > 0 {
		t, n, err := d.Decode(b)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		b = b[n:]
	}
	return out, nil
}

// Reader decodes tokens one at a time from a byte buffer, tracking the byte
// offset of each token. It is the decoding half of the store's range scans.
type Reader struct {
	dict *Dict
	buf  []byte
	off  int
}

// NewReader returns a Reader over the inline-named token bytes in buf.
func NewReader(buf []byte) *Reader { return (*Dict)(nil).NewReader(buf) }

// NewReader returns a Reader that decodes buf through d.
func (d *Dict) NewReader(buf []byte) *Reader { return &Reader{dict: d, buf: buf} }

// Offset returns the byte offset of the next token to be decoded.
func (r *Reader) Offset() int { return r.off }

// SetOffset repositions the reader at the given byte offset. The offset must
// be a token boundary previously returned by Offset.
func (r *Reader) SetOffset(off int) { r.off = off }

// More reports whether any tokens remain.
func (r *Reader) More() bool { return r.off < len(r.buf) }

// Next decodes and returns the next token.
func (r *Reader) Next() (Token, error) {
	t, n, err := r.dict.Decode(r.buf[r.off:])
	if err != nil {
		return Token{}, err
	}
	r.off += n
	return t, nil
}

// Skip decodes past the next token without materializing strings where
// possible, returning its kind.
func (r *Reader) Skip() (Kind, error) {
	b := r.buf[r.off:]
	n, err := Size(b)
	if err != nil {
		return Invalid, err
	}
	r.off += n
	return KindOf(b[0]), nil
}

// Size returns the encoded length of the token at the front of b without
// decoding it: only the kind byte and the length prefixes are examined, no
// strings are materialized, nothing is allocated and no dictionary is
// needed — a name id is stepped over like a length. This is what the store's
// replay scans, and salvage's record checks, use to step over tokens: one
// table load and a few compares when every varint is one byte, which is
// nearly always. A one-byte varint is read inline, a longer one by
// uvarintAt, here and in View.
func Size(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, ErrShortBuffer
	}
	sh := shapes[b[0]]
	if sh == 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadKind, b[0])
	}
	var n uint64
	var err error
	pos := 1
	if pos < len(b) && b[pos] < 0x80 {
		pos++
	} else if _, pos, err = uvarintAt(b, pos); err != nil {
		return 0, err
	}
	if sh&shapeName != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return 0, err
		}
		if sh&shapeRef == 0 { // a length, not an id
			if n > uint64(len(b)-pos) {
				return 0, ErrShortBuffer
			}
			pos += int(n)
		}
	}
	if sh&shapeValue != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return 0, err
		}
		if n > uint64(len(b)-pos) {
			return 0, ErrShortBuffer
		}
		pos += int(n)
	}
	return pos, nil
}

// View is a zero-allocation decoder of inline-named tokens; see Dict.View.
func View(b []byte) (k Kind, name, value []byte, size int, err error) {
	return (*Dict)(nil).View(b)
}

// View is a zero-allocation decoder: it returns the token's kind and its
// name/value as byte slices, plus the encoded length. An inline name and a
// value are subslices of b (valid only while b is); a name by id is d's
// interned copy (valid for good, never to be modified). Query scans use it
// to compare names and attribute values in place without materializing
// strings. Kinds without a name or value return nil slices.
func (d *Dict) View(b []byte) (k Kind, name, value []byte, size int, err error) {
	if len(b) == 0 {
		return Invalid, nil, nil, 0, ErrShortBuffer
	}
	sh := shapes[b[0]]
	if sh == 0 {
		return Invalid, nil, nil, 0, fmt.Errorf("%w: %d", ErrBadKind, b[0])
	}
	// Each varint is read as in Size: one byte inline, the rest by uvarintAt.
	var n uint64
	pos := 1
	if pos < len(b) && b[pos] < 0x80 {
		pos++
	} else if _, pos, err = uvarintAt(b, pos); err != nil {
		return Invalid, nil, nil, 0, err
	}
	if sh&shapeName != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return Invalid, nil, nil, 0, err
		}
		if sh&shapeRef != 0 {
			var ok bool
			if name, ok = d.nameBytes(n); !ok {
				return Invalid, nil, nil, 0, d.unknown(n)
			}
		} else {
			if n > uint64(len(b)-pos) {
				return Invalid, nil, nil, 0, ErrShortBuffer
			}
			name, pos = b[pos:pos+int(n)], pos+int(n)
		}
	}
	if sh&shapeValue != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else if n, pos, err = uvarintAt(b, pos); err != nil {
			return Invalid, nil, nil, 0, err
		}
		if n > uint64(len(b)-pos) {
			return Invalid, nil, nil, 0, ErrShortBuffer
		}
		value, pos = b[pos:pos+int(n)], pos+int(n)
	}
	return KindOf(b[0]), name, value, pos, nil
}
