package token

import (
	"errors"
	"fmt"
)

// Sequence utilities: well-formedness checks, node counting, subtree
// boundaries. These operate on materialized token slices; the store performs
// the same logic incrementally over encoded ranges.

// Well-formedness errors.
var (
	ErrUnbalanced   = errors.New("token: unbalanced begin/end tokens")
	ErrMisplacedEnd = errors.New("token: end token without matching begin")
	ErrBadAttribute = errors.New("token: attribute token outside element start")
	ErrEmptySeq     = errors.New("token: empty sequence")
)

// NodeCount returns the number of nodes (node-starting tokens) in seq. This
// is exactly the number of identifiers the store's ID factory allocates for
// the sequence.
func NodeCount(seq []Token) int {
	n := 0
	for _, t := range seq {
		if t.StartsNode() {
			n++
		}
	}
	return n
}

// ValidateFragment checks that seq is a well-formed fragment: a sequence of
// one or more complete nodes with balanced begin/end tokens, attributes only
// directly after an element begin (before content), and no document tokens.
func ValidateFragment(seq []Token) error {
	if len(seq) == 0 {
		return ErrEmptySeq
	}
	type frame struct {
		end     Kind
		content bool // true once non-attribute content has been seen
	}
	var depth [16]frame // a shallow fragment's open nodes, off the heap
	stack := depth[:0]
	for i, t := range seq {
		switch t.Kind {
		case BeginDocument, EndDocument:
			return fmt.Errorf("token %d: document token inside fragment", i)
		case BeginElement:
			if len(stack) > 0 {
				stack[len(stack)-1].content = true
			}
			stack = append(stack, frame{end: EndElement})
		case BeginAttribute:
			if len(stack) == 0 || stack[len(stack)-1].end != EndElement || stack[len(stack)-1].content {
				return fmt.Errorf("token %d: %w", i, ErrBadAttribute)
			}
			stack = append(stack, frame{end: EndAttribute})
		case EndElement, EndAttribute:
			if len(stack) == 0 || stack[len(stack)-1].end != t.Kind {
				return fmt.Errorf("token %d: %w", i, ErrMisplacedEnd)
			}
			stack = stack[:len(stack)-1]
		case Text, Comment, PI:
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				if top.end == EndAttribute {
					return fmt.Errorf("token %d: content inside attribute", i)
				}
				top.content = true
			}
		case Invalid:
			return fmt.Errorf("token %d: invalid token", i)
		}
	}
	if len(stack) != 0 {
		return ErrUnbalanced
	}
	return nil
}

// SubtreeEnd returns the index just past the last token of the node starting
// at index i. For leaf tokens (Text, Comment, PI) that is i+1; for begin
// tokens it is the index just past the matching end token.
func SubtreeEnd(seq []Token, i int) (int, error) {
	if i < 0 || i >= len(seq) {
		return 0, fmt.Errorf("token: index %d out of range", i)
	}
	t := seq[i]
	if !t.StartsNode() {
		return 0, fmt.Errorf("token: token %d (%s) does not start a node", i, t.Kind)
	}
	if !t.IsBegin() {
		return i + 1, nil
	}
	depth := 0
	for j := i; j < len(seq); j++ {
		if seq[j].IsBegin() {
			depth++
		} else if seq[j].IsEnd() {
			depth--
			if depth == 0 {
				return j + 1, nil
			}
		}
	}
	return 0, ErrUnbalanced
}

// TopLevelNodes returns the start indices of the top-level nodes of a
// well-formed fragment.
func TopLevelNodes(seq []Token) ([]int, error) {
	var starts []int
	i := 0
	for i < len(seq) {
		if !seq[i].StartsNode() {
			return nil, fmt.Errorf("token: token %d (%s) at top level does not start a node", i, seq[i].Kind)
		}
		starts = append(starts, i)
		end, err := SubtreeEnd(seq, i)
		if err != nil {
			return nil, err
		}
		i = end
	}
	return starts, nil
}

// Equal reports whether two token sequences are element-wise identical.
func Equal(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of seq.
func Clone(seq []Token) []Token {
	out := make([]Token, len(seq))
	copy(out, seq)
	return out
}
