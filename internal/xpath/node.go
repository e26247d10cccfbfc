// Package xpath implements an XPath 1.0 subset evaluator over the store's
// token streams, covering the query-side requirements of the paper's store
// desiderata (Section 2): location paths with the main axes, node tests,
// predicates with positions, comparisons and a core function library.
//
// The evaluator works on a lightweight navigational view (Doc) built from a
// token stream with node identifiers — exactly what the store's Scan
// produces — so query results can be mapped back to store node ids for
// subsequent XUpdate operations.
package xpath

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/token"
)

// NodeKind classifies nodes in the navigational view.
type NodeKind uint8

// Node kinds. Root is the virtual document root that parents the top-level
// nodes of the stored sequence.
const (
	Root NodeKind = iota
	Element
	Attribute
	TextNode
	Comment
	PI
)

func (k NodeKind) String() string {
	switch k {
	case Root:
		return "root"
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case TextNode:
		return "text"
	case Comment:
		return "comment"
	case PI:
		return "processing-instruction"
	}
	return "unknown"
}

// Node is one node of the navigational view.
type Node struct {
	Kind     NodeKind
	Name     string
	Value    string // text content, attribute value, comment text, PI data
	ID       core.NodeID
	Parent   *Node
	Children []*Node // element content (attributes excluded)
	Attrs    []*Node
	order    int // document-order position, for sorting node sets
}

// StringValue returns the XPath string-value: concatenated descendant text
// for elements/root, the value itself for leaves.
func (n *Node) StringValue() string {
	switch n.Kind {
	case Element, Root:
		var sb strings.Builder
		var walk func(*Node)
		walk = func(c *Node) {
			if c.Kind == TextNode {
				sb.WriteString(c.Value)
			}
			for _, ch := range c.Children {
				walk(ch)
			}
		}
		walk(n)
		return sb.String()
	default:
		return n.Value
	}
}

// Doc is a parsed navigational view of a stored sequence.
type Doc struct {
	RootNode *Node
}

// BuildDoc constructs the navigational view from items (token + id pairs in
// document order), as produced by core.Store.ReadAll. It rejects a stream
// that is not well nested: an end token that does not close the innermost
// open begin, anything inside an attribute, an attribute after its element's
// content, or an unclosed begin. Document tokens are transparent.
func BuildDoc(items []core.Item) (*Doc, error) {
	root := &Node{Kind: Root}
	d := &Doc{RootNode: root}
	cur := root
	order := 0
	// stack holds the root, then one level per open begin token: the end
	// kind it is owed and whether non-attribute content was seen in it.
	type level struct {
		end     token.Kind
		content bool
	}
	stack := []level{{}}
	for i, it := range items {
		order++
		k := it.Tok.Kind
		top := &stack[len(stack)-1]
		switch {
		case !k.Valid(), k.IsEnd() && top.end != k, !k.IsEnd() && top.end == token.EndAttribute,
			k == token.BeginAttribute && top.content:
			return nil, fmt.Errorf("xpath: token %d: misplaced %s", i, k)
		case k.IsEnd():
			stack = stack[:len(stack)-1]
		default:
			top.content = k != token.BeginAttribute
			if k.IsBegin() {
				stack = append(stack, level{end: it.Tok.MatchingEnd(), content: k == token.BeginDocument})
			}
		}
		switch k {
		case token.BeginElement:
			n := &Node{Kind: Element, Name: it.Tok.Name, ID: it.ID, Parent: cur, order: order}
			cur.Children = append(cur.Children, n)
			cur = n
		case token.EndElement:
			cur = cur.Parent
		case token.BeginAttribute:
			cur.Attrs = append(cur.Attrs, &Node{Kind: Attribute, Name: it.Tok.Name, Value: it.Tok.Value, ID: it.ID, Parent: cur, order: order})
		case token.Text:
			cur.Children = append(cur.Children, &Node{Kind: TextNode, Value: it.Tok.Value, ID: it.ID, Parent: cur, order: order})
		case token.Comment:
			cur.Children = append(cur.Children, &Node{Kind: Comment, Value: it.Tok.Value, ID: it.ID, Parent: cur, order: order})
		case token.PI:
			cur.Children = append(cur.Children, &Node{Kind: PI, Name: it.Tok.Name, Value: it.Tok.Value, ID: it.ID, Parent: cur, order: order})
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("xpath: %d unclosed begin tokens", len(stack)-1)
	}
	return d, nil
}

// FromStore builds the navigational view of a whole store.
func FromStore(s *core.Store) (*Doc, error) {
	items, err := s.ReadAll()
	if err != nil {
		return nil, err
	}
	return BuildDoc(items)
}

// FromStoreCtx is FromStore under a caller deadline: the store scan that
// materializes the view observes ctx at its page-fetch boundaries, so a
// wire-propagated deadline bounds query setup too, not just evaluation.
func FromStoreCtx(ctx context.Context, s *core.Store) (*Doc, error) {
	items, err := s.ReadAllCtx(ctx)
	if err != nil {
		return nil, err
	}
	return BuildDoc(items)
}

// Axis navigation primitives used by the evaluator.

func childAxis(n *Node) []*Node { return n.Children }

func descendantAxis(n *Node) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(c *Node) {
		for _, ch := range c.Children {
			out = append(out, ch)
			walk(ch)
		}
	}
	walk(n)
	return out
}

func parentAxis(n *Node) []*Node {
	if n.Parent == nil {
		return nil
	}
	return []*Node{n.Parent}
}

func ancestorAxis(n *Node) []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

func followingSiblingAxis(n *Node) []*Node {
	p := n.Parent
	if p == nil || n.Kind == Attribute {
		return nil
	}
	for i, c := range p.Children {
		if c == n {
			return p.Children[i+1:]
		}
	}
	return nil
}

func precedingSiblingAxis(n *Node) []*Node {
	p := n.Parent
	if p == nil || n.Kind == Attribute {
		return nil
	}
	var out []*Node
	for _, c := range p.Children {
		if c == n {
			break
		}
		out = append(out, c)
	}
	// preceding-sibling is a reverse axis: nearest sibling first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func attributeAxis(n *Node) []*Node { return n.Attrs }
