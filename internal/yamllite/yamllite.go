// Package yamllite implements the small YAML subset needed for the BMac
// configuration file (paper §3.5): block mappings, block sequences, scalar
// values (strings, integers, booleans), comments and nesting by
// indentation. Anchors, flow collections, multi-line scalars and tags are
// out of scope.
package yamllite

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSyntax reports malformed input.
var ErrSyntax = errors.New("yamllite: syntax error")

// Node is a parsed YAML value: map[string]any, []any, string, int64 or bool.
type Node = any

// Parse parses a YAML document.
func Parse(src []byte) (Node, error) {
	lines, err := splitLines(string(src))
	if err != nil {
		return nil, err
	}
	p := &parser{lines: lines}
	node, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("%w: unexpected content at line %d", ErrSyntax, p.lines[p.pos].num)
	}
	return node, nil
}

type line struct {
	num    int
	indent int
	text   string // content without indentation
}

func splitLines(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		// Strip comments (naive: not inside quotes).
		text := raw
		if idx := commentIndex(text); idx >= 0 {
			text = text[:idx]
		}
		trimmed := strings.TrimRight(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if strings.HasPrefix(trimmed[indent:], "\t") {
			return nil, fmt.Errorf("%w: tab indentation at line %d", ErrSyntax, i+1)
		}
		out = append(out, line{num: i + 1, indent: indent, text: trimmed[indent:]})
	}
	return out, nil
}

func commentIndex(s string) int {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return i
			}
		}
	}
	return -1
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos < len(p.lines) {
		return p.lines[p.pos], true
	}
	return line{}, false
}

// parseBlock parses the block starting at the current position with the
// given minimum indentation.
func (p *parser) parseBlock(indent int) (Node, error) {
	l, ok := p.peek()
	if !ok || l.indent < indent {
		return nil, fmt.Errorf("%w: expected block at indent %d", ErrSyntax, indent)
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSequence(l.indent)
	}
	return p.parseMapping(l.indent)
}

func (p *parser) parseMapping(indent int) (Node, error) {
	m := make(map[string]any)
	for {
		l, ok := p.peek()
		if !ok || l.indent < indent {
			return m, nil
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%w: unexpected indent at line %d", ErrSyntax, l.num)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, fmt.Errorf("%w: sequence item in mapping at line %d", ErrSyntax, l.num)
		}
		key, rest, err := splitKey(l)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("%w: duplicate key %q at line %d", ErrSyntax, key, l.num)
		}
		p.pos++
		if rest != "" {
			m[key] = scalar(rest)
			continue
		}
		// Nested block or empty value.
		next, ok := p.peek()
		if !ok || next.indent <= indent {
			m[key] = nil
			continue
		}
		child, err := p.parseBlock(next.indent)
		if err != nil {
			return nil, err
		}
		m[key] = child
	}
}

func (p *parser) parseSequence(indent int) (Node, error) {
	var seq []any
	for {
		l, ok := p.peek()
		if !ok || l.indent < indent {
			return seq, nil
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%w: unexpected indent at line %d", ErrSyntax, l.num)
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			return seq, nil
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			// "- " alone: nested block item.
			p.pos++
			next, ok := p.peek()
			if !ok || next.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			child, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, child)
			continue
		}
		if key, val, err := trySplitInline(rest); err == nil {
			// "- key: value" starts an inline mapping; sibling keys sit at
			// the content column after the dash, deeper indentation is the
			// nested block of the preceding key.
			item := map[string]any{}
			itemIndent := l.indent + 2 // content column after "- "
			p.pos++
			if val != "" {
				item[key] = scalar(val)
			} else {
				next, ok := p.peek()
				if ok && next.indent > itemIndent {
					child, err := p.parseBlock(next.indent)
					if err != nil {
						return nil, err
					}
					item[key] = child
				} else {
					item[key] = nil
				}
			}
			// Sibling keys of this item.
			for {
				nl, ok := p.peek()
				if !ok || nl.indent != itemIndent ||
					strings.HasPrefix(nl.text, "- ") || nl.text == "-" {
					break
				}
				k2, rest2, err := splitKey(nl)
				if err != nil {
					return nil, err
				}
				p.pos++
				if rest2 != "" {
					item[k2] = scalar(rest2)
					continue
				}
				next, ok := p.peek()
				if !ok || next.indent <= nl.indent {
					item[k2] = nil
					continue
				}
				child, err := p.parseBlock(next.indent)
				if err != nil {
					return nil, err
				}
				item[k2] = child
			}
			seq = append(seq, item)
			continue
		}
		// Plain scalar item.
		seq = append(seq, scalar(rest))
		p.pos++
	}
}

func splitKey(l line) (key, rest string, err error) {
	k, v, err := trySplitInline(l.text)
	if err != nil {
		return "", "", fmt.Errorf("%w: expected 'key: value' at line %d", ErrSyntax, l.num)
	}
	return k, v, nil
}

// trySplitInline splits "key: value" (value may be empty), respecting
// quoted keys.
func trySplitInline(s string) (key, value string, err error) {
	idx := -1
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case ':':
			if !inSingle && !inDouble && (i+1 == len(s) || s[i+1] == ' ') {
				idx = i
			}
		}
		if idx >= 0 {
			break
		}
	}
	if idx < 0 {
		return "", "", ErrSyntax
	}
	key = unquote(strings.TrimSpace(s[:idx]))
	if key == "" {
		return "", "", ErrSyntax
	}
	return key, strings.TrimSpace(s[idx+1:]), nil
}

func unquote(s string) string {
	if len(s) >= 2 && ((s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'')) {
		return s[1 : len(s)-1]
	}
	return s
}

// scalar interprets a scalar value: bool, int64, or string.
func scalar(s string) any {
	s = strings.TrimSpace(s)
	if q := unquote(s); q != s {
		return q
	}
	switch s {
	case "true", "True", "yes":
		return true
	case "false", "False", "no":
		return false
	case "null", "~":
		return nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	return s
}

// --- typed accessors ---

// GetMap fetches a nested mapping by key.
func GetMap(n Node, key string) (map[string]any, bool) {
	m, ok := n.(map[string]any)
	if !ok {
		return nil, false
	}
	child, ok := m[key].(map[string]any)
	return child, ok
}

// GetSeq fetches a nested sequence by key.
func GetSeq(n Node, key string) ([]any, bool) {
	m, ok := n.(map[string]any)
	if !ok {
		return nil, false
	}
	child, ok := m[key].([]any)
	return child, ok
}

// GetString fetches a string scalar by key.
func GetString(n Node, key string) (string, bool) {
	m, ok := n.(map[string]any)
	if !ok {
		return "", false
	}
	s, ok := m[key].(string)
	return s, ok
}

// GetInt fetches an integer scalar by key.
func GetInt(n Node, key string) (int64, bool) {
	m, ok := n.(map[string]any)
	if !ok {
		return 0, false
	}
	v, ok := m[key].(int64)
	return v, ok
}

// GetBool fetches a boolean scalar by key.
func GetBool(n Node, key string) (bool, bool) {
	m, ok := n.(map[string]any)
	if !ok {
		return false, false
	}
	v, ok := m[key].(bool)
	return v, ok
}
