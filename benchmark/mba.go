package main

// The checker's own model of MBA expressions: a parser, an evaluator,
// the alternation count and the linear-MBA test. It shares no code with
// the program under test, so a fault in the program's parser, printer,
// evaluators or solver cannot hide itself from the checker.

import (
	"fmt"
	"sort"
	"strconv"
)

type node struct {
	op   byte // 'v' variable, 'c' constant, 'n' negation, '~', or a binary operator
	v    int  // variable index into the owning mba's vars
	c    uint64
	x, y *node
}

// mba is a parsed expression with its variables in sorted order.
type mba struct {
	root *node
	vars []string
}

// parseMBA parses the C-precedence syntax of the corpus and of the
// program's printer: unary > * > + - > & > ^ > |, left-associative.
func parseMBA(src string) (*mba, error) {
	p := &mbaParser{src: src, index: map[string]int{}}
	root, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input at offset %d in %q", p.pos, src)
	}
	// Renumber variables into sorted order so that environments line
	// up with vars.
	sorted := append([]string(nil), p.names...)
	sort.Strings(sorted)
	perm := make([]int, len(p.names))
	for i, name := range p.names {
		perm[i] = sort.SearchStrings(sorted, name)
	}
	renumber(root, perm)
	return &mba{root: root, vars: sorted}, nil
}

func renumber(n *node, perm []int) {
	if n == nil {
		return
	}
	if n.op == 'v' {
		n.v = perm[n.v]
	}
	renumber(n.x, perm)
	renumber(n.y, perm)
}

type mbaParser struct {
	src   string
	pos   int
	names []string
	index map[string]int
}

// levels lists the binary operators from loosest to tightest binding.
var levels = []string{"|", "^", "&", "+-", "*"}

func (p *mbaParser) skip() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *mbaParser) peekOp(ops string) (byte, bool) {
	p.skip()
	if p.pos < len(p.src) {
		for i := 0; i < len(ops); i++ {
			if p.src[p.pos] == ops[i] {
				return ops[i], true
			}
		}
	}
	return 0, false
}

func (p *mbaParser) binary(level int) (*node, error) {
	if level == len(levels) {
		return p.unary()
	}
	left, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.peekOp(levels[level])
		if !ok {
			return left, nil
		}
		p.pos++
		right, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		left = &node{op: op, x: left, y: right}
	}
}

func (p *mbaParser) unary() (*node, error) {
	if op, ok := p.peekOp("~-"); ok {
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		// Constants absorb unary operators, as they do in the
		// program's trees, so alternation counts agree on "x&-3".
		if x.op == 'c' {
			if op == '~' {
				x.c = ^x.c
			} else {
				x.c = -x.c
			}
			return x, nil
		}
		if op == '-' {
			op = 'n'
		}
		return &node{op: op, x: x}, nil
	}
	p.skip()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("unexpected end of %q", p.src)
	}
	start := p.pos
	switch c := p.src[p.pos]; {
	case c == '(':
		p.pos++
		e, err := p.binary(0)
		if err != nil {
			return nil, err
		}
		if _, ok := p.peekOp(")"); !ok {
			return nil, fmt.Errorf("missing ) at offset %d in %q", p.pos, p.src)
		}
		p.pos++
		return e, nil
	case c >= '0' && c <= '9':
		for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
			p.pos++
		}
		v, err := strconv.ParseUint(p.src[start:p.pos], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p.src[start:p.pos], err)
		}
		return &node{op: 'c', c: v}, nil
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
			p.pos++
		}
		name := p.src[start:p.pos]
		i, ok := p.index[name]
		if !ok {
			i = len(p.names)
			p.index[name] = i
			p.names = append(p.names, name)
		}
		return &node{op: 'v', v: i}, nil
	}
	return nil, fmt.Errorf("unexpected %q at offset %d in %q", p.src[p.pos], p.pos, p.src)
}

func isWordByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// eval computes the expression at the given width with env[i] the
// value of vars[i].
func (n *node) eval(env []uint64, mask uint64) uint64 {
	switch n.op {
	case 'v':
		return env[n.v] & mask
	case 'c':
		return n.c & mask
	case 'n':
		return -n.x.eval(env, mask) & mask
	case '~':
		return ^n.x.eval(env, mask) & mask
	}
	a, b := n.x.eval(env, mask), n.y.eval(env, mask)
	switch n.op {
	case '&':
		return a & b
	case '|':
		return a | b
	case '^':
		return a ^ b
	case '+':
		return (a + b) & mask
	case '-':
		return (a - b) & mask
	case '*':
		return (a * b) & mask
	}
	panic("unknown operator " + string(n.op))
}

func widthMask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1
}

// domain is +1 for arithmetic operators, -1 for bitwise ones and 0 for
// leaves.
func (n *node) domain() int {
	switch n.op {
	case 'n', '+', '-', '*':
		return 1
	case '~', '&', '|', '^':
		return -1
	}
	return 0
}

// alternation counts tree edges joining an arithmetic and a bitwise
// operator, the paper's MBA alternation.
func (n *node) alternation() int {
	if n == nil {
		return 0
	}
	count := n.x.alternation() + n.y.alternation()
	if d := n.domain(); d != 0 {
		for _, c := range []*node{n.x, n.y} {
			if c != nil && c.domain() != 0 && c.domain() != d {
				count++
			}
		}
	}
	return count
}

// bitwiseOfVars reports whether n uses only bitwise operators over
// variables, with no constants inside.
func (n *node) bitwiseOfVars() bool {
	switch n.op {
	case 'v':
		return true
	case '~':
		return n.x.bitwiseOfVars()
	case '&', '|', '^':
		return n.x.bitwiseOfVars() && n.y.bitwiseOfVars()
	}
	return false
}

// linear reports whether n is a linear MBA: a sum of constants and of
// constant multiples of bitwise expressions over variables. For these,
// bit i of every bitwise term depends only on bit i of the inputs, which
// is what makes the {0,-1}^t proof below sound.
func (n *node) linear() bool {
	switch n.op {
	case '+', '-':
		return n.x.linear() && n.y.linear()
	case 'n':
		return n.x.linear()
	case 'c':
		return true
	case '*':
		if n.x.op == 'c' {
			return n.y.linear()
		}
		if n.y.op == 'c' {
			return n.x.linear()
		}
		return false
	}
	return n.bitwiseOfVars()
}

// unionVars merges two sorted variable lists.
func unionVars(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range [][]string{a, b} {
		for _, v := range l {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// bind maps e's variables onto positions of the shared list names, so
// that one environment over names evaluates both sides of a check.
func (e *mba) bind(names []string) *node {
	perm := make([]int, len(e.vars))
	for i, v := range e.vars {
		perm[i] = sort.SearchStrings(names, v)
	}
	root := clone(e.root)
	renumber(root, perm)
	return root
}

func clone(n *node) *node {
	if n == nil {
		return nil
	}
	c := *n
	c.x, c.y = clone(n.x), clone(n.y)
	return &c
}

// agreeOnCorners evaluates a and b on every point of {0,-1}^t at width
// 64. For two linear MBAs, agreement there proves a == b at every input
// and every width (SiMBA, arXiv 2209.06335): a linear MBA is the sum over
// bit positions i of 2^i times one function of the inputs' bit i.
func agreeOnCorners(a, b *node, t int) bool {
	env := make([]uint64, t)
	for m := 0; m < 1<<t; m++ {
		for i := range env {
			env[i] = -uint64(m >> i & 1)
		}
		if a.eval(env, ^uint64(0)) != b.eval(env, ^uint64(0)) {
			return false
		}
	}
	return true
}

// agreeExhaustive evaluates a and b on every input at the given small
// width.
func agreeExhaustive(a, b *node, t int, width uint) bool {
	mask := widthMask(width)
	env := make([]uint64, t)
	total := uint64(1) << (uint(t) * width)
	for m := uint64(0); m < total; m++ {
		for i := range env {
			env[i] = m >> (uint(i) * width) & mask
		}
		if a.eval(env, mask) != b.eval(env, mask) {
			return false
		}
	}
	return true
}

// agreeRandom evaluates a and b at n pseudo-random 64-bit points drawn
// from the given stream state.
func agreeRandom(a, b *node, t, n int, state uint64) bool {
	env := make([]uint64, t)
	for k := 0; k < n; k++ {
		for i := range env {
			state = splitmix(state)
			env[i] = state
		}
		if a.eval(env, ^uint64(0)) != b.eval(env, ^uint64(0)) {
			return false
		}
	}
	return true
}

// splitmix advances a SplitMix64 stream and returns the next value.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
