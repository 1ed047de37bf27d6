package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// checker judges the program's outputs with the benchmark's own
// expression model (mba.go). Expected verdicts come from how each query
// was built, never from another solver run.
type checker struct {
	seed   uint64
	parsed map[string]*mba
	simp   map[[2]string]error // memo of simplification checks
}

func newChecker(seed uint64) *checker {
	return &checker{seed: seed, parsed: map[string]*mba{}, simp: map[[2]string]error{}}
}

func (c *checker) expr(text string) (*mba, error) {
	if e, ok := c.parsed[text]; ok {
		return e, nil
	}
	e, err := parseMBA(text)
	if err != nil {
		return nil, err
	}
	c.parsed[text] = e
	return e, nil
}

// verdict checks one equivalence answer for a == b at width. wantEquiv
// is known by construction: corpus entries are identities, and a
// "(ground)+1" side differs from its identity at every input. A
// not-equivalent answer must carry a witness at which the two sides
// differ; variables the witness omits read as 0.
func (c *checker) verdict(a, b string, width uint, wantEquiv bool, status, reason string, witness map[string]uint64) error {
	switch status {
	case "equivalent":
		if !wantEquiv {
			return errors.New("equivalent verdict on a refuted pair")
		}
		return nil
	case "not-equivalent":
		if wantEquiv {
			return errors.New("not-equivalent verdict on an identity")
		}
	default:
		return fmt.Errorf("no verdict: status %q, reason %q", status, reason)
	}
	ea, err := c.expr(a)
	if err != nil {
		return err
	}
	eb, err := c.expr(b)
	if err != nil {
		return err
	}
	names := unionVars(ea.vars, eb.vars)
	env := make([]uint64, len(names))
	for i, v := range names {
		env[i] = witness[v]
	}
	mask := widthMask(width)
	if ea.bind(names).eval(env, mask) == eb.bind(names).eval(env, mask) {
		return fmt.Errorf("witness %v does not replay", witness)
	}
	return nil
}

// simplification checks that out equals in. Two linear MBAs are
// compared on {0,-1}^t, which proves equality at every width; anything
// else is compared exhaustively at width 3 and at seeded random 64-bit
// points. A linear entry must not come out with a higher alternation
// than it went in with.
func (c *checker) simplification(in, out string, linearEntry bool) error {
	key := [2]string{in, out}
	if err, ok := c.simp[key]; ok {
		return err
	}
	err := c.checkSimplification(in, out, linearEntry)
	c.simp[key] = err
	return err
}

// maxExhaustiveVars keeps the width-3 sweep at 8^5 points or fewer.
const maxExhaustiveVars = 5

func (c *checker) checkSimplification(in, out string, linearEntry bool) error {
	ei, err := c.expr(in)
	if err != nil {
		return err
	}
	eo, err := c.expr(out)
	if err != nil {
		return fmt.Errorf("simplified form: %w", err)
	}
	names := unionVars(ei.vars, eo.vars)
	a, b := ei.bind(names), eo.bind(names)
	t := len(names)
	if a.linear() && b.linear() {
		if !agreeOnCorners(a, b, t) {
			return fmt.Errorf("linear simplification %q differs from its input on {0,-1}^%d", out, t)
		}
	} else {
		if t <= maxExhaustiveVars && !agreeExhaustive(a, b, t, 3) {
			return fmt.Errorf("simplification %q differs from its input at width 3", out)
		}
		if !agreeRandom(a, b, t, 32, c.seed^uint64(len(in))<<32^uint64(len(out))) {
			return fmt.Errorf("simplification %q differs from its input at a random 64-bit point", out)
		}
	}
	if linearEntry && eo.root.alternation() > ei.root.alternation() {
		return fmt.Errorf("alternation grew from %d to %d", ei.root.alternation(), eo.root.alternation())
	}
	return nil
}

// sample checks one classify observation of text at the width asked
// for; a node must answer at that width.
func (c *checker) sample(text string, width, answered uint, inputs map[string]uint64, output uint64) error {
	if answered != width {
		return fmt.Errorf("answered at width %d, asked for %d", answered, width)
	}
	e, err := c.expr(text)
	if err != nil {
		return err
	}
	env := make([]uint64, len(e.vars))
	for i, v := range e.vars {
		x, ok := inputs[v]
		if !ok {
			return fmt.Errorf("sample lacks variable %s", v)
		}
		env[i] = x
	}
	if want := e.root.eval(env, widthMask(width)); want != output {
		return fmt.Errorf("sample %v gave %d, want %d", inputs, output, want)
	}
	return nil
}

// selfTest plants one fault of each kind the checker must catch, next
// to its correct counterpart, and reports an error unless every planted
// fault fails and every counterpart passes.
func selfTest(c *checker, corp *corpus) error {
	lin := corp.entries[corp.byKind["linear"][0]]
	poly := corp.entries[corp.byKind["poly"][0]]
	plus1 := "(" + lin.ground + ")+1"
	linE, err := c.expr(lin.obf)
	if err != nil {
		return err
	}
	// Any point is a right witness for the +1 variant; a wrong one is a
	// point where two different expressions agree: x|y and x^y at 0.
	zero := map[string]uint64{}
	sampleIn := map[string]uint64{}
	env := make([]uint64, len(linE.vars))
	for i, v := range linE.vars {
		zero[v] = 0
		env[i] = uint64(i*7 + 3)
		sampleIn[v] = env[i]
	}
	sampleOut := linE.root.eval(env, widthMask(8))
	// (x^y)-(x|y) is -(x&y): not zero, and linear, so the {0,-1}^t
	// proof is what must catch it.
	wrongLinear := "(" + lin.ground + ")+(x^y)-(x|y)"
	cases := []struct {
		name    string
		planted bool
		err     error
	}{
		{"identity verdict", false, c.verdict(lin.obf, lin.ground, 64, true, "equivalent", "", nil)},
		{"flipped verdict", true, c.verdict(lin.obf, lin.ground, 64, true, "not-equivalent", "", zero)},
		{"replaying witness", false, c.verdict(lin.obf, plus1, 64, false, "not-equivalent", "", zero)},
		{"wrong witness", true, c.verdict("x|y", "x^y", 64, false, "not-equivalent", "", map[string]uint64{"x": 0, "y": 0})},
		{"linear simplification", false, c.simplification(lin.obf, lin.ground, true)},
		{"wrong linear simplification", true, c.simplification(lin.obf, wrongLinear, true)},
		{"poly simplification", false, c.simplification(poly.obf, poly.ground, false)},
		{"wrong poly simplification", true, c.simplification(poly.obf, "("+poly.ground+")^(x&y)", false)},
		{"classify sample", false, c.sample(lin.obf, 8, 8, sampleIn, sampleOut)},
		{"wrong classify sample", true, c.sample(lin.obf, 8, 8, sampleIn, sampleOut+1)},
		{"classify at a wrong width", true, c.sample(lin.obf, 64, 8, sampleIn, sampleOut)},
	}
	var bad []string
	for _, tc := range cases {
		if caught := tc.err != nil; caught != tc.planted {
			bad = append(bad, fmt.Sprintf("%s: planted=%v err=%v", tc.name, tc.planted, tc.err))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("checker self-test: %s", strings.Join(bad, "; "))
	}
	return nil
}
