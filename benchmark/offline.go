package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mbasolver/internal/core"
	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// Conflict budgets. No query comes near them (see README.md), and the
// wall-clock limit sits far above any query's time, so a clock never
// decides an outcome.
const (
	rawConflicts      = 50_000
	simplifyConflicts = 8_000
	offlineTimeout    = 10 * time.Minute
)

// parsedCorpus holds the program's own parse of every entry: the inputs
// it is handed.
type parsedCorpus struct {
	obf, ground, plus1 []*expr.Expr
}

func parseCorpus(c *corpus) (*parsedCorpus, error) {
	p := &parsedCorpus{}
	for i, e := range c.entries {
		q := query{entry: i, variant: true}
		_, plus1 := q.sides(c)
		var xs [3]*expr.Expr
		for k, text := range []string{e.obf, e.ground, plus1} {
			x, err := parser.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("corpus entry %d: %w", i, err)
			}
			xs[k] = x
		}
		p.obf = append(p.obf, xs[0])
		p.ground = append(p.ground, xs[1])
		p.plus1 = append(p.plus1, xs[2])
	}
	return p, nil
}

// setUp times the program's input handling (reading and parsing the
// corpus) setupRepeats times and keeps the last result.
func setUp(o *outcome) (*corpus, *parsedCorpus, error) {
	var c *corpus
	var p *parsedCorpus
	for k := 0; k < setupRepeats; k++ {
		runtime.GC() // start each set-up from the same heap
		t0 := time.Now()
		var err error
		if c, err = loadCorpus(corpusPath); err != nil {
			return nil, nil, err
		}
		if p, err = parseCorpus(c); err != nil {
			return nil, nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	return c, p, nil
}

// offlineLayers accumulates the smt, sat and core counters.
type offlineLayers struct {
	calls, screen, rewrite, satDecided int
	conflicts, props                   int64
	simplifyCalls                      int
}

func decidedBy(r smt.Result) string {
	switch {
	case r.Screened:
		return "screen"
	case r.Rewritten:
		return "rewrite"
	case r.Status == smt.Equivalent || r.Status == smt.NotEquivalent:
		return "sat"
	}
	return "none"
}

func (l *offlineLayers) add(r smt.Result) {
	l.calls++
	switch decidedBy(r) {
	case "screen":
		l.screen++
	case "rewrite":
		l.rewrite++
	case "sat":
		l.satDecided++
		l.conflicts += r.Conflicts
		l.props += r.Propagations
	}
}

func (l *offlineLayers) metrics(tr *tracer) map[string]metric {
	satS := tr.busyMS("smt.check", "sat") / 1000
	perS := func(n int64) float64 {
		if satS == 0 {
			return 0
		}
		return float64(n) / satS
	}
	return map[string]metric{
		"smt.calls":           {float64(l.calls), "count"},
		"smt.decided_screen":  {float64(l.screen), "count"},
		"smt.decided_rewrite": {float64(l.rewrite), "count"},
		"smt.decided_sat":     {float64(l.satDecided), "count"},
		"smt.check_ms":        {tr.busyMS("smt.check", ""), "ms"},
		"smt.screen_ms":       {tr.busyMS("smt.check", "screen"), "ms"},
		"smt.rewrite_ms":      {tr.busyMS("smt.check", "rewrite"), "ms"},
		"smt.sat_ms":          {tr.busyMS("smt.check", "sat"), "ms"},
		"sat.conflicts":       {float64(l.conflicts), "count"},
		"sat.propagations":    {float64(l.props), "count"},
		"sat.props_per_s":     {perS(l.props), "1/s"},
		"sat.conflicts_per_s": {perS(l.conflicts), "1/s"},
	}
}

// runRaw is the paper's "before" column: corpus identities checked one
// at a time by a fresh btorsim solver at width 3, with no
// simplification.
func runRaw(cfg config, _ *corpus, chk *checker) (*outcome, error) {
	runtime.LockOSThread() // see window
	o := &outcome{tr: &tracer{on: cfg.trace}}
	c, p, err := setUp(o)
	if err != nil {
		return nil, err
	}
	strata, err := loadStrata(strataPath, len(c.entries))
	if err != nil {
		return nil, err
	}
	// Nothing is simplified here: the solver gets the obfuscated side as
	// it is, the paper's "before" alternation, which no change to the
	// program can move. It is reported over the whole corpus, so that it
	// does not depend on the seed either.
	alt := 0
	for _, e := range c.entries {
		in, err := chk.expr(e.obf)
		if err != nil {
			return nil, err
		}
		alt += in.root.alternation()
	}
	o.altOut = float64(alt) / float64(len(c.entries))
	var layers offlineLayers
	deal := rawDeck(strata, cfg.seed)
	tr := o.tr
	w := openWindow(syscall.RUSAGE_THREAD)
	tr.t0 = w.start
	for round := 0; round == 0 || w.elapsed() < cfg.seconds; round++ {
		for _, q := range deal.round(round) {
			op := o.attempted
			t0 := time.Now()
			root := tr.begin("op", op, -1)
			s := smt.NewBoolectorSim()
			sp := tr.begin("smt.check", op, root)
			r := s.CheckEquiv(p.obf[q.entry], p.ground[q.entry], 3, smt.Budget{Conflicts: rawConflicts, Timeout: offlineTimeout})
			tr.end(sp, decidedBy(r))
			tr.end(root, "")
			o.latMS = append(o.latMS, ms(time.Since(t0)))
			layers.add(r)
			o.count(w.check(func() error { return checkOp(chk, c, q, 3, r, nil, nil) }))
		}
		w.endRound(o.attempted)
	}
	w.close(o)
	o.layers = layers.metrics(tr)
	return o, nil
}

// runSimplify is the paper's recommended pipeline at width 64: the
// MBA-Solver simplification of both sides, then btorsim.
func runSimplify(cfg config, _ *corpus, chk *checker) (*outcome, error) {
	runtime.LockOSThread() // see window
	o := &outcome{tr: &tracer{on: cfg.trace}}
	c, p, err := setUp(o)
	if err != nil {
		return nil, err
	}
	simp := core.New(core.Options{Width: 64})
	deal := simplifyDeck(c, cfg.seed)
	var layers offlineLayers
	var altIn, altOut int
	tr := o.tr
	w := openWindow(syscall.RUSAGE_THREAD)
	tr.t0 = w.start
	for round := 0; round == 0 || w.elapsed() < cfg.seconds; round++ {
		for _, q := range deal.round(round) {
			a, b := p.obf[q.entry], p.ground[q.entry]
			if q.variant {
				b = p.plus1[q.entry]
			}
			op := o.attempted
			t0 := time.Now()
			root := tr.begin("op", op, -1)
			sp := tr.begin("core.simplify", op, root)
			sa := simp.Simplify(a)
			tr.end(sp, "")
			sp = tr.begin("core.simplify", op, root)
			sb := simp.Simplify(b)
			tr.end(sp, "")
			s := smt.NewBoolectorSim()
			sp = tr.begin("smt.check", op, root)
			r := s.CheckEquiv(sa, sb, 64, smt.Budget{Conflicts: simplifyConflicts, Timeout: offlineTimeout})
			tr.end(sp, decidedBy(r))
			tr.end(root, "")
			o.latMS = append(o.latMS, ms(time.Since(t0)))
			layers.add(r)
			layers.simplifyCalls += 2
			o.count(w.check(func() error {
				if err := checkOp(chk, c, q, 64, r, sa, sb); err != nil {
					return err
				}
				in, _ := chk.expr(c.entries[q.entry].obf) // parsed by checkOp
				out, _ := chk.expr(sa.String())           // parsed by checkOp
				altIn += in.root.alternation()
				altOut += out.root.alternation()
				return nil
			}))
		}
		w.endRound(o.attempted)
	}
	w.close(o)
	n := float64(o.attempted - o.failed)
	o.altOut = float64(altOut) / n
	o.layers = layers.metrics(tr)
	st := simp.Stats()
	hitRatio := 0.0
	if st.TableHits+st.TableMisses > 0 {
		hitRatio = float64(st.TableHits) / float64(st.TableHits+st.TableMisses)
	}
	o.layers["core.simplify_ms"] = metric{tr.busyMS("core.simplify", ""), "ms"}
	o.layers["core.simplify_calls"] = metric{float64(layers.simplifyCalls), "count"}
	o.layers["core.table_hit_ratio"] = metric{hitRatio, "ratio"}
	o.layers["core.alternation_in"] = metric{float64(altIn) / n, "count"}
	return o, nil
}

// checkOp checks one offline operation: its verdict and, when the
// workload simplifies, both simplified sides.
func checkOp(chk *checker, c *corpus, q query, width uint, r smt.Result, sa, sb *expr.Expr) error {
	a, b := q.sides(c)
	if err := chk.verdict(a, b, width, !q.variant, r.Status.String(), r.Reason.String(), r.Witness); err != nil {
		return err
	}
	if sa == nil {
		return nil
	}
	linear := c.entries[q.entry].kind == "linear"
	if err := chk.simplification(a, sa.String(), linear); err != nil {
		return err
	}
	return chk.simplification(b, sb.String(), linear)
}

// calibrateStrata prints raw_w3_strata.txt: every corpus entry's
// width-3 btorsim conflict count decides its place, and consecutive
// groups of rawStratum entries form one stratum.
func calibrateStrata(c *corpus) error {
	p, err := parseCorpus(c)
	if err != nil {
		return err
	}
	conflicts := make([]int64, len(c.entries))
	order := make([]int, len(c.entries))
	for i := range c.entries {
		r := smt.NewBoolectorSim().CheckEquiv(p.obf[i], p.ground[i], 3, smt.Budget{Conflicts: rawConflicts, Timeout: offlineTimeout})
		if r.Status != smt.Equivalent {
			return fmt.Errorf("entry %d: %v at width 3", i, r.Status)
		}
		conflicts[i] = r.Conflicts
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return conflicts[order[i]] < conflicts[order[j]] })
	fmt.Printf("# Corpus entries (0-based, comment lines skipped) ordered by width-3\n# btorsim conflicts; each line is one stratum of %d. Made with --calibrate.\n", rawStratum)
	for k := 0; k < len(order); k += rawStratum {
		end := min(k+rawStratum, len(order))
		f := make([]string, 0, rawStratum)
		for _, i := range order[k:end] {
			f = append(f, fmt.Sprint(i))
		}
		fmt.Println(strings.Join(f, " "))
	}
	return nil
}

// rawStratum is the number of corpus entries per raw-w3 stratum; a round
// draws one from each, 500 queries over the 3000-entry corpus.
const rawStratum = 6
