package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// corpusPath is the identity corpus, relative to the repository root.
const corpusPath = "testdata/corpus_3000.txt"

type entry struct {
	kind        string // linear | poly | nonpoly
	ground, obf string // obf == ground for every input
}

type corpus struct {
	entries []entry
	byKind  map[string][]int
}

func loadCorpus(path string) (*corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := &corpus{byKind: map[string][]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		c.byKind[f[0]] = append(c.byKind[f[0]], len(c.entries))
		c.entries = append(c.entries, entry{kind: f[0], ground: f[2], obf: f[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.entries) == 0 {
		return nil, fmt.Errorf("%s: no entries", path)
	}
	return c, nil
}

// query is one equivalence question a == b at a width. A variant pairs
// an entry's obfuscated side with "(ground)+1", which differs from it
// at every input.
type query struct {
	entry   int
	variant bool
}

func (q query) sides(c *corpus) (a, b string) {
	e := c.entries[q.entry]
	if q.variant {
		return e.obf, "(" + e.ground + ")+1"
	}
	return e.obf, e.ground
}

// strataPath lists the corpus entries ordered by their width-3 conflict
// count, in groups of similar difficulty (see README.md).
const strataPath = "benchmark/raw_w3_strata.txt"

func loadStrata(path string, n int) ([][]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var strata [][]int
	seen := make([]bool, n)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s []int
		for _, f := range strings.Fields(line) {
			i, err := strconv.Atoi(f)
			if err != nil || i < 0 || i >= n || seen[i] {
				return nil, fmt.Errorf("%s: bad or repeated entry %q", path, f)
			}
			seen[i] = true
			s = append(s, i)
		}
		strata = append(strata, s)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%s: corpus entry %d missing", path, i)
		}
	}
	return strata, nil
}

// roundRand is the random stream of one round of one run.
func roundRand(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// deck deals the queries of a workload in whole rounds. Every class of
// queries is dealt cyclically from its own seeded order, so an entry
// comes up again only after every entry of its class has come up once:
// runs with different seeds see different orders of nearly the same
// multiset of queries, and no seed can make a run easier or harder.
type deck struct {
	seed     int64
	classes  [][]query
	perRound []int // queries dealt per class per round
}

func (d *deck) round(r int) []query {
	var qs []query
	for i, class := range d.classes {
		for k := 0; k < d.perRound[i]; k++ {
			qs = append(qs, class[(r*d.perRound[i]+k)%len(class)])
		}
	}
	roundRand(d.seed, r).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func shuffled(qs []query, r *rand.Rand) []query {
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// rawDeck draws one entry from every difficulty stratum per round, so
// every round has the same mix of easy and hard identities.
func rawDeck(strata [][]int, seed int64) *deck {
	r := rand.New(rand.NewSource(seed))
	d := &deck{seed: seed}
	for _, s := range strata {
		var qs []query
		for _, i := range s {
			qs = append(qs, query{entry: i})
		}
		d.classes = append(d.classes, shuffled(qs, r))
		d.perRound = append(d.perRound, 1)
	}
	return d
}

// simplifyPerClass is the number of queries of each class in one
// simplify-w64 round.
const simplifyPerClass = 100

// simplifyDeck deals linear and poly identities and "(ground)+1"
// variants of all three kinds, simplifyPerClass of each per round.
// Non-poly identities are left out: after simplification a third of
// them still exhaust the SAT budget at width 64, the method's known
// residue.
func simplifyDeck(c *corpus, seed int64) *deck {
	r := rand.New(rand.NewSource(seed))
	d := &deck{seed: seed}
	add := func(kind string, variant bool) {
		var qs []query
		for _, i := range c.byKind[kind] {
			qs = append(qs, query{entry: i, variant: variant})
		}
		d.classes = append(d.classes, shuffled(qs, r))
		d.perRound = append(d.perRound, simplifyPerClass)
	}
	add("linear", false)
	add("poly", false)
	add("linear", true)
	add("poly", true)
	add("nonpoly", true)
	return d
}
