package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mbasolver/internal/cluster"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/store"
)

// served-mix sizing. The hot key space (about 3100 distinct requests)
// is several times larger than the two nodes' LRUs together, and its
// popularity is Zipf skewed, so the hot requests mix LRU hits and store
// reads. Every hot key is primed into the nodes' verdict logs before the
// run; cold computes, which append to the logs, come only from the cold
// keys that roundPlan puts in every round.
const (
	servedNodes       = 2
	servedLRU         = 256 // entries per node
	zipfS             = 1.1 // P(rank k) ∝ (zipfV+k)^-zipfS: the top 100 keys
	zipfV             = 10  // of a space draw more than half of its requests
	classifySamples   = 16
	batchSize         = 8
	servedTimeoutMS   = 120_000
	servedW64Conflict = 8_000
	servedW3Conflict  = 50_000
	warmRounds        = 7 // a segment (segmentOps) of unmeasured rounds
)

// roundPlan is one served-mix round of 160 requests: for each request
// kind, how many ask a hot key and how many a cold one, never asked
// before. The proportions are assumed, not measured; README.md gives
// the reasoning for each. One item of every batch is cold, so one
// eighth of every kind is cold.
var roundPlan = []struct {
	kind      string
	hot, cold int
}{
	{"solve", 42, 6},
	{"portfolio", 7, 1},
	{"raw", 7, 1},
	{"simplify", 42, 6},
	{"classify", 28, 4},
	{"batch", 16, 0},
}

// itemMeta records how a request item was built, which fixes its
// expected answer.
type itemMeta struct {
	kind  string // solve | simplify | classify
	q     query  // solve items
	entry int    // simplify and classify items
}

type servedReq struct {
	kind  string // a roundPlan kind
	items []service.BatchItem
	meta  []itemMeta
}

// mix holds the served-mix key spaces. The hot keys are servedPerKind
// corpus entries of each kind, picked and ranked by a fixed
// pseudo-random permutation, the same in every run; the cold pools are
// the other corpus entries, in a fixed order. The seed draws the
// request stream but not which keys exist, which are hot, or which cold
// keys a run asks: a seed that made a few costly keys hot, or drew
// costly cold keys, would move every end-to-end metric.
type mix struct {
	c            *corpus
	solveKeys    []query
	rawKeys      []int
	simplifyKeys []int
	classifyKeys []int // entry*2 + sample seed - 1
	coldSolve    []query
	coldRaw      []int
	coldEntries  []int // cold simplify and classify keys
}

// servedPerKind is the number of corpus entries of each kind in the
// hot key space.
const servedPerKind = 200

func newMix(c *corpus, chk *checker) (*mix, error) {
	m := &mix{c: c}
	r := rand.New(rand.NewSource(1))
	for _, kind := range []string{"linear", "poly", "nonpoly"} {
		ids := c.byKind[kind]
		for rank, k := range r.Perm(len(ids)) {
			i := ids[k]
			hot := rank < servedPerKind
			for _, q := range []query{{entry: i}, {entry: i, variant: true}} {
				if kind == "nonpoly" && !q.variant {
					continue // the method's known residue; see README.md
				}
				if hot {
					m.solveKeys = append(m.solveKeys, q)
				} else {
					m.coldSolve = append(m.coldSolve, q)
				}
			}
			if hot {
				m.simplifyKeys = append(m.simplifyKeys, i)
				m.classifyKeys = append(m.classifyKeys, 2*i, 2*i+1)
			} else {
				m.coldEntries = append(m.coldEntries, i)
			}
			// Raw width-3 solves use two-variable identities, which a
			// fresh solver decides in a few milliseconds.
			e := c.entries[i]
			eo, err := chk.expr(e.obf)
			if err != nil {
				return nil, err
			}
			eg, err := chk.expr(e.ground)
			if err != nil {
				return nil, err
			}
			if len(unionVars(eo.vars, eg.vars)) == 2 {
				if hot {
					m.rawKeys = append(m.rawKeys, i)
				} else {
					m.coldRaw = append(m.coldRaw, i)
				}
			}
		}
	}
	// Rank each hot key space (position 0 is the most popular key) and
	// interleave the kinds in each cold pool.
	for _, keys := range [][]query{m.solveKeys, m.coldSolve} {
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	for _, keys := range [][]int{m.rawKeys, m.simplifyKeys, m.classifyKeys, m.coldRaw, m.coldEntries} {
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	return m, nil
}

// zipfDeal deals ranks of a key space with Zipf popularity,
// P(rank k) ∝ (zipfV+k)^-zipfS. Draw j inverts the distribution at the
// golden-ratio point frac(u0 + j·φ), a low-discrepancy sequence, so
// every run gives each key nearly its expected share of requests and
// seeds differ in the order of requests, not in which keys are asked.
type zipfDeal struct {
	cdf []float64
	u   float64
}

func newZipfDeal(n int, u0 float64) *zipfDeal {
	z := &zipfDeal{cdf: make([]float64, n), u: u0}
	total := 0.0
	for k := range z.cdf {
		total += math.Pow(zipfV+float64(k), -zipfS)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipfDeal) next() int {
	z.u += 0.6180339887498949
	if z.u >= 1 {
		z.u--
	}
	return min(sort.SearchFloat64s(z.cdf, z.u), len(z.cdf)-1)
}

// coldDraw returns the next key of a cold pool, of which *n have been
// drawn, and its generation: a pool that wraps around asks its keys
// again with their variables renamed, which no node has seen either.
func coldDraw[T any](pool []T, n *int) (T, int) {
	j := *n
	*n++
	return pool[j%len(pool)], j / len(pool)
}

// rename appends "_<gen>" to every variable of an expression; gen 0
// leaves it as it is.
func rename(text string, gen int) string {
	if gen == 0 {
		return text
	}
	suffix := fmt.Sprintf("_%d", gen)
	var b strings.Builder
	for i := 0; i < len(text); {
		c, j := text[i], i+1
		if isWordByte(c) { // a variable or a number, hex digits included
			for j < len(text) && isWordByte(text[j]) {
				j++
			}
		}
		b.WriteString(text[i:j])
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			b.WriteString(suffix)
		}
		i = j
	}
	return b.String()
}

// The request items, built from keys.

func solveItem(c *corpus, q query, gen int, width uint, simplify, portfolio bool) (service.BatchItem, itemMeta) {
	a, b := q.sides(c)
	conflicts := servedW64Conflict
	if width == 3 {
		conflicts = servedW3Conflict
	}
	return service.BatchItem{Solve: &service.SolveRequest{
			A: rename(a, gen), B: rename(b, gen), Width: width, Simplify: simplify, Portfolio: portfolio,
			TimeoutMS: servedTimeoutMS, Conflicts: int64(conflicts),
		}},
		itemMeta{kind: "solve", q: q}
}

func simplifyItem(c *corpus, entry, gen int) (service.BatchItem, itemMeta) {
	return service.BatchItem{Simplify: &service.SimplifyRequest{Expr: rename(c.entries[entry].obf, gen), Width: 64}},
		itemMeta{kind: "simplify", entry: entry}
}

func classifyItem(c *corpus, entry int, seed uint64, gen int) (service.BatchItem, itemMeta) {
	return service.BatchItem{Classify: &service.ClassifyRequest{
			Expr: rename(c.entries[entry].obf, gen), Width: 64, Samples: classifySamples, Seed: seed,
		}},
		itemMeta{kind: "classify", entry: entry}
}

// primeItems lists one item for every key of the hot key space.
func (m *mix) primeItems() []service.BatchItem {
	var items []service.BatchItem
	for _, q := range m.solveKeys {
		it, _ := solveItem(m.c, q, 0, 64, true, false)
		items = append(items, it)
	}
	for _, i := range m.rawKeys {
		it, _ := solveItem(m.c, query{entry: i}, 0, 3, false, false)
		items = append(items, it)
	}
	for _, i := range m.simplifyKeys {
		it, _ := simplifyItem(m.c, i, 0)
		items = append(items, it)
	}
	for _, k := range m.classifyKeys {
		it, _ := classifyItem(m.c, k/2, uint64(k%2+1), 0)
		items = append(items, it)
	}
	for _, it := range items {
		if it.Solve != nil {
			it.Solve.TimeoutMS = 0 // a batch has one shared deadline
		}
	}
	return items
}

// drawer draws one stream of requests.
type drawer struct {
	m                          *mix
	solve, raw, simp, classify *zipfDeal
	coldSolve, coldRaw         int // cold keys drawn so far
	coldSimp, coldClassify     int
}

func (m *mix) drawer(seed uint64) *drawer {
	u := func(i uint64) float64 { return float64(splitmix(seed+i)>>11) / (1 << 53) }
	return &drawer{m: m,
		solve:    newZipfDeal(len(m.solveKeys), u(1)),
		raw:      newZipfDeal(len(m.rawKeys), u(2)),
		simp:     newZipfDeal(len(m.simplifyKeys), u(3)),
		classify: newZipfDeal(len(m.classifyKeys), u(4)),
	}
}

func (d *drawer) solve64(portfolio, cold bool) (service.BatchItem, itemMeta) {
	q, gen := d.m.solveKeys[d.solve.next()], 0
	if cold {
		q, gen = coldDraw(d.m.coldSolve, &d.coldSolve)
	}
	return solveItem(d.m.c, q, gen, 64, true, portfolio)
}

func (d *drawer) raw3(cold bool) (service.BatchItem, itemMeta) {
	i, gen := d.m.rawKeys[d.raw.next()], 0
	if cold {
		i, gen = coldDraw(d.m.coldRaw, &d.coldRaw)
	}
	return solveItem(d.m.c, query{entry: i}, gen, 3, false, false)
}

func (d *drawer) simplify(cold bool) (service.BatchItem, itemMeta) {
	i, gen := d.m.simplifyKeys[d.simp.next()], 0
	if cold {
		i, gen = coldDraw(d.m.coldEntries, &d.coldSimp)
	}
	return simplifyItem(d.m.c, i, gen)
}

func (d *drawer) classifyReq(cold bool) (service.BatchItem, itemMeta) {
	k := d.m.classifyKeys[d.classify.next()]
	i, seed, gen := k/2, uint64(k%2+1), 0
	if cold {
		i, gen = coldDraw(d.m.coldEntries, &d.coldClassify)
		seed = 1
	}
	return classifyItem(d.m.c, i, seed, gen)
}

// request draws one request of a kind. A batch holds its one cold item
// at position coldItem.
func (d *drawer) request(kind string, cold bool, coldItem int) servedReq {
	req := servedReq{kind: kind}
	add := func(it service.BatchItem, m itemMeta) {
		req.items = append(req.items, it)
		req.meta = append(req.meta, m)
	}
	switch kind {
	case "solve":
		add(d.solve64(false, cold))
	case "portfolio":
		add(d.solve64(true, cold))
	case "raw":
		add(d.raw3(cold))
	case "simplify":
		add(d.simplify(cold))
	case "classify":
		add(d.classifyReq(cold))
	case "batch":
		for k := 0; k < batchSize/2; k++ {
			it, m := d.solve64(false, k == coldItem)
			it.Solve.TimeoutMS = 0 // a batch has one shared deadline
			add(it, m)
		}
		for k := batchSize / 2; k < batchSize; k += 2 {
			add(d.simplify(k == coldItem))
			add(d.classifyReq(k+1 == coldItem))
		}
	}
	return req
}

// round is one measured round: every request of roundPlan, in random
// order. The batches take turns at which item is cold.
func (d *drawer) round(seed int64, round int) []servedReq {
	type slot struct {
		kind string
		cold bool
	}
	var slots []slot
	for _, p := range roundPlan {
		for k := 0; k < p.hot+p.cold; k++ {
			slots = append(slots, slot{p.kind, k >= p.hot})
		}
	}
	roundRand(seed, round).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	reqs := make([]servedReq, len(slots))
	batches := 0
	for i, s := range slots {
		coldItem := -1
		if s.kind == "batch" {
			coldItem = batches % batchSize
			batches++
		}
		reqs[i] = d.request(s.kind, s.cold, coldItem)
	}
	return reqs
}

// servedNode is one mbaserved instance on loopback with its verdict store.
type servedNode struct {
	svc  *service.Server
	srv  *http.Server
	st   *store.Store
	url  string
	errc chan error
}

// testCluster is the router in front of servedNodes nodes.
type testCluster struct {
	nodes    []*servedNode
	rt       *cluster.Router
	front    *http.Server
	frontErr chan error
	cl       *client.Client
	openMS   float64 // time in store.Open, summed over nodes
}

func serve(ln net.Listener, h http.Handler) (*http.Server, chan error) {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, errc
}

// bootCluster starts the nodes on addrs (":0" ports are replaced by the
// bound ones), each recovering its store from dirs[i], then the router,
// and returns once every node and the router answer /readyz. Nodes with
// fresh set solve with a fresh solver per query rather than through
// their incremental contexts.
func bootCluster(ctx context.Context, dirs, addrs []string, fresh bool) (*testCluster, error) {
	tc := &testCluster{}
	var urls []string
	for i := range dirs {
		t0 := time.Now()
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			tc.close()
			return nil, err
		}
		tc.openMS += ms(time.Since(t0))
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			_ = st.Close() // the listen error is the one to report
			tc.close()
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		svc := service.New(service.Config{Workers: 1, CacheSize: servedLRU, Store: st, DisableIncremental: fresh})
		srv, errc := serve(ln, svc.Handler())
		n := &servedNode{svc: svc, srv: srv, st: st, url: "http://" + addrs[i], errc: errc}
		tc.nodes = append(tc.nodes, n)
		urls = append(urls, n.url)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: urls})
	if err != nil {
		tc.close()
		return nil, err
	}
	tc.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.close()
		return nil, err
	}
	tc.front, tc.frontErr = serve(ln, rt.Handler())
	tc.cl = client.New("http://" + ln.Addr().String())
	for _, n := range tc.nodes {
		if err := client.New(n.url).Ready(ctx); err != nil {
			tc.close()
			return nil, fmt.Errorf("node %s not ready: %w", n.url, err)
		}
	}
	if err := tc.cl.Ready(ctx); err != nil {
		tc.close()
		return nil, fmt.Errorf("router not ready: %w", err)
	}
	return tc, nil
}

// close drains and stops everything bootCluster started, waiting for
// every server goroutine to return.
func (tc *testCluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if tc.front != nil {
		errs = append(errs, tc.front.Shutdown(ctx))
		if err := <-tc.frontErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if tc.rt != nil {
		tc.rt.Close()
	}
	for _, n := range tc.nodes {
		errs = append(errs, n.svc.Shutdown(ctx), n.srv.Shutdown(ctx))
		if err := <-n.errc; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, n.st.Close())
	}
	return errors.Join(errs...)
}

// nodeTotals sums the nodes' /debug/metrics counters.
type nodeTotals struct {
	cacheHits, cacheMisses, rejected                  int64
	storeHits, storeMisses, puts, dropped, syncs, rec int64
}

func (tc *testCluster) totals(ctx context.Context) (nodeTotals, error) {
	var t nodeTotals
	for _, n := range tc.nodes {
		s, err := client.New(n.url).Metrics(ctx)
		if err != nil {
			return t, err
		}
		t.cacheHits += s.Cache.Hits
		t.cacheMisses += s.Cache.Misses
		t.rejected += s.Pool.Rejected
		if s.Store != nil {
			t.storeHits += s.Store.Hits
			t.storeMisses += s.Store.Misses
			t.puts += s.Store.Puts
			t.dropped += s.Store.Dropped
			t.syncs += s.Store.Syncs
			t.rec += s.Store.Recovered
		}
	}
	return t, nil
}

// send issues one request through the typed client and returns the
// per-item results in request order. Single requests are wrapped as a
// one-item result.
func send(ctx context.Context, cl *client.Client, req servedReq) ([]service.BatchItemResult, error) {
	it := req.items[0]
	switch {
	case req.kind == "batch":
		resp, err := cl.Batch(ctx, service.BatchRequest{Items: req.items, TimeoutMS: servedTimeoutMS})
		if err != nil {
			return nil, err
		}
		return resp.Items, nil
	case it.Solve != nil:
		resp, err := cl.Solve(ctx, *it.Solve)
		if err != nil {
			return nil, err
		}
		return []service.BatchItemResult{{Solve: resp}}, nil
	case it.Simplify != nil:
		resp, err := cl.Simplify(ctx, *it.Simplify)
		if err != nil {
			return nil, err
		}
		return []service.BatchItemResult{{Simplify: resp}}, nil
	default:
		resp, err := cl.Classify(ctx, *it.Classify)
		if err != nil {
			return nil, err
		}
		return []service.BatchItemResult{{Classify: resp}}, nil
	}
}

// runServed drives a single-process cluster over loopback HTTP with one
// closed-loop client.
func runServed(cfg config, c *corpus, chk *checker) (*outcome, error) {
	o := &outcome{tr: &tracer{on: cfg.trace}}
	ctx := context.Background()
	m, err := newMix(c, chk)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dirs := make([]string, servedNodes)
	addrs := make([]string, servedNodes)
	for i := range dirs {
		dirs[i] = filepath.Join(work, fmt.Sprintf("node%d", i))
		addrs[i] = "127.0.0.1:0"
	}

	// Priming: a first life of the cluster leaves a verdict for every
	// hot key in its logs. It solves with fresh solvers, which answer raw
	// width-3 queries much faster than the incremental contexts (see
	// CHANGES.md); the verdicts are the same.
	tc, err := bootCluster(ctx, dirs, addrs, true)
	if err != nil {
		return nil, err
	}
	if err := prime(ctx, tc, m.primeItems()); err != nil {
		tc.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	if err := tc.close(); err != nil {
		return nil, err
	}

	// Restarts on the same addresses, so the ring sends every key back
	// to the node whose log holds it. setup_s is the median restart.
	var openMS []float64
	for k := 0; k < restartRepeats; k++ {
		runtime.GC() // start each restart from the same heap
		t0 := time.Now()
		tc, err = bootCluster(ctx, dirs, addrs, false)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		openMS = append(openMS, tc.openMS)
		if k < restartRepeats-1 {
			if err := tc.close(); err != nil {
				return nil, err
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			tc.close()
		}
	}()

	d := m.drawer(uint64(cfg.seed))
	// Warm-up: before the window opens, one segment's worth of rounds
	// fills the nodes' LRUs, emptied by the restart.
	for round := -warmRounds; round < 0; round++ {
		for _, req := range d.round(cfg.seed, round) {
			res, err := send(ctx, tc.cl, req)
			if err := checkServed(chk, c, req, res, err, 0, newServedLayers()); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	before, err := tc.totals(ctx)
	if err != nil {
		return nil, err
	}
	rt0 := tc.rt.Snapshot()
	lay := newServedLayers()
	var computed []int // items computed, not cached, per request
	tr := o.tr
	w := openWindow(syscall.RUSAGE_SELF)
	tr.t0 = w.start
	for round := 0; round == 0 || w.elapsed() < cfg.seconds; round++ {
		for _, req := range d.round(cfg.seed, round) {
			t0 := time.Now()
			sp := tr.begin("client."+req.kind, o.attempted, -1)
			res, err := send(ctx, tc.cl, req)
			tr.end(sp, "")
			lat := ms(time.Since(t0))
			o.latMS = append(o.latMS, lat)
			o.count(w.check(func() error {
				n := 0
				for _, r := range res {
					if !cached(r) {
						n++
					}
				}
				computed = append(computed, n)
				return checkServed(chk, c, req, res, err, lat, lay)
			}))
		}
		w.endRound(o.attempted)
	}
	w.close(o)
	if cfg.trace {
		// The cold share is fixed per round, so every segment computes
		// nearly the same number of items.
		for k, sg := range o.segments {
			n := 0
			for _, x := range computed[sg.from:sg.to] {
				n += x
			}
			fmt.Fprintf(os.Stderr, "benchmark: segment %d: %d requests, %d items computed\n", k, sg.to-sg.from, n)
		}
	}
	after, err := tc.totals(ctx)
	if err != nil {
		return nil, err
	}
	rt1 := tc.rt.Snapshot()
	recovered := after.rec
	closed = true
	if err := tc.close(); err != nil {
		return nil, err
	}

	o.altOut = lay.altOut.mean()
	o.layers = lay.metrics()
	o.layers["service.cache_hits"] = metric{float64(after.cacheHits - before.cacheHits), "count"}
	o.layers["service.cache_misses"] = metric{float64(after.cacheMisses - before.cacheMisses), "count"}
	o.layers["service.rejected"] = metric{float64(after.rejected - before.rejected), "count"}
	o.layers["cluster.forwarded"] = metric{float64(rt1.Forwarded - rt0.Forwarded), "count"}
	o.layers["cluster.failovers"] = metric{float64(rt1.Failovers - rt0.Failovers), "count"}
	o.layers["store.hits"] = metric{float64(after.storeHits - before.storeHits), "count"}
	o.layers["store.misses"] = metric{float64(after.storeMisses - before.storeMisses), "count"}
	o.layers["store.puts"] = metric{float64(after.puts - before.puts), "count"}
	o.layers["store.dropped"] = metric{float64(after.dropped - before.dropped), "count"}
	o.layers["store.syncs"] = metric{float64(after.syncs - before.syncs), "count"}
	o.layers["store.recovered"] = metric{float64(recovered), "count"}
	o.layers["store.recover_ms"] = metric{median(openMS), "ms"}
	return o, nil
}

// prime sends items through the router in batches, which it splits
// across the nodes as it would route each item alone.
func prime(ctx context.Context, tc *testCluster, items []service.BatchItem) error {
	for i := 0; i < len(items); i += batchSize {
		resp, err := tc.cl.Batch(ctx, service.BatchRequest{Items: items[i:min(i+batchSize, len(items))], TimeoutMS: servedTimeoutMS})
		if err != nil {
			return err
		}
		for _, r := range resp.Items {
			if r.Error != "" {
				return errors.New(r.Error)
			}
		}
	}
	return nil
}

// cached reports whether a node answered an item from its LRU or store.
func cached(r service.BatchItemResult) bool {
	switch {
	case r.Solve != nil:
		return r.Solve.Cached
	case r.Simplify != nil:
		return r.Simplify.Cached
	case r.Classify != nil:
		return r.Classify.Cached
	}
	return false
}

// mean accumulates an average.
type mean struct {
	sum float64
	n   int
}

func (a *mean) add(x float64) { a.sum += x; a.n++ }

func (a *mean) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// servedLayers accumulates what the responses say about each layer.
type servedLayers struct {
	client                                map[string]*mean // by request kind
	service                               map[string]*mean // node-reported elapsed, singles
	hop, portfolio, altIn, altOut         mean
	cached, simpCalls                     int
	simpMS                                float64
	smtCalls, screen, rewrite, satDecided int
	checkMS, screenMS, rewriteMS, satMS   float64
	conflicts, props                      int64
	batchConflicts, batchProps            int64 // SAT-decided batch items
}

func newServedLayers() *servedLayers {
	l := &servedLayers{client: map[string]*mean{}, service: map[string]*mean{}}
	for _, k := range []string{"solve", "simplify", "classify", "batch"} {
		l.client[k], l.service[k] = &mean{}, &mean{}
	}
	return l
}

// checkServed checks one request's results and accounts them to the
// layers. A request fails on a transport or non-2xx error, an item
// error, an "unavailable" degradation, or any wrong item.
func checkServed(chk *checker, c *corpus, req servedReq, results []service.BatchItemResult, sendErr error, latMS float64, l *servedLayers) error {
	kind := req.kind
	if kind == "portfolio" || kind == "raw" {
		kind = "solve"
	}
	l.client[kind].add(latMS)
	if sendErr != nil {
		return sendErr
	}
	if len(results) != len(req.items) {
		return fmt.Errorf("%d results for %d items", len(results), len(req.items))
	}
	single := req.kind != "batch"
	for i, res := range results {
		meta, item := req.meta[i], req.items[i]
		if res.Error != "" {
			return fmt.Errorf("item %d: %s", i, res.Error)
		}
		var elapsed float64
		var err error
		switch meta.kind {
		case "solve":
			if res.Solve == nil {
				return fmt.Errorf("item %d: no solve result", i)
			}
			s := res.Solve
			elapsed = s.ElapsedMS
			if s.Cached {
				l.cached++
			} else {
				l.addSolve(s, !single)
			}
			err = chk.verdict(item.Solve.A, item.Solve.B, item.Solve.Width, !meta.q.variant, s.Status, s.Reason, s.Witness)
			if req.kind == "portfolio" {
				l.portfolio.add(s.ElapsedMS)
			}
		case "simplify":
			if res.Simplify == nil {
				return fmt.Errorf("item %d: no simplify result", i)
			}
			s := res.Simplify
			elapsed = s.ElapsedMS
			if s.Cached {
				l.cached++
			} else {
				l.simpCalls++
				l.simpMS += s.ElapsedMS
			}
			in := item.Simplify.Expr
			if err = chk.simplification(in, s.Simplified, c.entries[meta.entry].kind == "linear"); err == nil {
				in, _ := chk.expr(in)            // parsed by the check above
				out, _ := chk.expr(s.Simplified) // parsed by the check above
				l.altIn.add(float64(in.root.alternation()))
				l.altOut.add(float64(out.root.alternation()))
			}
		case "classify":
			if res.Classify == nil {
				return fmt.Errorf("item %d: no classify result", i)
			}
			s := res.Classify
			elapsed = s.ElapsedMS
			if s.Cached {
				l.cached++
			}
			if len(s.Samples) != item.Classify.Samples {
				err = fmt.Errorf("%d samples, asked for %d", len(s.Samples), item.Classify.Samples)
			}
			for _, p := range s.Samples {
				if err == nil {
					err = chk.sample(item.Classify.Expr, item.Classify.Width, s.Width, p.Inputs, p.Output)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		if single {
			l.service[meta.kind].add(elapsed)
			l.hop.add(latMS - elapsed)
		}
	}
	return nil
}

// addSolve accounts one computed (uncached) verdict to the smt and sat
// layers. The wire form has no screen flag: a verdict reached without
// rewriting and without a single SAT propagation came from the screen.
// Only a batch item's elapsed_ms is the solver's own time; a single
// solve's is its whole handler (parsing, simplification, solving), so
// busy times and SAT rates come from batch items alone.
func (l *servedLayers) addSolve(s *service.SolveResponse, batch bool) {
	l.smtCalls++
	var busy *float64
	switch {
	case s.Rewritten:
		l.rewrite++
		busy = &l.rewriteMS
	case s.Propagations == 0 && s.Status == "not-equivalent":
		l.screen++
		busy = &l.screenMS
	default:
		l.satDecided++
		l.conflicts += s.Conflicts
		l.props += s.Propagations
		busy = &l.satMS
		if batch {
			l.batchConflicts += s.Conflicts
			l.batchProps += s.Propagations
		}
	}
	if batch {
		l.checkMS += s.ElapsedMS
		*busy += s.ElapsedMS
	}
}

func (l *servedLayers) metrics() map[string]metric {
	m := map[string]metric{}
	for _, k := range []string{"solve", "simplify", "classify", "batch"} {
		m["client."+k+"_ms"] = metric{l.client[k].mean(), "ms"}
	}
	for _, k := range []string{"solve", "simplify", "classify"} {
		m["service."+k+"_ms"] = metric{l.service[k].mean(), "ms"}
	}
	perS := func(n int64) float64 {
		if l.satMS == 0 {
			return 0
		}
		return float64(n) / (l.satMS / 1000)
	}
	for k, v := range map[string]float64{
		"service.cached_responses": float64(l.cached),
		"core.simplify_calls":      float64(l.simpCalls),
		"core.alternation_in":      l.altIn.mean(),
		"smt.calls":                float64(l.smtCalls),
		"smt.decided_screen":       float64(l.screen),
		"smt.decided_rewrite":      float64(l.rewrite),
		"smt.decided_sat":          float64(l.satDecided),
		"sat.conflicts":            float64(l.conflicts),
		"sat.propagations":         float64(l.props),
	} {
		m[k] = metric{v, "count"}
	}
	for k, v := range map[string]float64{
		"core.simplify_ms":   l.simpMS,
		"smt.check_ms":       l.checkMS,
		"smt.screen_ms":      l.screenMS,
		"smt.rewrite_ms":     l.rewriteMS,
		"smt.sat_ms":         l.satMS,
		"cluster.hop_ms":     l.hop.mean(),
		"portfolio.solve_ms": l.portfolio.mean(),
	} {
		m[k] = metric{v, "ms"}
	}
	m["sat.props_per_s"] = metric{perS(l.batchProps), "1/s"}
	m["sat.conflicts_per_s"] = metric{perS(l.batchConflicts), "1/s"}
	return m
}
