package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/pkg/frontendsim"
)

// Workload sizes.  The warm working set is larger than simsched's
// 512-entry cache (so about a third of requests cross the hop) and
// smaller than what the busiest replica's 512-entry store holds on the
// pinned ring (so the timed phase runs no engine).  The suite-mix
// keyspace (suiteTemplates × 26 benchmarks) is larger than every store
// of the fleet combined.
const (
	warmKeys       = 768
	suiteTemplates = 128
	suiteSize      = 8
	suiteZipfS     = 1.1
)

// Simulation lengths in micro-ops, as [lo, hi) ranges drawn from the
// seed.  Cold requests are long enough that the engine dominates each
// request's blocking path; warm and suite-mix requests are the
// shortest that run (response size is set by the floorplan, not by run
// length, so short runs keep serving cost representative and set-up
// short).
var (
	coldWarmup  = [2]uint64{19_000, 21_000}
	coldMeasure = [2]uint64{57_000, 63_000}
	shortWarmup = [2]uint64{150, 250}
	shortMeas   = [2]uint64{300, 500}
)

// techniques are the technique-toggle combinations a generated request
// carries: frontends 1 or 2 × {plain, bank hopping, blank silicon} ×
// biased mapping × DTM.
var techniques = func() []frontendsim.Request {
	var out []frontendsim.Request
	for _, fe := range []int{0, 2} {
		for tc := 0; tc < 3; tc++ {
			for _, biased := range []bool{false, true} {
				for _, dtm := range []bool{false, true} {
					out = append(out, frontendsim.Request{
						Frontends:     fe,
						BankHopping:   tc == 1,
						BlankSilicon:  tc == 2,
						BiasedMapping: biased,
						DTM:           dtm,
					})
				}
			}
		}
	}
	return out
}()

var benchmarks = frontendsim.Benchmarks()

// newRand returns the generator of one named stream of a seed, so every
// draw of a workload derives from the seed alone.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Stream ids for newRand.
const (
	streamCold = iota + 1
	streamWarm
	streamTemplates
	streamClients // + client index
	streamSamples = 1 << 32
)

// shuffler deals 0..n-1 in seeded permutations, one whole permutation
// after another, so any run of n consecutive draws covers every value:
// a workload's cost mix then barely depends on the seed.
type shuffler struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (s *shuffler) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	v := s.perm[0]
	s.perm = s.perm[1:]
	return v
}

// distinct draws requests whose canonical keys never repeat: benchmark
// and technique from interleaved permutations, lengths uniform in the
// given ranges.
type distinct struct {
	eng          *frontendsim.Engine
	rng          *rand.Rand
	bench, tech  shuffler
	warmup, meas [2]uint64
	seen         map[string]bool
}

func newDistinct(eng *frontendsim.Engine, rng *rand.Rand, warmup, meas [2]uint64) *distinct {
	return &distinct{
		eng:    eng,
		rng:    rng,
		bench:  shuffler{rng: rng, n: len(benchmarks)},
		tech:   shuffler{rng: rng, n: len(techniques)},
		warmup: warmup,
		meas:   meas,
		seen:   map[string]bool{},
	}
}

func (d *distinct) next() (frontendsim.Request, string, error) {
	req := techniques[d.tech.next()]
	req.Benchmark = benchmarks[d.bench.next()]
	for {
		req.WarmupOps = d.warmup[0] + d.rng.Uint64N(d.warmup[1]-d.warmup[0])
		req.MeasureOps = d.meas[0] + d.rng.Uint64N(d.meas[1]-d.meas[0])
		key, err := d.eng.RequestKey(req)
		if err != nil {
			return req, "", err
		}
		if !d.seen[key] {
			d.seen[key] = true
			return req, key, nil
		}
	}
}

// item is one HTTP request a client sends: its body and the key-table
// index of every simulation it names (one for /v1/simulations, one per
// suite position for /v1/suites).
type item struct {
	body  []byte
	keys  []int
	suite *frontendsim.SuiteRequest // nil for a single simulation
}

// keyTable holds the canonical keys a run can touch.  Cold grows it as
// clients draw fresh requests; warm and suite-mix fill it up front.
type keyTable struct {
	mu    sync.Mutex
	reqs  []frontendsim.Request
	keys  []string
	gen   *distinct // cold only
	items []item    // single-simulation items, by key index
}

func (t *keyTable) add(req frontendsim.Request, key string) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("encode request: %w", err)
	}
	k := len(t.reqs)
	t.reqs = append(t.reqs, req)
	t.keys = append(t.keys, key)
	t.items = append(t.items, item{body: body, keys: []int{k}})
	return k, nil
}

// item returns the single-simulation item of key index k, drawing fresh
// cold requests up to k when the table grows on demand.
func (t *keyTable) item(k int) (item, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.items) <= k {
		req, key, err := t.gen.next()
		if err != nil {
			return item{}, err
		}
		if _, err := t.add(req, key); err != nil {
			return item{}, err
		}
	}
	return t.items[k], nil
}

// request returns key index k's request (k must already exist).
func (t *keyTable) request(k int) frontendsim.Request {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs[k]
}

// workload is one traffic mix: the endpoint the clients post to, the
// keys set-up posts before timing, and each client's request stream.
type workload struct {
	name string
	path string
	// setups is how many fleets one untraced run builds; setup_s is the
	// median of their set-up times.
	setups int
	table  *keyTable
	// fill lists the requests set-up posts through simsched before
	// timing starts, so the stores hold the workload's working set.
	fill []item
	// streams returns one request generator per client for one timed
	// phase; every phase replays the same sequences.
	streams func(clients int) []func() (item, error)
}

// perClient builds streams from a per-client generator constructor.
func perClient(stream func(c int) func() (item, error)) func(int) []func() (item, error) {
	return func(clients int) []func() (item, error) {
		out := make([]func() (item, error), clients)
		for c := range out {
			out[c] = stream(c)
		}
		return out
	}
}

// newWorkload builds the named workload from seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	eng := frontendsim.New()
	table := &keyTable{}
	w := &workload{name: name, path: "/v1/simulations", table: table}
	switch name {
	case "cold":
		// Every request is a key not seen earlier in the run; clients
		// share one sequence so no key repeats across them.
		table.gen = newDistinct(eng, newRand(seed, streamCold), coldWarmup, coldMeasure)
		w.setups = 9
		w.streams = func(clients int) []func() (item, error) {
			var n atomic.Int64
			next := func() (item, error) { return table.item(int(n.Add(1) - 1)) }
			out := make([]func() (item, error), clients)
			for c := range out {
				out[c] = next
			}
			return out
		}
	case "warm":
		gen := newDistinct(eng, newRand(seed, streamWarm), shortWarmup, shortMeas)
		for i := 0; i < warmKeys; i++ {
			req, key, err := gen.next()
			if err != nil {
				return nil, err
			}
			k, err := table.add(req, key)
			if err != nil {
				return nil, err
			}
			w.fill = append(w.fill, table.items[k])
		}
		w.setups = 3
		w.streams = perClient(func(c int) func() (item, error) {
			rng := newRand(seed, streamClients+uint64(c))
			return func() (item, error) {
				return table.items[rng.IntN(warmKeys)], nil
			}
		})
	case "suite-mix":
		if err := w.buildSuites(eng, seed); err != nil {
			return nil, err
		}
		w.path = "/v1/suites"
		w.setups = 9
	default:
		return nil, fmt.Errorf("unknown workload %q (cold|warm|suite-mix)", name)
	}
	return w, nil
}

// buildSuites fills the key table with suiteTemplates short-simulation
// templates × every benchmark (key index = template*26 + benchmark) and
// sets up the suite streams: each suite draws its template from a Zipf
// over the templates and its benchmarks uniformly with replacement, so
// suites share keys with each other and sometimes within themselves.
func (w *workload) buildSuites(eng *frontendsim.Engine, seed uint64) error {
	gen := newDistinct(eng, newRand(seed, streamTemplates), shortWarmup, shortMeas)
	templates := make([]frontendsim.Request, suiteTemplates)
	seen := map[string]bool{}
	for t := range templates {
		// gen keeps whole requests distinct; templates must also differ
		// once the benchmark is set aside.
		for {
			tmpl, _, err := gen.next()
			if err != nil {
				return err
			}
			tmpl.Benchmark = benchmarks[0]
			key, err := eng.RequestKey(tmpl)
			if err != nil {
				return err
			}
			if !seen[key] {
				seen[key] = true
				tmpl.Benchmark = ""
				templates[t] = tmpl
				break
			}
		}
		tmpl := templates[t]
		for _, b := range benchmarks {
			req := tmpl
			req.Benchmark = b
			key, err := eng.RequestKey(req)
			if err != nil {
				return err
			}
			if _, err := w.table.add(req, key); err != nil {
				return err
			}
		}
	}
	suites := func(stream uint64) func() (item, error) {
		rng := newRand(seed, stream)
		zipf := rand.NewZipf(rng, suiteZipfS, 1, suiteTemplates-1)
		return func() (item, error) {
			t := int(zipf.Uint64())
			suite := &frontendsim.SuiteRequest{Request: templates[t], Benchmarks: make([]string, suiteSize)}
			keys := make([]int, suiteSize)
			for p := range keys {
				b := rng.IntN(len(benchmarks))
				suite.Benchmarks[p] = benchmarks[b]
				keys[p] = t*len(benchmarks) + b
			}
			body, err := json.Marshal(suite)
			if err != nil {
				return item{}, fmt.Errorf("encode suite: %w", err)
			}
			return item{body: body, keys: keys, suite: suite}, nil
		}
	}
	w.streams = perClient(func(c int) func() (item, error) {
		return suites(streamClients + uint64(c))
	})
	return nil
}
