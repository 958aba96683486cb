package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/frontendsim"
)

// clients is the closed loop's width: nproc is 2 on the reference host,
// and each caller waits for its reply like a sweep script.
const clients = 2

// newClients returns one HTTP client per closed-loop caller, each
// holding a single keep-alive connection.
func newClients() []*http.Client {
	out := make([]*http.Client, clients)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// post sends one request and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// bodyTable keeps the first response body served for each key and
// compares every later body for the same key against it.
type bodyTable struct {
	mu         sync.Mutex
	first      map[int][]byte
	mismatches atomic.Int64
}

func newBodyTable() *bodyTable { return &bodyTable{first: map[int][]byte{}} }

// observe records body as key k's first body, or counts a mismatch
// when it differs from the first.
func (b *bodyTable) observe(k int, body []byte) {
	b.mu.Lock()
	first, ok := b.first[k]
	if !ok {
		b.first[k] = bytes.Clone(body)
	}
	b.mu.Unlock()
	if ok && !bytes.Equal(first, body) {
		b.mismatches.Add(1)
	}
}

// observeResponse observes a response body per key: the body itself for
// a single simulation, each position's result for a suite.
func (b *bodyTable) observeResponse(it item, body []byte) {
	if it.suite == nil {
		b.observe(it.keys[0], body)
		return
	}
	results, err := splitSuite(body, len(it.keys))
	if err != nil {
		b.mismatches.Add(1)
		return
	}
	for pos, k := range it.keys {
		b.observe(k, results[pos])
	}
}

func (b *bodyTable) get(k int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first[k]
}

var (
	suitePrefix = []byte(`{"results":[`)
	resultStart = []byte(`,{"benchmark":"`)
	resultsEnd  = []byte(`],"aggregate":`)
)

// splitSuite cuts a /v1/suites response into its n per-position result
// bodies without decoding it: results are encoded in suite order, each
// an object whose first field is "benchmark", so the boundaries are
// found by plain byte search.  A body that does not have that shape is
// an error.
func splitSuite(body []byte, n int) ([][]byte, error) {
	if !bytes.HasPrefix(body, suitePrefix) {
		return nil, errors.New("suite response does not start with results")
	}
	rest := body[len(suitePrefix):]
	out := make([][]byte, n)
	for p := range out {
		sep := resultStart
		if p == n-1 {
			sep = resultsEnd
		}
		i := bytes.Index(rest, sep)
		if i < 0 {
			return nil, fmt.Errorf("suite response has fewer than %d results", n)
		}
		out[p] = rest[:i]
		rest = rest[i+1:]
	}
	return out, nil
}

// setUp builds a fleet, opens the clients' keep-alive connections and
// posts the workload's fill requests through simsched.
func setUp(wl *workload, tr *tracer, bodies *bodyTable) (*fleet, []*http.Client, error) {
	f, err := startFleet(tr)
	if err != nil {
		return nil, nil, err
	}
	cs := newClients()
	fail := func(err error) (*fleet, []*http.Client, error) {
		closeClients(cs)
		f.Close()
		return nil, nil, err
	}
	for _, c := range cs {
		resp, err := c.Get(f.url + "/healthz")
		if err != nil {
			return fail(fmt.Errorf("fleetbench: connect: %w", err))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var (
		next  atomic.Int64
		errMu sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(wl.fill); i = int(next.Add(1) - 1) {
				it := wl.fill[i]
				status, err := post(c, f.url+wl.path, it.body, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				}
				if err != nil {
					errMu.Lock()
					first = fmt.Errorf("fleetbench: fill: %w", err)
					errMu.Unlock()
					return
				}
				bodies.observeResponse(it, buf.Bytes())
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return fail(first)
	}
	return f, cs, nil
}

// clientLog is one closed-loop client's record of a timed phase.
type clientLog struct {
	ok, failed int
	lat        []time.Duration // every request, failures included
	end        time.Time       // when the client's last request completed
	done       []int           // key index of every suite position served
	shards     int             // unique keys summed over requests
	samples    []suiteSample   // retained suite responses (suite-mix)
}

// suiteSample is one retained suite request and response, re-run
// in-process by the correctness check.
type suiteSample struct {
	suite frontendsim.SuiteRequest
	body  []byte
}

// phase is the record of one timed phase.
type phase struct {
	start   time.Time
	clients []clientLog
	err     error // a generator failure; the phase is void
}

// suiteSampleOdds: a client keeps one suite response in this many for
// the in-process re-run, at most suiteSamplesPerClient of them.
const (
	suiteSampleOdds       = 32
	suiteSamplesPerClient = 8
)

// drive runs the closed loop against f for length: each client sends
// its next request when the previous one completes, until the deadline
// passes.
func drive(f *fleet, cs []*http.Client, wl *workload, seed uint64, length time.Duration, bodies *bodyTable) phase {
	p := phase{clients: make([]clientLog, len(cs))}
	streams := wl.streams(len(cs))
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
	)
	p.start = time.Now()
	deadline := p.start.Add(length)
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := &p.clients[i]
			next := streams[i]
			pick := newRand(seed, streamSamples+uint64(i))
			url := f.url + wl.path
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				it, err := next()
				if err != nil {
					errMu.Lock()
					p.err = err
					errMu.Unlock()
					return
				}
				t0 := time.Now()
				status, err := post(c, url, it.body, &buf)
				lat := time.Since(t0)
				log.end = time.Now()
				if err != nil || status != http.StatusOK {
					// A failed request misses every latency limit.
					log.failed++
					log.lat = append(log.lat, length)
					continue
				}
				log.ok++
				log.lat = append(log.lat, lat)
				log.shards += uniqueKeys(it.keys)
				bodies.observeResponse(it, buf.Bytes())
				log.done = append(log.done, it.keys...)
				if it.suite != nil && len(log.samples) < suiteSamplesPerClient && pick.IntN(suiteSampleOdds) == 0 {
					log.samples = append(log.samples, suiteSample{suite: *it.suite, body: bytes.Clone(buf.Bytes())})
				}
			}
		}()
	}
	wg.Wait()
	return p
}

func uniqueKeys(keys []int) int {
	n := 0
	for i, k := range keys {
		seen := false
		for _, j := range keys[:i] {
			if j == k {
				seen = true
				break
			}
		}
		if !seen {
			n++
		}
	}
	return n
}

func (p *phase) attempted() (attempted, failed int) {
	for _, c := range p.clients {
		attempted += c.ok + c.failed
		failed += c.failed
	}
	return attempted, failed
}

// rate sums each client's own rate: a client is busy from the start of
// the phase until its last request completes, so ok/(end−start) is its
// exact rate, with no partly finished request to apportion.  weight
// gives the amount one client completed (requests, cycles).
func (p *phase) rate(weight func(c *clientLog) float64) float64 {
	total := 0.0
	for i := range p.clients {
		c := &p.clients[i]
		if c.ok == 0 {
			continue
		}
		total += weight(c) / c.end.Sub(p.start).Seconds()
	}
	return total
}

func (p *phase) throughput() float64 {
	return p.rate(func(c *clientLog) float64 { return float64(c.ok) })
}

// latencies returns every request's latency, sorted.
func (p *phase) latencies() []time.Duration {
	var all []time.Duration
	for _, c := range p.clients {
		all = append(all, c.lat...)
	}
	slices.Sort(all)
	return all
}
