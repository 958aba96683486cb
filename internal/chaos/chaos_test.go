// Package chaos is the seeded fault-injection integration suite (`make
// chaos`): a small simd fleet behind faultinject proxies, driven through
// the real scheduler, asserting the resilience layer end to end — zero
// client-visible errors in strict mode under latency spikes, injected
// 500s and a flapping backend; correct PARTIAL-ERROR accounting in
// degraded mode; passive breaker + quarantine before any probe round;
// and 503 + Retry-After shedding from a saturated backend.  All fault
// draws come from seeded PRNGs, the ring hashes fixed logical node URLs,
// and every suite is built from the ring's actual key assignment, so the
// scenarios do not depend on port numbers or timing luck.
package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/faultinject"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/scheduler"
)

// engineOpts keeps every tier (backends, scheduler, serial reference) on
// identical short simulations, so cross-tier cache keys align and runs
// stay fast.
func engineOpts() []frontendsim.Option {
	return []frontendsim.Option{
		frontendsim.WithWarmupOps(12_000),
		frontendsim.WithMeasureOps(25_000),
	}
}

// node is one fleet member: a real simd backend reachable only through
// its fault-injecting proxy, under a fixed logical URL.
type node struct {
	inj  *faultinject.Injector
	url  string // logical base URL, the name the ring hashes
	addr string // the proxy's listener, where fleetClient dials url
}

// newFleet builds n simd backends, each behind a faultinject proxy
// seeded with seed+i.  Schedulers must route to the nodes' logical URLs
// through fleetClient.
func newFleet(t *testing.T, n int, seed int64) []*node {
	t.Helper()
	fleet := make([]*node, n)
	for i := range fleet {
		backend := httptest.NewServer(simd.NewServer(frontendsim.New(engineOpts()...), 64))
		t.Cleanup(backend.Close)
		inj := faultinject.New(seed + int64(i))
		proxy := httptest.NewServer(faultinject.NewProxy(backend.URL, inj, nil))
		t.Cleanup(proxy.Close)
		fleet[i] = &node{
			inj:  inj,
			url:  fmt.Sprintf("http://sim-%d:8723", i+1),
			addr: proxy.Listener.Addr().String(),
		}
	}
	return fleet
}

func fleetURLs(fleet []*node) []string {
	urls := make([]string, len(fleet))
	for i, n := range fleet {
		urls[i] = n.url
	}
	return urls
}

// fleetClient is the scheduler's backend client: it dials each node's
// logical host at its proxy listener.  The ring hashes the fixed names,
// not ephemeral ports, so every run homes the same benchmarks on the
// same node.
func fleetClient(t *testing.T, fleet []*node) *http.Client {
	addrs := map[string]string{}
	for _, n := range fleet {
		addrs[strings.TrimPrefix(n.url, "http://")] = n.addr
	}
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("chaos: no node named %q", addr)
		}
		return dialer.DialContext(ctx, network, real)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// homedOn returns the benchmarks whose ring home is url, using the
// scheduler's real key assignment — chaos scenarios target a specific
// backend without guessing which shards it owns.
func homedOn(t *testing.T, sched *scheduler.Scheduler, eng *frontendsim.Engine, url string) []string {
	t.Helper()
	var out []string
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if sched.Ring().Sequence(key)[0] == url {
			out = append(out, bench)
		}
	}
	return out
}

// metricSum sums the values of every sample line of metric name in a
// Prometheus text exposition, keeping only lines containing filter
// (filter "" keeps all).  Histogram/summary series are matched by their
// full sample name (name can be "x_count").
func metricSum(t *testing.T, exposition, name, filter string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		if filter != "" && !strings.Contains(line, filter) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestChaosStrictModeZeroClientErrors drives a suite through a fleet
// with latency spikes, a 10%-500 backend, and a flapping backend that
// drops its first requests outright: the ring walk plus jittered
// backoff absorbs every injected fault, the client sees zero errors,
// and the response is byte-identical to a fault-free serial run.
func TestChaosStrictModeZeroClientErrors(t *testing.T) {
	fleet := newFleet(t, 3, 42)
	eng := frontendsim.New(engineOpts()...)
	reg := obs.NewRegistry()
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:     fleetURLs(fleet),
		HTTPClient:   fleetClient(t, fleet),
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Latency spikes on node 0 (never an error), injected 500s on node
	// 1 (10% of its traffic, bounded so the run always terminates), and
	// a flapping node 2: its first 4 requests drop at the TCP level,
	// then it behaves.  Node 0 never fails, so every shard's ring walk
	// has a safe harbor.
	fleet[0].inj.Add(faultinject.Rule{LatencyMs: 20})
	fleet[1].inj.Add(faultinject.Rule{Status: 500, Probability: 0.1, MaxCount: 10})
	fleet[2].inj.Add(faultinject.Rule{Drop: true, MaxCount: 4})

	// Build the suite from the ring's real assignment: two shards homed
	// on every node, so each injector's traffic is guaranteed (shards
	// homed on the flapping node hit its drops and exercise the retry
	// path), plus a handful of bulk benchmarks.
	var picked []string
	for _, n := range fleet {
		homed := homedOn(t, sched, eng, n.url)
		if len(homed) < 2 {
			t.Fatalf("only %d benchmarks homed on %s; need 2", len(homed), n.url)
		}
		picked = append(picked, homed[:2]...)
	}
	suite := frontendsim.SuiteRequest{Benchmarks: append(frontendsim.Benchmarks()[:4], picked...)}

	res, err := sched.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatalf("strict-mode suite failed under injected faults: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("strict-mode result carries shard errors: %+v", res.Errors)
	}
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}

	// Byte-identical to a fault-free serial run of the same suite.
	serial, err := frontendsim.New(engineOpts()...).RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(serial)
	if string(got) != string(want) {
		t.Error("suite result under chaos differs from the serial reference")
	}

	// The injected drops forced ring-walk retries, each preceded by a
	// recorded jittered backoff.
	if st := sched.Stats(); st.Retried == 0 || st.Backoffs == 0 {
		t.Errorf("stats = %+v, want retries and backoffs under injected faults", st)
	}
	exposition := reg.Render()
	if n := metricSum(t, exposition, "sched_retry_backoff_seconds_count", ""); n < 1 {
		t.Errorf("sched_retry_backoff_seconds_count = %v, want >= 1", n)
	}
	st0, st2 := fleet[0].inj.Stats(), fleet[2].inj.Stats()
	if st0.Latency < 2 {
		t.Errorf("latency injector fired %d times, want >= 2 (two shards homed there)", st0.Latency)
	}
	if st2.Drop < 2 {
		t.Errorf("flapping node dropped %d requests, want >= 2 (two shards homed there)", st2.Drop)
	}
}

// TestChaosPartialErrorDegradedMode kills one benchmark on every node
// (its ring walk exhausts) and asserts the degraded-mode contract over
// real HTTP: 200 with X-Cache: PARTIAL-ERROR and per-shard error
// entries on /v1/suites, and a {"type":"shard-error"} line followed by
// the terminal aggregate on /v1/suites/stream.
func TestChaosPartialErrorDegradedMode(t *testing.T) {
	fleet := newFleet(t, 3, 43)
	const doomed = "mcf"
	for _, n := range fleet {
		n.inj.Add(faultinject.Rule{
			Match:  faultinject.Match{BodyContains: `"benchmark":"` + doomed + `"`},
			Status: 500,
		})
	}
	eng := frontendsim.New(engineOpts()...)
	reg := obs.NewRegistry()
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:       fleetURLs(fleet),
		HTTPClient:     fleetClient(t, fleet),
		RetryBackoff:   time.Millisecond,
		PartialResults: true,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(scheduler.NewServer(sched, scheduler.WithMetrics(reg)))
	t.Cleanup(front.Close)

	body := `{"benchmarks":["gzip","` + doomed + `","swim"]}`
	resp, err := http.Post(front.URL+"/v1/suites", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded suite status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "PARTIAL-ERROR" {
		t.Errorf("X-Cache = %q, want PARTIAL-ERROR", got)
	}
	var res frontendsim.SuiteResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Benchmark != doomed {
		t.Fatalf("errors = %+v, want one %s entry", res.Errors, doomed)
	}
	if res.Results[1] != nil || res.Results[0] == nil || res.Results[2] == nil {
		t.Error("results: want nil at the doomed position, values elsewhere")
	}
	if res.Aggregate.Benchmarks != 2 {
		t.Errorf("aggregate over %d benchmarks, want the 2 survivors", res.Aggregate.Benchmarks)
	}

	// The stream renders the same failure as a shard-error line and
	// still terminates with the aggregate.
	sresp, err := http.Post(front.URL+"/v1/suites/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawShardError, last := false, ""
	for sc.Scan() {
		last = sc.Text()
		if strings.Contains(last, `"type":"shard-error"`) && strings.Contains(last, doomed) {
			sawShardError = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawShardError {
		t.Error("stream carried no shard-error line for the doomed benchmark")
	}
	if !strings.Contains(last, `"type":"aggregate"`) {
		t.Errorf("terminal stream line = %q, want the aggregate", last)
	}
}

// TestChaosBreakerQuarantinesBeforeProbeRound kills one backend and
// asserts the passive path alone — no health probe ever runs — opens
// its circuit and quarantines it in the membership registry, visible in
// sched_breaker_transitions_total{to="open"}.
func TestChaosBreakerQuarantinesBeforeProbeRound(t *testing.T) {
	fleet := newFleet(t, 3, 44)
	fleet[0].inj.Add(faultinject.Rule{Drop: true}) // dead, permanently

	eng := frontendsim.New(engineOpts()...)
	reg := obs.NewRegistry()
	var members *membership.Registry
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:         fleetURLs(fleet),
		HTTPClient:       fleetClient(t, fleet),
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Metrics:          reg,
		ReportDispatch: func(node string, err error) {
			members.ReportDispatch(node, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	members, err = membership.New(membership.Config{
		ProbeInterval:   time.Hour, // never started anyway: passive only
		QuarantineAfter: 2,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
	}, fleetURLs(fleet))
	if err != nil {
		t.Fatal(err)
	}

	onDead := homedOn(t, sched, eng, fleet[0].url)
	if len(onDead) < 2 {
		t.Fatalf("only %d benchmarks homed on the dead node; need 2", len(onDead))
	}
	for _, bench := range onDead[:2] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s should have failed over: %v", bench, err)
		}
	}

	// Two live-traffic failures: the circuit is open and the member is
	// quarantined — before any probe round has run.
	if n := metricSum(t, reg.Render(), "sched_breaker_transitions_total", `to="open"`); n < 1 {
		t.Errorf(`sched_breaker_transitions_total{to="open"} = %v, want >= 1`, n)
	}
	active := members.Active()
	if len(active) != 2 {
		t.Fatalf("active members = %v, want the 2 healthy nodes", active)
	}
	for _, url := range active {
		if url == fleet[0].url {
			t.Fatal("dead node still active")
		}
	}
	if st := members.Stats(); st.PassiveReports == 0 || st.Quarantines != 1 {
		t.Errorf("membership stats = %+v, want passive reports and 1 quarantine", st)
	}
	// The quarantine swapped the scheduler's ring: the dead node is no
	// longer routable at all.
	if st := sched.Stats(); st.RingSwaps != 1 {
		t.Errorf("ring swaps = %d, want 1 (quarantine-driven)", st.RingSwaps)
	}
}

// TestChaosSaturatedSimdSheds saturates a one-worker simd with a
// one-deep admission queue: of 6 concurrent distinct requests exactly
// one is served and five are shed with 503 + Retry-After and a JSON
// envelope, all visible in simd_shed_total on /metrics.
func TestChaosSaturatedSimdSheds(t *testing.T) {
	eng := frontendsim.New(
		// Long enough to hold its slot while the other requests arrive
		// and shed.
		frontendsim.WithWarmupOps(400_000),
		frontendsim.WithMeasureOps(800_000),
		frontendsim.WithWorkers(1),
	)
	reg := obs.NewRegistry()
	api := simd.NewServer(eng, 64,
		simd.WithMetrics(reg),
		simd.WithAdmission(1, 20*time.Millisecond))
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	benches := frontendsim.Benchmarks()[:6]
	statuses := make([]int, len(benches))
	retryAfter := make([]string, len(benches))
	bodies := make([]string, len(benches))
	var wg sync.WaitGroup
	for i, bench := range benches {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/simulations", "application/json",
				strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
			if err != nil {
				t.Errorf("post %s: %v", bench, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			var env struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&env)
			bodies[i] = env.Error
		}(i, bench)
	}
	wg.Wait()

	served, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if sec, err := strconv.Atoi(retryAfter[i]); err != nil || sec < 1 {
				t.Errorf("shed %s: Retry-After = %q, want a positive integer", benches[i], retryAfter[i])
			}
			if bodies[i] == "" {
				t.Errorf("shed %s: empty JSON error envelope", benches[i])
			}
		default:
			t.Errorf("%s: status %d, want 200 or 503", benches[i], st)
		}
	}
	if served != 1 || shed != 5 {
		t.Fatalf("served %d / shed %d, want exactly 1 / 5", served, shed)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if n := metricSum(t, sb.String(), "simd_shed_total", ""); n != 5 {
		t.Errorf("simd_shed_total = %v, want 5", n)
	}
}
