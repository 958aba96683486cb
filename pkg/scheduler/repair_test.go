package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memcachetest"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
)

// repairBackend is a simd replica whose store and engine-run count the
// test can inspect directly.
type repairBackend struct {
	api   *simd.Server
	store resultstore.Store
	runs  *atomic.Int64
	url   string
}

func newRepairBackend(t *testing.T, store resultstore.Store) *repairBackend {
	t.Helper()
	t.Cleanup(func() { store.Close() })
	var runs atomic.Int64
	eng := frontendsim.New(append(testOpts(),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})))...)
	api := simd.NewServerWithStore(eng, store)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &repairBackend{api: api, store: store, runs: &runs, url: srv.URL}
}

// simulate posts one benchmark to a backend and returns the response.
func simulate(t *testing.T, url, bench string) (body []byte, xcache string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulations", "application/json",
		strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s to %s: status %d: %s", bench, url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// TestHintedHandoffReplaysOnReinstatement is the reinstatement-repair
// acceptance test: quarantine backend B, compute B-homed keys on the
// survivor, reinstate B, and B must serve those keys from its repaired
// store — X-Cache: HIT, byte-identical to the survivor's computation,
// zero engine runs on B.
func TestHintedHandoffReplaysOnReinstatement(t *testing.T) {
	a := newRepairBackend(t, resultstore.NewMemory(64))
	b := newRepairBackend(t, resultstore.NewMemory(64))
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{a.url, b.url}})
	if err != nil {
		t.Fatal(err)
	}
	members, err := membership.New(membership.Config{
		QuarantineAfter: 1,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
		OnTransition:    sched.OnMembershipTransition(),
	}, []string{a.url, b.url})
	if err != nil {
		t.Fatal(err)
	}
	defer members.Close()
	schedSrv := httptest.NewServer(NewServer(sched, WithMembership(members)))
	t.Cleanup(schedSrv.Close)
	repair, err := b.api.NewRepair(simd.RepairConfig{SelfURL: b.url, RingURL: schedSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	repair.Start()
	t.Cleanup(repair.Close)

	// Which benchmarks home on B under the full two-member ring?
	eng := frontendsim.New(testOpts()...)
	fullRing, err := NewRing([]string{a.url, b.url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var onB []string
	keyOf := map[string]string{}
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if fullRing.Node(key) == b.url {
			onB = append(onB, bench)
			keyOf[bench] = key
		}
	}
	if len(onB) == 0 {
		t.Fatal("no benchmark homed on B")
	}

	// One failed dispatch quarantines B; the scheduler now routes its
	// slice to A.
	members.ReportDispatch(b.url, fmt.Errorf("injected dispatch failure"))
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: onB}); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 0 {
		t.Fatalf("quarantined B ran its engine %d times", got)
	}

	// Reinstating B sends it one repair request; its repair pulls the
	// slice from A.
	if err := members.Join(b.url); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		held := 0
		for _, key := range keyOf {
			if _, ok, _ := resultstore.Peek(context.Background(), b.store, key); ok {
				held++
			}
		}
		if held == len(onB) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("B holds %d of %d B-homed keys before the deadline (stats %+v)", held, len(onB), sched.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := sched.Stats(); st.RepairRequests != 1 || st.RepairErrors != 0 {
		t.Errorf("repair requests = %d, errors = %d; want one accepted request", st.RepairRequests, st.RepairErrors)
	}

	// B now serves its slice byte-identical from the repaired store.
	for _, bench := range onB {
		want, ok, err := resultstore.Peek(context.Background(), a.store, keyOf[bench])
		if err != nil || !ok {
			t.Fatalf("survivor's store missing %s", bench)
		}
		body, xcache := simulate(t, b.url, bench)
		if xcache != "HIT" {
			t.Fatalf("benchmark %s on reinstated B: X-Cache %q, want HIT", bench, xcache)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("benchmark %s: repaired body differs from the survivor's computation", bench)
		}
	}
	if got := b.runs.Load(); got != 0 {
		t.Errorf("reinstated B recomputed %d times; the repaired store must serve instead", got)
	}
}

// TestReinstatementRequestsOneRepair: of the member transitions, only a
// reinstatement sends POST /v1/store/repair, and a refused request is
// counted as an error.
func TestReinstatementRequestsOneRepair(t *testing.T) {
	var mu sync.Mutex
	posts := map[string]int{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/store/repair" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		posts[r.Host]++
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(stub.Close)
	refusing := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(refusing.Close)

	sched := newScheduler(t, []string{stub.URL, refusing.URL})
	transition := sched.OnMembershipTransition()
	for _, tr := range []membership.Transition{
		membership.TransitionJoin, membership.TransitionQuarantine, membership.TransitionReinstate,
		membership.TransitionLeave, membership.TransitionEvict,
	} {
		transition(stub.URL, tr)
	}
	transition(refusing.URL, membership.TransitionReinstate)

	deadline := time.Now().Add(10 * time.Second)
	for st := sched.Stats(); st.RepairRequests+st.RepairErrors < 2; st = sched.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v before the deadline", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := posts[strings.TrimPrefix(stub.URL, "http://")]; n != 1 {
		t.Errorf("stub received %d repair requests, want 1 (reinstatement only)", n)
	}
	if st := sched.Stats(); st.RepairRequests != 1 || st.RepairErrors != 1 {
		t.Errorf("stats = %+v, want 1 accepted and 1 error", st)
	}
}

// TestCacheSetStoresBackendForm pins one stored form on both tiers: a
// scheduler cache that shares a remote tier with simd replica B writes
// the bytes simd itself stores, so B's HIT on the scheduler's entry is
// byte-identical to replica A's answer for the same request.
func TestCacheSetStoresBackendForm(t *testing.T) {
	cache := memcachetest.Start(t)
	newRemote := func() resultstore.Store {
		remote, err := resultstore.NewRemote(resultstore.RemoteConfig{Servers: []string{cache.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		return remote
	}
	a := newRepairBackend(t, resultstore.NewMemory(16))
	b := newRepairBackend(t, newRemote())
	schedCache := newRemote()
	t.Cleanup(func() { schedCache.Close() })
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{a.url}, Cache: schedCache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: "gzip"}); err != nil {
		t.Fatal(err)
	}

	fromA, _ := simulate(t, a.url, "gzip")
	fromB, xcache := simulate(t, b.url, "gzip")
	if xcache != "HIT" || b.runs.Load() != 0 {
		t.Fatalf("B: X-Cache %q after %d engine runs, want a HIT on the scheduler's entry", xcache, b.runs.Load())
	}
	if !bytes.Equal(fromA, fromB) {
		t.Errorf("B serves %d bytes, A serves %d; the tiers store different forms", len(fromB), len(fromA))
	}
}
