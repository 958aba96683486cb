package simd

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashring"
	"repro/internal/memcachetest"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// The repair tests are named by trigger: TestWarmup* cover the
// join-time run (before /healthz flips ready), TestAntiEntropy* the
// background and pairwise runs, and TestRepair* the pass itself.

// warmEngine matches the chaos-tier short simulations so scheduler and
// backend cache keys align, counting engine runs through the observer.
func warmEngine() (*frontendsim.Engine, *atomic.Int64) {
	var runs atomic.Int64
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(12_000),
		frontendsim.WithMeasureOps(25_000),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})),
	)
	return eng, &runs
}

// replica is one repair test node: a simd server over its own memory
// store, reachable over real HTTP.
type replica struct {
	api   *Server
	store resultstore.Store
	runs  *atomic.Int64
	url   string
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	store := resultstore.NewMemory(256)
	t.Cleanup(func() { store.Close() })
	eng, runs := warmEngine()
	api := NewServerWithStore(eng, store)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &replica{api: api, store: store, runs: runs, url: srv.URL}
}

// ringStub serves a fixed GET /v1/ring snapshot.
func ringStub(t testing.TB, backends []string, epoch uint64) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ring" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"backends": backends, "epoch": epoch})
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func newRepair(t *testing.T, api *Server, cfg RepairConfig) *Repair {
	t.Helper()
	r, err := api.NewRepair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func runRepair(t *testing.T, r *Repair) RepairResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func storeKeySet(t *testing.T, s resultstore.Store) map[string]bool {
	t.Helper()
	keys, ok, err := resultstore.ScanKeys(context.Background(), s, nil)
	if !ok || err != nil {
		t.Fatalf("ScanKeys = ok %v err %v", ok, err)
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// digestKey produces a digest-shaped key (production keys are canonical
// request hashes; sequential strings would cluster on the FNV ring).
func digestKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("ae-%03d", i)))
	return fmt.Sprintf("%x", sum[:8])
}

// bodyOf is the deterministic stored body of key: every replica holding
// key holds these bytes, as with real results.
func bodyOf(key string) string { return "body-" + key + "\n" }

func seedKeys(t *testing.T, s resultstore.Store, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := s.Set(context.Background(), k, []byte(bodyOf(k))); err != nil {
			t.Fatal(err)
		}
	}
}

func keyRange(from, to int) []string {
	keys := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		keys = append(keys, digestKey(i))
	}
	return keys
}

// unscannable hides every optional capability of the store it wraps,
// so a repair pass cannot digest it (and Peek falls back to Get).
type unscannable struct{ resultstore.Store }

// peerKind is how a repair peer behaves.
type peerKind int

const (
	// sighted: a replica over a memory store.
	sighted peerKind = iota
	// blind: a replica over a remote store, which answers 501 to digest
	// and key listing but serves entry pulls.
	blind
	// dead: a closed listener.
	dead
	// flaky: a sighted replica whose first pull of each entry fails
	// with 500.
	flaky
	// hidden (local store only): a memory store behind unscannable.
	hidden
)

// repairPeer is one peer of a repair case.
type repairPeer struct {
	kind peerKind
	keys []string
	// inRing lists the peer in the scheduler's GET /v1/ring; static
	// passes it in RepairConfig.Peers.
	inRing, static bool
}

// repairCase is one input of the repair property.
type repairCase struct {
	local []string // keys the local store holds before the run
	peers []repairPeer
	// useRing serves the inRing peers on GET /v1/ring and slices by
	// them; without it every peer key is in the slice.
	useRing bool
}

const repairSelf = "http://self.repair.test"

// keyPool is every key a repair case may use.
var keyPool = keyRange(0, 48)

// caseStore builds a store holding keys: a remote one for blind, a
// memory one otherwise.
func caseStore(t *testing.T, kind peerKind, keys []string) resultstore.Store {
	t.Helper()
	var store resultstore.Store
	if kind == blind {
		cache := memcachetest.Start(t)
		remote, err := resultstore.NewRemote(resultstore.RemoteConfig{Servers: []string{cache.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		store = remote
	} else {
		store = resultstore.NewMemory(len(keyPool))
	}
	t.Cleanup(func() { store.Close() })
	seedKeys(t, store, keys...)
	return store
}

// startPeer serves one case peer and returns its URL.
func startPeer(t *testing.T, p repairPeer) string {
	t.Helper()
	eng, _ := warmEngine()
	var h http.Handler = NewServerWithStore(eng, caseStore(t, p.kind, p.keys))
	if p.kind == flaky {
		inner := h
		var failed sync.Map
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/store/entries/") {
				if _, seen := failed.LoadOrStore(r.URL.Path, true); !seen {
					http.Error(w, "mid-pull crash", http.StatusInternalServerError)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	srv := httptest.NewServer(h)
	if p.kind == dead {
		srv.Close()
		return srv.URL
	}
	t.Cleanup(srv.Close)
	return srv.URL
}

// newLocal builds the repairing server over a local store of kind
// (sighted, blind or hidden) holding keys, and returns it with the
// store to inspect.
func newLocal(t *testing.T, kind peerKind, keys []string) (*Server, resultstore.Store) {
	t.Helper()
	eng, _ := warmEngine()
	inspect := caseStore(t, kind, keys)
	store := inspect
	if kind == hidden {
		store = unscannable{inspect}
	}
	return NewServerWithStore(eng, store), inspect
}

// poolKeys returns which pool keys s holds, with their bodies.
func poolKeys(t *testing.T, s resultstore.Store) map[string]string {
	t.Helper()
	held := map[string]string{}
	for _, k := range keyPool {
		body, ok, err := resultstore.Peek(context.Background(), s, k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			held[k] = string(body)
		}
	}
	return held
}

// checkRepair starts c's peers and, for each local store kind, runs one
// repair over them and asserts the repair property: the local store
// ends with exactly its prior keys plus every key a listable peer holds
// in this replica's slice, each body byte-identical to the peers' copy;
// the run pulled exactly the new keys (nothing outside the slice); and
// a second run pulls nothing.  It returns the final key set per kind.
func checkRepair(t *testing.T, c repairCase, kinds ...peerKind) []map[string]string {
	t.Helper()
	var static, backends []string
	listable := map[string]bool{}
	for _, p := range c.peers {
		u := startPeer(t, p)
		if p.static || !c.useRing {
			static = append(static, u)
		}
		if c.useRing && p.inRing {
			backends = append(backends, u)
		}
		if (c.useRing && !p.inRing && !p.static) || p.kind == blind || p.kind == dead {
			continue
		}
		for _, k := range p.keys {
			listable[k] = true
		}
	}
	inSlice := func(string) bool { return true }
	cfg := RepairConfig{SelfURL: repairSelf, Peers: static}
	if c.useRing {
		cfg.RingURL = ringStub(t, backends, 3)
		ring, err := hashring.New(append(append([]string(nil), backends...), repairSelf), 0)
		if err != nil {
			t.Fatal(err)
		}
		inSlice = func(k string) bool { return ring.Node(k) == repairSelf }
	}

	want := map[string]string{}
	for _, k := range c.local {
		want[k] = bodyOf(k)
	}
	newKeys := 0
	for k := range listable {
		if _, ok := want[k]; !ok && inSlice(k) {
			want[k] = bodyOf(k)
			newKeys++
		}
	}

	var sets []map[string]string
	for _, kind := range kinds {
		api, store := newLocal(t, kind, c.local)
		r := newRepair(t, api, cfg)
		res := runRepair(t, r)
		got := poolKeys(t, store)
		for k, body := range want {
			if got[k] != body {
				t.Errorf("local %d: key %s = %q after repair, want %q", kind, k, got[k], body)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("local %d: repair pulled %s, which is outside the slice or on no listable peer", kind, k)
			}
		}
		if res.Pulled != newKeys || res.Failed != 0 {
			t.Errorf("local %d: run = %+v, want %d pulled and 0 failed", kind, res, newKeys)
		}
		if again := runRepair(t, r); again.Pulled != 0 {
			t.Errorf("local %d: second run pulled %d, want 0", kind, again.Pulled)
		}
		sets = append(sets, got)
	}
	return sets
}

// TestRepairPassProperty checks the repair property over seeded random
// stores of 2-4 replicas and random ring membership, each case once
// with a digestable local store and once with one that hides its
// Scanner; both must end with the same key set.
func TestRepairPassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	subset := func() []string {
		var keys []string
		p := rng.Float64()
		for _, k := range keyPool {
			if rng.Float64() < p {
				keys = append(keys, k)
			}
		}
		return keys
	}
	for i := 0; i < 24; i++ {
		c := repairCase{local: subset(), useRing: rng.Intn(3) > 0}
		for n := 1 + rng.Intn(3); len(c.peers) < n; {
			p := repairPeer{kind: peerKind(rng.Intn(int(hidden))), keys: subset(), inRing: rng.Intn(2) == 0}
			p.static = !p.inRing || rng.Intn(2) == 0
			if len(c.peers) == 0 {
				// One peer always answers: sighted, or blind (501), which
				// leaves nothing to list and must end the run clean.
				p.kind, p.static = []peerKind{sighted, blind}[rng.Intn(2)], true
			}
			c.peers = append(c.peers, p)
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			sets := checkRepair(t, c, sighted, hidden)
			if !maps.Equal(sets[0], sets[1]) {
				t.Errorf("key sets differ without Scanner: %d vs %d keys", len(sets[0]), len(sets[1]))
			}
		})
	}
}

// TestWarmupFallsBackToEnumeratingPeer: the first peer is remote-backed
// (501 to digest and listing), so the keys are listed by the second and
// may be pulled from either.
func TestWarmupFallsBackToEnumeratingPeer(t *testing.T) {
	checkRepair(t, repairCase{peers: []repairPeer{
		{kind: blind, keys: keyRange(0, 3), static: true},
		{kind: sighted, keys: keyRange(0, 3), static: true},
	}}, sighted)
}

// TestRepairAllPeersBlind: every peer is remote-backed (501 to digest
// and listing), so there is nothing to list and the run ends clean with
// nothing pulled rather than retrying until its deadline.
func TestRepairAllPeersBlind(t *testing.T) {
	checkRepair(t, repairCase{
		local: keyRange(0, 3),
		peers: []repairPeer{
			{kind: blind, keys: keyRange(2, 6), static: true},
			{kind: blind, keys: keyRange(4, 9), static: true},
		},
	}, sighted, hidden)
}

// TestRepairLoopAllPeersBlind runs the background loop against peers
// that all answer 501: each run must finish at once without counting an
// error, so the loop idles between runs instead of polling its peers.
func TestRepairLoopAllPeersBlind(t *testing.T) {
	peers := []string{
		startPeer(t, repairPeer{kind: blind, keys: keyRange(0, 4)}),
		startPeer(t, repairPeer{kind: blind, keys: keyRange(4, 8)}),
	}
	api, _ := newLocal(t, sighted, nil)
	r := newRepair(t, api, RepairConfig{SelfURL: repairSelf, Peers: peers, Interval: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := r.Run(ctx); err != nil || time.Since(start) > time.Second {
		t.Fatalf("Run over blind peers = %v after %v, want nil at once", err, time.Since(start))
	}
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for api.repairRuns.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("loop completed %d runs in 5s", api.repairRuns.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close()
	if n := api.repairErrs.Load(); n != 0 {
		t.Errorf("simd_repair_errors_total = %d over blind peers, want 0", n)
	}
}

// TestWarmupResumesAfterPeerFailure: the only peer fails the first pull
// of every entry, so the run must re-pass instead of giving up.
func TestWarmupResumesAfterPeerFailure(t *testing.T) {
	checkRepair(t, repairCase{peers: []repairPeer{
		{kind: flaky, keys: keyRange(0, 2), static: true},
	}}, sighted)
}

// TestAntiEntropyFallsPastDeadPeer: the first peer is down; the run
// repairs from the next.
func TestAntiEntropyFallsPastDeadPeer(t *testing.T) {
	checkRepair(t, repairCase{peers: []repairPeer{
		{kind: dead, static: true},
		{kind: sighted, keys: keyRange(0, 5), static: true},
	}}, sighted)
}

// TestAntiEntropyUnscannableLocalStore: a remote-backed local store
// cannot digest itself, so every peer bucket is listed and Peek skips
// what the shared tier already holds.
func TestAntiEntropyUnscannableLocalStore(t *testing.T) {
	checkRepair(t, repairCase{
		local: keyRange(0, 4),
		peers: []repairPeer{{kind: sighted, keys: keyRange(2, 9), static: true}},
	}, blind)
}

// TestAntiEntropyConverges diverges two stores — each holds keys the
// other is missing plus a shared set — and asserts one run per side
// converges both to the union, with matching digests.
func TestAntiEntropyConverges(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, a.store, keyRange(0, 20)...)
	seedKeys(t, b.store, keyRange(15, 35)...)

	repA := newRepair(t, a.api, RepairConfig{SelfURL: a.url, Peers: []string{b.url}})
	repB := newRepair(t, b.api, RepairConfig{SelfURL: b.url, Peers: []string{a.url}})
	if res := runRepair(t, repA); res.Pulled != 15 {
		t.Errorf("A pulled %d, want B's 15 exclusive keys", res.Pulled)
	}
	if res := runRepair(t, repB); res.Pulled != 15 {
		t.Errorf("B pulled %d, want A's 15 exclusive keys", res.Pulled)
	}

	keysA, _, _ := resultstore.ScanKeys(context.Background(), a.store, nil)
	keysB, _, _ := resultstore.ScanKeys(context.Background(), b.store, nil)
	if len(keysA) != 35 || len(keysB) != 35 {
		t.Fatalf("converged sizes = %d, %d; want 35 each", len(keysA), len(keysB))
	}
	if resultstore.KeyDigest(keysA) != resultstore.KeyDigest(keysB) {
		t.Fatal("digests differ after convergence")
	}
	if a.api.repairPulled.Load() != 15 || a.api.repairRuns.Load() != 1 {
		t.Errorf("A counters: pulled=%d runs=%d", a.api.repairPulled.Load(), a.api.repairRuns.Load())
	}
}

// TestAntiEntropyIdenticalStoresNoop pins the steady state: matching
// digests mean zero pulls.
func TestAntiEntropyIdenticalStoresNoop(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, a.store, keyRange(0, 10)...)
	seedKeys(t, b.store, keyRange(0, 10)...)
	if res := runRepair(t, newRepair(t, a.api, RepairConfig{SelfURL: a.url, Peers: []string{b.url}})); res.Pulled != 0 {
		t.Fatalf("run on identical stores pulled %d", res.Pulled)
	}
}

// TestAntiEntropyRingDiscovery resolves peers from the scheduler's
// /v1/ring instead of a static list, and keeps only this replica's
// slice of the ring.
func TestAntiEntropyRingDiscovery(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, b.store, keyRange(0, 40)...)
	ring, err := hashring.New([]string{a.url, b.url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mine := 0
	for _, k := range keyRange(0, 40) {
		if ring.Node(k) == a.url {
			mine++
		}
	}
	res := runRepair(t, newRepair(t, a.api, RepairConfig{SelfURL: a.url, RingURL: ringStub(t, []string{a.url, b.url}, 3)}))
	if res.Pulled != mine || res.Epoch != 3 {
		t.Errorf("run = %+v via ring discovery, want %d pulled at epoch 3", res, mine)
	}
}

// TestAntiEntropyLoop runs the production Start/Close path: divergence
// heals within a few ticks.
func TestAntiEntropyLoop(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, b.store, keyRange(0, 3)...)
	newRepair(t, a.api, RepairConfig{SelfURL: a.url, Peers: []string{b.url}, Interval: 10 * time.Millisecond}).Start()
	waitPulled(t, a, 3)
}

func waitPulled(t *testing.T, r *replica, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.api.repairPulled.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("loop pulled %d of %d before the deadline", r.api.repairPulled.Load(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countedReplica is a replica whose store-plane requests are counted
// by endpoint (digest, keys, entries).
type countedReplica struct {
	api   *Server
	store resultstore.Store
	url   string
	hits  map[string]*atomic.Int64
}

// shardedFleet starts n replicas listed by one ring stub (as the
// scheduler lists its active members), each holding the keys that hash
// to it, and returns them with the ring URL.
func shardedFleet(tb testing.TB, n int, keys []string) ([]*countedReplica, string) {
	tb.Helper()
	fleet := make([]*countedReplica, n)
	urls := make([]string, n)
	for i := range fleet {
		store := resultstore.NewMemory(len(keys))
		tb.Cleanup(func() { store.Close() })
		eng, _ := warmEngine()
		c := &countedReplica{api: NewServerWithStore(eng, store), store: store, hits: map[string]*atomic.Int64{}}
		for _, ep := range []string{"digest", "keys", "entries"} {
			c.hits[ep] = new(atomic.Int64)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ep, ok := strings.CutPrefix(r.URL.Path, "/v1/store/"); ok {
				ep, _, _ = strings.Cut(ep, "/")
				if h := c.hits[ep]; h != nil {
					h.Add(1)
				}
			}
			c.api.ServeHTTP(w, r)
		}))
		tb.Cleanup(srv.Close)
		c.url, urls[i], fleet[i] = srv.URL, srv.URL, c
	}
	ring, err := hashring.New(urls, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range keys {
		for _, c := range fleet {
			if ring.Node(k) == c.url {
				if err := c.store.Set(context.Background(), k, []byte(bodyOf(k))); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return fleet, ringStub(tb, urls, 1)
}

// TestRepairConvergedPassIsOneDigestPerPeer pins the steady-state cost
// of the background pass on a sharded fleet: once the slices have
// converged, a run asks each peer for one digest and lists and pulls
// nothing — also where a peer still holds part of this replica's slice
// (absorbed while it was away), so the digests keep differing, and
// after every replica stored new results of its own slice.
func TestRepairConvergedPassIsOneDigestPerPeer(t *testing.T) {
	keys := keyRange(0, 120)
	fleet, ringURL := shardedFleet(t, 3, keys)
	// Replica 1 absorbed half of replica 0's slice while 0 was away,
	// plus one more key of that slice which replica 0 never saw: the
	// first run pulls that key, later runs find every bucket whose
	// digests still differ settled.
	slice0, _, _ := resultstore.ScanKeys(context.Background(), fleet[0].store, nil)
	if len(slice0) < 4 {
		t.Fatalf("degenerate slice: replica 0 holds %d keys", len(slice0))
	}
	seedKeys(t, fleet[1].store, slice0[:len(slice0)/2]...)
	ring, err := hashring.New([]string{fleet[0].url, fleet[1].url, fleet[2].url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keyRange(len(keys), 2*len(keys)) {
		if ring.Node(k) == fleet[0].url {
			seedKeys(t, fleet[1].store, k)
			break
		}
	}

	repairs := make([]*Repair, len(fleet))
	for i, c := range fleet {
		repairs[i] = newRepair(t, c.api, RepairConfig{SelfURL: c.url, RingURL: ringURL})
	}
	pulled := 0
	for range 2 {
		for _, r := range repairs {
			pulled += runRepair(t, r).Pulled
		}
	}
	if pulled != 1 {
		t.Fatalf("converging runs pulled %d keys, want the 1 key replica 0 never saw", pulled)
	}
	// Serving traffic: each replica stores new results of its own
	// slice.  They change no other replica's slice digest, so they
	// cost no listing either.
	for _, k := range keyRange(2*len(keys), 2*len(keys)+30) {
		for _, c := range fleet {
			if ring.Node(k) == c.url {
				seedKeys(t, c.store, k)
			}
		}
	}
	for _, c := range fleet {
		for _, h := range c.hits {
			h.Store(0)
		}
	}
	for i, r := range repairs {
		if res := runRepair(t, r); res.Pulled != 0 || res.Failed != 0 {
			t.Errorf("replica %d: converged run = %+v, want nothing pulled", i, res)
		}
	}
	for i, c := range fleet {
		digests, lists, pulls := c.hits["digest"].Load(), c.hits["keys"].Load(), c.hits["entries"].Load()
		if digests != int64(len(fleet)-1) || lists != 0 || pulls != 0 {
			t.Errorf("replica %d served %d digests, %d listings, %d pulls in a converged round; want %d, 0, 0",
				i, digests, lists, pulls, len(fleet)-1)
		}
	}
}

// BenchmarkRepairConvergedPass times one background run of a replica
// in a converged 3-replica sharded fleet, by keys per fleet.
func BenchmarkRepairConvergedPass(b *testing.B) {
	for _, n := range []int{1536, 49152} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			keys := make([]string, n)
			for i := range keys {
				sum := sha256.Sum256([]byte(fmt.Sprint("bench-", i)))
				keys[i] = fmt.Sprintf("%x", sum[:8])
			}
			fleet, ringURL := shardedFleet(b, 3, keys)
			r, err := fleet[0].api.NewRepair(RepairConfig{SelfURL: fleet[0].url, RingURL: ringURL})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ResetTimer()
			for range b.N {
				if res, err := r.Run(context.Background()); err != nil || res.Pulled != 0 {
					b.Fatalf("run = %+v, %v", res, err)
				}
			}
		})
	}
}

// TestStoreRepairEndpointWakesLoop: POST /v1/store/repair answers 501
// without a repair and 202 with one, and the 202 starts a run even with
// the timer off.
func TestStoreRepairEndpointWakesLoop(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	if w := post(t, a.api, "/v1/store/repair", ""); w.Code != http.StatusNotImplemented {
		t.Fatalf("POST /v1/store/repair without repair = %d, want 501", w.Code)
	}
	seedKeys(t, b.store, keyRange(0, 4)...)
	newRepair(t, a.api, RepairConfig{SelfURL: a.url, Peers: []string{b.url}}).Start()
	if w := post(t, a.api, "/v1/store/repair", ""); w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/store/repair = %d, want 202", w.Code)
	}
	waitPulled(t, a, 4)
}

// TestWarmupPullsOnlyOwnSlice seeds a peer with keys spread over the
// whole hash space and asserts the joiner pulls exactly the keys that
// hash to its slice of the ring the scheduler reports — not the peer's
// whole store.
func TestWarmupPullsOnlyOwnSlice(t *testing.T) {
	peer, joiner := newReplica(t), newReplica(t)
	ringURL := ringStub(t, []string{peer.url}, 7)
	ring, err := hashring.New([]string{peer.url, joiner.url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMine := map[string]bool{}
	seedKeys(t, peer.store, keyRange(0, 40)...)
	for _, key := range keyRange(0, 40) {
		if ring.Node(key) == joiner.url {
			wantMine[key] = true
		}
	}
	if len(wantMine) == 0 || len(wantMine) == 40 {
		t.Fatalf("degenerate slice: %d of 40 keys homed on the joiner", len(wantMine))
	}

	res := runRepair(t, newRepair(t, joiner.api, RepairConfig{
		Peers:   []string{peer.url},
		SelfURL: joiner.url,
		RingURL: ringURL,
	}))
	if res.Pulled != len(wantMine) || res.Failed != 0 || res.Epoch != 7 {
		t.Fatalf("result = %+v, want %d pulled at epoch 7", res, len(wantMine))
	}
	got := storeKeySet(t, joiner.store)
	if len(got) != len(wantMine) {
		t.Errorf("joiner holds %d keys, want its %d-key slice", len(got), len(wantMine))
	}
	for k := range wantMine {
		if !got[k] {
			t.Errorf("slice key %q not pulled", k)
		}
	}
	if n := joiner.api.repairPulled.Load(); n != uint64(len(wantMine)) {
		t.Errorf("simd_repair_pulled_total = %d, want %d", n, len(wantMine))
	}
}

// TestWarmupTimeoutWithoutEnumeration pins the failure mode: no peer
// ever answers, the deadline lapses, and Run reports an error instead
// of spinning.
func TestWarmupTimeoutWithoutEnumeration(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(down.Close)
	joiner := newReplica(t)
	r := newRepair(t, joiner.api, RepairConfig{Peers: []string{down.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("Run succeeded with no answering peer")
	}
	if joiner.api.repairErrs.Load() == 0 {
		t.Error("simd_repair_errors_total = 0 after a run hit its deadline")
	}
}

// TestWarmupRejoinServesSliceWithoutRecompute is the headline
// integration test: a 3-replica fleet loses replica C, suites run over
// the survivors, and a fresh C rejoins with a join-time repair.  The
// rejoined C must hold /healthz at 503 until the run completes and then
// answer every request of its ring slice byte-identical to the original
// computation with X-Cache: HIT and zero local engine runs.
func TestWarmupRejoinServesSliceWithoutRecompute(t *testing.T) {
	// Replicas A and B survive; C is dead (it only ever existed as a
	// ring address — the fresh one below takes over its slice).
	a, b := newReplica(t), newReplica(t)
	eng, _ := warmEngine()
	sched, err := scheduler.New(eng, scheduler.Config{Backends: []string{a.url, b.url}})
	if err != nil {
		t.Fatal(err)
	}
	schedSrv := httptest.NewServer(scheduler.NewServer(sched))
	t.Cleanup(schedSrv.Close)

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}

	// The fresh C: cold store, not ready — /healthz must answer 503
	// while the repair runs, so the scheduler keeps routing around it.
	c := newReplica(t)
	c.api.SetReady(false)
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz before repair = %d, want 503", w.Code)
	}
	res := runRepair(t, newRepair(t, c.api, RepairConfig{
		Peers:   []string{a.url, b.url},
		SelfURL: c.url,
		RingURL: schedSrv.URL,
	}))
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after repair but before SetReady = %d, want 503 (readiness is the caller's flip)", w.Code)
	}
	c.api.SetReady(true)
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after SetReady = %d", w.Code)
	}

	// C's slice under the post-join ring: benchmarks whose key homes on
	// C among {A, B, C}.
	ring, err := hashring.New([]string{a.url, b.url, c.url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Node(key) != c.url {
			continue
		}
		served++
		// The bytes the surviving fleet serves for this key.
		want, ok, err := resultstore.Peek(context.Background(), a.store, key)
		if err != nil || !ok {
			want, ok, err = resultstore.Peek(context.Background(), b.store, key)
		}
		if err != nil || !ok {
			t.Fatalf("benchmark %s (key %s) not in any survivor's store", bench, key)
		}
		w := post(t, c.api, "/v1/simulations", fmt.Sprintf(`{"benchmark":%q}`, bench))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s to rejoined C = %d", bench, w.Code)
		}
		if got := w.Header().Get("X-Cache"); got != "HIT" {
			t.Errorf("benchmark %s: X-Cache = %q, want HIT from the repaired store", bench, got)
		}
		if w.Body.String() != string(want) {
			t.Errorf("benchmark %s: body differs from the original computation", bench)
		}
	}
	if served == 0 {
		t.Fatal("no benchmark homed on C; test proves nothing")
	}
	if runs := c.runs.Load(); runs != 0 {
		t.Errorf("rejoined C ran its engine %d times; the repaired slice must serve without recompute", runs)
	}
	if res.Pulled == 0 || c.api.repairPulled.Load() == 0 {
		t.Errorf("repair pulled nothing: %+v", res)
	}
}
