package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// counting is a Store with neither optional capability.
type counting struct{ resultstore.Store }

func TestTracedStoreKeepsCapabilities(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	tr.on.Store(true)

	mem := resultstore.NewMemory(4)
	mem.Set(ctx, "k", []byte("v"))
	wrapped := tr.store("simd", mem)
	if body, ok, err := resultstore.Peek(ctx, wrapped, "k"); err != nil || !ok || string(body) != "v" {
		t.Fatalf("Peek through wrapper = %q, %v, %v", body, ok, err)
	}
	if st := mem.Stats()[0]; st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek through wrapper was counted: hits %d misses %d", st.Hits, st.Misses)
	}
	keys, ok, err := resultstore.ScanKeys(ctx, wrapped, nil)
	if err != nil || !ok || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("ScanKeys through wrapper = %v, %v, %v", keys, ok, err)
	}

	// A store without the capabilities behaves exactly as unwrapped:
	// Peek falls back to a counted Get, and scanning is unsupported.
	bare := resultstore.NewMemory(4)
	wrapped = tr.store("simd", counting{bare})
	if _, ok, _ := resultstore.Peek(ctx, wrapped, "absent"); ok {
		t.Fatal("Peek of an absent key hit")
	}
	if st := bare.Stats()[0]; st.Misses != 1 {
		t.Fatalf("fallback Peek misses = %d, want 1", st.Misses)
	}
	if _, ok, err := resultstore.ScanKeys(ctx, wrapped, nil); ok || !errors.Is(err, resultstore.ErrScanUnsupported) {
		t.Fatalf("ScanKeys of an unscannable store = %v, %v", ok, err)
	}
}

// shortRequest is the cheapest request of the warm workload's shape.
func shortRequest() frontendsim.Request {
	return frontendsim.Request{Benchmark: "gzip", WarmupOps: 150, MeasureOps: 300, BankHopping: true}
}

func TestTracedWarmRequestSpanChain(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	f, err := startFleet(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Seed the owning replica's store only, so the request misses the
	// scheduler tier and crosses the hop to a simd HIT: warm's path for
	// a third of its requests.
	req := shortRequest()
	eng := frontendsim.New()
	key, err := eng.RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.sched.Ring().Node(key)
	seeded := false
	for i := 0; i < replicas; i++ {
		if replicaURL(i) == owner {
			f.simdStores[i].Set(ctx, key, append(body, '\n'))
			seeded = true
		}
	}
	if !seeded {
		t.Fatalf("ring owner %q is not a replica URL", owner)
	}

	reqBody, _ := json.Marshal(req)
	tr.on.Store(true)
	var buf bytes.Buffer
	status, err := post(http.DefaultClient, f.url+"/v1/simulations", reqBody, &buf)
	tr.on.Store(false)
	if err != nil || status != http.StatusOK {
		t.Fatalf("POST = %d, %v: %s", status, err, buf.Bytes())
	}
	if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, body) {
		t.Fatal("served body differs from Engine.Run")
	}

	spans := tr.recorded()
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
	}
	one := func(name string) span {
		t.Helper()
		if len(byName[name]) != 1 {
			t.Fatalf("%d %s spans, want 1 (all: %+v)", len(byName[name]), name, spans)
		}
		return byName[name][0]
	}
	root := one("scheduler.handle")
	if root.parent != 0 || root.note != "MISS" {
		t.Errorf("scheduler.handle: parent %d, X-Cache %q; want a root with MISS", root.parent, root.note)
	}
	chain := []struct {
		name, parent, note string
	}{
		{"resultstore.sched.get", "scheduler.handle", "miss"},
		{"scheduler.hop", "scheduler.handle", ""},
		{"resultstore.sched.set", "scheduler.handle", ""},
		{"simd.handle", "scheduler.hop", "HIT"},
		{"resultstore.simd.get", "simd.handle", "hit"},
	}
	for _, c := range chain {
		s, p := one(c.name), one(c.parent)
		if s.parent != p.id {
			t.Errorf("%s parent = %d, want %s (%d)", c.name, s.parent, c.parent, p.id)
		}
		if s.req != root.req {
			t.Errorf("%s request id = %d, want %d", c.name, s.req, root.req)
		}
		if c.note != "" && s.note != c.note {
			t.Errorf("%s note = %q, want %q", c.name, s.note, c.note)
		}
		if s.start < p.start || s.end > p.end {
			t.Errorf("%s [%v, %v] outside its parent [%v, %v]", c.name, s.start, s.end, p.start, p.end)
		}
	}
	if len(spans) != len(chain)+1 {
		t.Errorf("%d spans recorded, want %d", len(spans), len(chain)+1)
	}
}

func TestRingPlacementPinnedAcrossFleets(t *testing.T) {
	wl, err := newWorkload("warm", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var routes [2][]string
	var urls [2]string
	for i := range routes {
		f, err := startFleet(nil)
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = f.url
		for _, key := range wl.table.keys {
			routes[i] = append(routes[i], f.sched.Ring().Node(key))
		}
		f.Close()
	}
	if urls[0] == urls[1] {
		t.Fatalf("both fleets listened on %s; the test needs distinct ports", urls[0])
	}
	perNode := map[string]int{}
	for k := range routes[0] {
		if routes[0][k] != routes[1][k] {
			t.Fatalf("key %d routes to %s in one fleet and %s in the other", k, routes[0][k], routes[1][k])
		}
		perNode[routes[0][k]]++
	}
	for node, n := range perNode {
		if n > storeEntries {
			t.Errorf("%s owns %d warm keys, more than its %d-entry store holds", node, n, storeEntries)
		}
	}
}

func TestSplitSuiteMatchesPerResultEncoding(t *testing.T) {
	tmpl := shortRequest()
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"mcf", "gzip", "mcf"}, Request: tmpl}
	res, err := frontendsim.New().RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(res); err != nil {
		t.Fatal(err)
	}
	parts, err := splitSuite(body.Bytes(), len(suite.Benchmarks))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parts[i], want) {
			t.Errorf("position %d: split %q, want %q", i, parts[i], want)
		}
	}
	if _, err := splitSuite(body.Bytes(), len(suite.Benchmarks)+1); err == nil {
		t.Error("splitting into more results than the body holds succeeded")
	}
}
