package resultstore

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

var ctx = context.Background()

func mustGet(t *testing.T, s Store, key string) ([]byte, bool) {
	t.Helper()
	val, ok, err := s.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return val, ok
}

func mustSet(t *testing.T, s Store, key, val string) {
	t.Helper()
	if err := s.Set(ctx, key, []byte(val)); err != nil {
		t.Fatalf("Set(%q): %v", key, err)
	}
}

func TestMemoryEviction(t *testing.T) {
	m := NewMemory(2)
	mustSet(t, m, "a", "1")
	mustSet(t, m, "b", "2")
	if _, ok := mustGet(t, m, "a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; adding c evicts b.
	mustSet(t, m, "c", "3")
	if _, ok := mustGet(t, m, "b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := mustGet(t, m, "a"); !ok || string(v) != "1" {
		t.Error("a lost")
	}
	if v, ok := mustGet(t, m, "c"); !ok || string(v) != "3" {
		t.Error("c lost")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d", m.Len())
	}
}

func TestMemoryUpdateExisting(t *testing.T) {
	m := NewMemory(2)
	mustSet(t, m, "a", "1")
	mustSet(t, m, "a", "2")
	if m.Len() != 1 {
		t.Fatalf("len = %d after double set", m.Len())
	}
	if v, _ := mustGet(t, m, "a"); string(v) != "2" {
		t.Errorf("a = %q, want updated value", v)
	}
}

func TestMemoryStats(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	mustGet(t, m, "a")
	mustGet(t, m, "a")
	mustGet(t, m, "missing")
	st := m.Stats()
	if len(st) != 1 || st[0].Tier != "memory" {
		t.Fatalf("stats = %+v, want one memory tier", st)
	}
	if st[0].Hits != 2 || st[0].Misses != 1 || st[0].Sets != 1 || st[0].Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 set / 1 entry", st[0])
	}
}

func TestMemoryPeekInvisible(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	if v, ok, err := m.Peek(ctx, "a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Peek(a) = %q %v %v", v, ok, err)
	}
	if _, ok, err := m.Peek(ctx, "missing"); err != nil || ok {
		t.Fatalf("Peek(missing) = %v %v", ok, err)
	}
	if st := m.Stats()[0]; st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek perturbed counters: %+v", st)
	}
}

func TestMemoryDisabled(t *testing.T) {
	m := NewMemory(0)
	mustSet(t, m, "a", "1")
	if _, ok := mustGet(t, m, "a"); ok {
		t.Error("disabled store returned a hit")
	}
	if m.Len() != 0 {
		t.Error("disabled store stored an entry")
	}
}

func TestMemoryCapacityBound(t *testing.T) {
	m := NewMemory(8)
	for i := 0; i < 100; i++ {
		mustSet(t, m, fmt.Sprintf("k%d", i), "v")
	}
	if m.Len() != 8 {
		t.Errorf("len = %d, want capacity 8", m.Len())
	}
}

func TestMemoryClosedErrors(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(ctx, "a"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := m.Set(ctx, "b", []byte("2")); err == nil {
		t.Error("Set after Close succeeded")
	}
	if m.Len() != 0 {
		t.Errorf("closed store still holds %d entries", m.Len())
	}
}

// TestMemoryConcurrent exercises Get/Set/Peek/Stats concurrently; the
// race detector is the assertion.
func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				m.Set(ctx, key, []byte{byte(i)})
				m.Get(ctx, key)
				m.Peek(ctx, key)
				m.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// sieveModel is the reference for Memory's eviction: SIEVE written over
// a slice in insertion order (oldest first) with the hand as an index.
type sieveModel struct {
	cap     int
	keys    []string
	vals    map[string]string
	visited map[string]bool
	hand    int
}

func newSieveModel(capacity int) *sieveModel {
	return &sieveModel{cap: capacity, vals: map[string]string{}, visited: map[string]bool{}}
}

func (s *sieveModel) get(key string) (string, bool) {
	v, ok := s.vals[key]
	if ok {
		s.visited[key] = true
	}
	return v, ok
}

func (s *sieveModel) set(key, val string) {
	if s.cap < 1 {
		return
	}
	if _, ok := s.vals[key]; ok {
		s.vals[key], s.visited[key] = val, true
		return
	}
	for len(s.keys) >= s.cap {
		for s.visited[s.keys[s.hand]] {
			s.visited[s.keys[s.hand]] = false
			s.hand = (s.hand + 1) % len(s.keys)
		}
		delete(s.vals, s.keys[s.hand])
		delete(s.visited, s.keys[s.hand])
		s.keys = append(s.keys[:s.hand], s.keys[s.hand+1:]...)
		if s.hand == len(s.keys) {
			s.hand = 0
		}
	}
	s.keys = append(s.keys, key)
	s.vals[key], s.visited[key] = val, false
}

func (s *sieveModel) live() []string {
	return SortKeys(append([]string{}, s.keys...))
}

// TestMemorySieveDifferential drives Memory and the reference model
// through the same seeded Get/Set/overwrite/Peek sequences and compares
// their live key sets (read with Keys) after every operation.  Peek and
// Keys leave the model untouched, so if either disturbed a visited bit
// or the hand, a later eviction would pick a different victim and the
// key sets would diverge.
func TestMemorySieveDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		capacity := rng.IntN(9) // 0 disables the store
		space := 2*capacity + 3
		m, ref := NewMemory(capacity), newSieveModel(capacity)
		for op := 0; op < 1500; op++ {
			key := fmt.Sprintf("k%d", rng.IntN(space))
			switch r := rng.IntN(10); {
			case r < 4:
				got, ok := mustGet(t, m, key)
				want, wantOK := ref.get(key)
				if ok != wantOK || string(got) != want {
					t.Fatalf("seed %d op %d: Get(%s) = %q %v, model %q %v", seed, op, key, got, ok, want, wantOK)
				}
			case r < 8:
				val := fmt.Sprint(op)
				mustSet(t, m, key, val)
				ref.set(key, val)
			default:
				got, ok, err := m.Peek(ctx, key)
				if want, wantOK := ref.vals[key]; err != nil || ok != wantOK || string(got) != want {
					t.Fatalf("seed %d op %d: Peek(%s) = %q %v %v, model %q %v", seed, op, key, got, ok, err, want, wantOK)
				}
			}
			keys, err := m.Keys(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := SortKeys(keys), ref.live(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: live keys %v, model %v", seed, op, got, want)
			}
			if n := m.Len(); n > capacity || n != len(ref.keys) {
				t.Fatalf("seed %d op %d: Len = %d, cap %d, model %d", seed, op, n, capacity, len(ref.keys))
			}
		}
	}
}

// TestMemorySieveScanResistance pins what SIEVE buys over LRU: a key read
// since the hand last passed survives a flood of one-time inserts many
// times the capacity.  An LRU evicts it after capacity inserts.
func TestMemorySieveScanResistance(t *testing.T) {
	const capacity = 8
	m := NewMemory(capacity)
	mustSet(t, m, "hot", "h")
	for i := 1; i < capacity; i++ {
		mustSet(t, m, fmt.Sprintf("fill-%d", i), "v")
	}
	if _, ok := mustGet(t, m, "hot"); !ok {
		t.Fatal("hot missing before the scan")
	}
	for i := 0; i < 10*capacity; i++ {
		mustSet(t, m, fmt.Sprintf("scan-%d", i), "v")
	}
	if v, ok, _ := m.Peek(ctx, "hot"); !ok || string(v) != "h" {
		t.Fatal("visited key evicted by a scan of one-time inserts")
	}
	keys := scannedSorted(t, m, nil)
	if len(keys) != capacity || keys[0] != "hot" {
		t.Fatalf("live keys after scan = %v, want hot plus the %d newest", keys, capacity-1)
	}
}

// TestTotals pins the fold from per-tier stats to the store-level
// counters reported by /v1/cache/stats.
func TestTotals(t *testing.T) {
	entries, hits, misses := Totals([]TierStats{
		{Tier: "memory", Entries: 3, Hits: 10, Misses: 7},
		{Tier: "disk", Entries: 9, Hits: 5, Misses: 2},
	})
	if entries != 9 || hits != 15 || misses != 2 {
		t.Errorf("Totals = %d/%d/%d, want 9 entries, 15 hits, 2 misses", entries, hits, misses)
	}
	if e, h, m := Totals(nil); e != 0 || h != 0 || m != 0 {
		t.Errorf("Totals(nil) = %d/%d/%d, want zeros", e, h, m)
	}
}
