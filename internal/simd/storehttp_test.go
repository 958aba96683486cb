package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hashring"
	"repro/internal/memcachetest"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func put(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPut, path, strings.NewReader(body)))
	return w
}

// storeServer is a simd server over an explicit memory store, with the
// engine unused by the store-plane endpoints.
func storeServer(t *testing.T) (*Server, resultstore.Store) {
	t.Helper()
	store := resultstore.NewMemory(64)
	t.Cleanup(func() { store.Close() })
	eng, _ := countingEngine(nil)
	return NewServerWithStore(eng, store), store
}

// canonicalEntry is res in its stored form, the only body PUT
// /v1/store/entries accepts.
func canonicalEntry(t *testing.T, res frontendsim.Result) string {
	t.Helper()
	b, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func TestStoreEntryPutGetRoundTrip(t *testing.T) {
	srv, _ := storeServer(t)
	body := canonicalEntry(t, frontendsim.Result{Benchmark: "gzip", MeasCycles: 123})
	if w := put(t, srv, "/v1/store/entries/key-1", body); w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, body %s", w.Code, w.Body.String())
	}
	w := get(t, srv, "/v1/store/entries/key-1")
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d", w.Code)
	}
	if w.Body.String() != body {
		t.Fatalf("entry body = %q, want the stored bytes verbatim %q", w.Body.String(), body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestStoreEntryErrors(t *testing.T) {
	srv, _ := storeServer(t)
	if w := get(t, srv, "/v1/store/entries/absent"); w.Code != http.StatusNotFound {
		t.Errorf("GET absent = %d, want 404", w.Code)
	}
	if w := put(t, srv, "/v1/store/entries/empty", ""); w.Code != http.StatusBadRequest {
		t.Errorf("PUT empty body = %d, want 400", w.Code)
	}
	long := strings.Repeat("k", maxStoreKeyLen+1)
	if w := get(t, srv, "/v1/store/entries/"+long); w.Code != http.StatusBadRequest {
		t.Errorf("GET oversized key = %d, want 400", w.Code)
	}
}

// TestStoreEntryReadsInvisible pins that repair reads are Peeks: pulling
// an entry moves neither the hit nor the miss counter.
func TestStoreEntryReadsInvisible(t *testing.T) {
	srv, store := storeServer(t)
	if err := store.Set(context.Background(), "key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/store/entries/key")
	get(t, srv, "/v1/store/entries/missing")
	_, hits, misses := resultstore.Totals(store.Stats())
	if hits != 0 || misses != 0 {
		t.Fatalf("repair reads moved counters: hits=%d misses=%d", hits, misses)
	}
}

func TestStoreKeysEndpoint(t *testing.T) {
	srv, store := storeServer(t)
	want := []string{"alpha", "beta", "gamma"}
	for _, k := range want {
		if err := store.Set(context.Background(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w := get(t, srv, "/v1/store/keys")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var body storeKeysResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 3 || !reflect.DeepEqual(body.Keys, want) {
		t.Fatalf("keys = %+v, want sorted %v", body, want)
	}

	// Bucket selection: the union over all buckets is the full key set,
	// and each key appears in exactly its own bucket.
	const buckets = 4
	seen := map[string]int{}
	for b := 0; b < buckets; b++ {
		var part storeKeysResponse
		w := get(t, srv, "/v1/store/keys?bucket="+string(rune('0'+b))+"&buckets=4")
		if w.Code != http.StatusOK {
			t.Fatalf("bucket %d: status %d", b, w.Code)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &part); err != nil {
			t.Fatal(err)
		}
		for _, k := range part.Keys {
			seen[k]++
			if got := resultstore.BucketOf(k, buckets); got != b {
				t.Errorf("key %q served in bucket %d, hashes to %d", k, b, got)
			}
		}
	}
	for _, k := range want {
		if seen[k] != 1 {
			t.Errorf("key %q appeared in %d buckets", k, seen[k])
		}
	}

	for _, bad := range []string{
		"/v1/store/keys?bucket=0",            // buckets missing
		"/v1/store/keys?buckets=4",           // bucket missing
		"/v1/store/keys?bucket=4&buckets=4",  // out of range
		"/v1/store/keys?bucket=-1&buckets=4", // negative
		"/v1/store/keys?bucket=x&buckets=4",  // unparseable
	} {
		if w := get(t, srv, bad); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
		}
	}
}

func TestStoreDigestEndpoint(t *testing.T) {
	srv, store := storeServer(t)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if err := store.Set(context.Background(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w := get(t, srv, "/v1/store/digest?buckets=8")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var body storeDigestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Buckets != 8 || body.Count != 4 {
		t.Fatalf("digest header = %+v", body)
	}
	if want := resultstore.BucketDigests(keys, 8); !reflect.DeepEqual(body.Digests, want) {
		t.Fatalf("digests = %v, want %v", body.Digests, want)
	}
	for _, bad := range []string{"/v1/store/digest?buckets=0", "/v1/store/digest?buckets=5000", "/v1/store/digest?buckets=x"} {
		if w := get(t, srv, bad); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
		}
	}
}

// TestStoreSliceSelection: node=u&member=m... restricts the digest and
// the listing to the keys that hash to u on the members' ring, and a
// node outside the members is a request error.
func TestStoreSliceSelection(t *testing.T) {
	srv, store := storeServer(t)
	keys := keyRange(0, 40)
	seedKeys(t, store, keys...)
	members := []string{"http://a.test", "http://b.test", "http://c.test"}
	ring, err := hashring.New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mine []string
	for _, k := range keys {
		if ring.Node(k) == members[1] {
			mine = append(mine, k)
		}
	}
	if len(mine) == 0 || len(mine) == len(keys) {
		t.Fatalf("degenerate slice: %d of %d keys", len(mine), len(keys))
	}
	slice := url.Values{"node": {members[1]}, "member": members}.Encode()

	w := get(t, srv, "/v1/store/digest?buckets=8&"+slice)
	var digest storeDigestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &digest); w.Code != http.StatusOK || err != nil {
		t.Fatalf("digest = %d %v", w.Code, err)
	}
	if want := resultstore.BucketDigests(mine, 8); digest.Count != len(mine) || !reflect.DeepEqual(digest.Digests, want) {
		t.Fatalf("slice digest = %+v, want %d keys, digests %v", digest, len(mine), want)
	}
	var listed []string
	for b := 0; b < 8; b++ {
		w := get(t, srv, fmt.Sprintf("/v1/store/keys?bucket=%d&buckets=8&%s", b, slice))
		var body storeKeysResponse
		if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusOK || err != nil {
			t.Fatalf("keys bucket %d = %d %v", b, w.Code, err)
		}
		listed = append(listed, body.Keys...)
	}
	resultstore.SortKeys(listed)
	resultstore.SortKeys(mine)
	if !reflect.DeepEqual(listed, mine) {
		t.Errorf("slice listing = %v, want %v", listed, mine)
	}
	for _, bad := range []string{
		"/v1/store/digest?node=http://d.test&member=http://a.test",
		"/v1/store/keys?member=http://a.test",
		"/v1/store/keys?node=http://a.test",
	} {
		if w := get(t, srv, bad); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
		}
	}
}

// TestStoreScanEndpointsUnsupported pins the capability-absent contract:
// a remote-backed replica answers 501 for enumeration and digests (a
// warming peer falls back to a replica that can enumerate) while entry
// GET/PUT still work.
func TestStoreScanEndpointsUnsupported(t *testing.T) {
	cache := memcachetest.Start(t)
	store, err := resultstore.NewRemote(resultstore.RemoteConfig{Servers: []string{cache.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := NewServerWithStore(frontendsim.New(), store)
	if w := get(t, srv, "/v1/store/keys"); w.Code != http.StatusNotImplemented {
		t.Errorf("keys = %d, want 501", w.Code)
	}
	if w := get(t, srv, "/v1/store/digest"); w.Code != http.StatusNotImplemented {
		t.Errorf("digest = %d, want 501", w.Code)
	}
	entry := canonicalEntry(t, frontendsim.Result{Benchmark: "gzip"})
	if w := put(t, srv, "/v1/store/entries/k", entry); w.Code != http.StatusNoContent {
		t.Errorf("PUT = %d, want 204", w.Code)
	}
	if w := get(t, srv, "/v1/store/entries/k"); w.Code != http.StatusOK || w.Body.String() != entry {
		t.Errorf("GET = %d %q", w.Code, w.Body.String())
	}
}

// TestStorePutRefusesNonCanonical pins the stored-form invariant the
// suite splice relies on: PUT /v1/store/entries accepts only a Result's
// canonical stored bytes.  A pretty-printed copy of a real entry (which
// the store used to take verbatim, breaking byte identity and, through
// its raw newlines, the NDJSON framing once spliced) is refused with
// 400, while a GET→PUT round trip still lands.
func TestStorePutRefusesNonCanonical(t *testing.T) {
	eng := frontendsim.New(frontendsim.WithWarmupOps(5_000), frontendsim.WithMeasureOps(10_000))
	srv := NewServer(eng, 16)
	req := frontendsim.Request{Benchmark: "gzip"}
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Code != http.StatusOK {
		t.Fatalf("simulate = %d", w.Code)
	}
	key, err := eng.RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, srv, "/v1/store/entries/"+key)
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d", w.Code)
	}
	entry := w.Body.String()
	if w := put(t, srv, "/v1/store/entries/copy", entry); w.Code != http.StatusNoContent {
		t.Fatalf("GET→PUT round trip = %d, want 204 (%s)", w.Code, w.Body.String())
	}
	if w := get(t, srv, "/v1/store/entries/copy"); w.Body.String() != entry {
		t.Error("round-tripped entry is not byte-identical")
	}
	var res frontendsim.Result
	if err := json.Unmarshal([]byte(entry), &res); err != nil {
		t.Fatal(err)
	}
	pretty, _ := json.MarshalIndent(&res, "", "  ")
	for name, body := range map[string]string{
		"pretty-printed":  string(pretty) + "\n",
		"no newline":      strings.TrimSuffix(entry, "\n"),
		"unknown field":   strings.TrimSuffix(entry, "}\n") + `,"extra":1}` + "\n",
		"not a result":    `{"v":1}` + "\n",
		"trailing spaces": strings.TrimSuffix(entry, "\n") + "  \n",
	} {
		if w := put(t, srv, "/v1/store/entries/bad", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: PUT = %d, want 400", name, w.Code)
		}
	}
	if w := get(t, srv, "/v1/store/entries/bad"); w.Code != http.StatusNotFound {
		t.Errorf("a refused PUT was stored: GET = %d", w.Code)
	}
}
