package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"repro/internal/hashring"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// Store plane: the response store exposed over HTTP so peers can repair
// each other.  GET /v1/store/keys and /v1/store/digest require the
// store's optional Scanner capability (501 without it — a remote-backed
// replica cannot enumerate the shared tier, and a repairing peer lists
// keys from a replica that can); both take an optional slice selection
// (node=u&member=m...) so a repairing replica digests and lists only
// the keys that hash to it.  GET and PUT /v1/store/entries/{key} work
// against any store.  POST /v1/store/repair wakes this replica's
// own repair loop (the scheduler sends it on reinstatement).  The
// repair in this package is the intended consumer, but the endpoints
// are plain HTTP: an operator can inspect or reseed a store with curl.

// maxStoreKeyLen bounds the key path element of /v1/store/entries —
// canonical request keys are short hex strings, so anything longer is a
// caller bug, not a store concern.
const maxStoreKeyLen = 512

// storeKeyError validates a key from the URL path.
func storeKeyError(key string) error {
	if key == "" {
		return errors.New("simd: empty store key")
	}
	if len(key) > maxStoreKeyLen {
		return fmt.Errorf("simd: store key length %d exceeds %d", len(key), maxStoreKeyLen)
	}
	return nil
}

// maxSliceMembers bounds the member list of a slice selection.
const maxSliceMembers = 256

// storeFilter parses the optional key selections of /v1/store/keys and
// /v1/store/digest into one filter (nil: every key).  node=u with
// member=m repeated keeps the keys that hash to u on the consistent-hash
// ring of the members — the requesting replica's slice, with exactly
// the arithmetic the scheduler routes by.  withBucket additionally
// accepts bucket=i&buckets=n, one fixed hash-space bucket (listing
// only: on the digest, buckets is the bucket count).
func storeFilter(q url.Values, withBucket bool) (func(string) bool, error) {
	var filters []func(string) bool
	if node, members := q.Get("node"), q["member"]; node != "" || len(members) > 0 {
		if len(members) > maxSliceMembers || !slices.Contains(members, node) {
			return nil, fmt.Errorf("simd: slice node %q must be one of at most %d members", node, maxSliceMembers)
		}
		ring, err := hashring.New(members, hashring.DefaultReplicas)
		if err != nil {
			return nil, err
		}
		filters = append(filters, func(key string) bool { return ring.Node(key) == node })
	}
	if bucketStr, bucketsStr := q.Get("bucket"), q.Get("buckets"); withBucket && (bucketStr != "" || bucketsStr != "") {
		bucket, err := strconv.Atoi(bucketStr)
		if err != nil {
			return nil, fmt.Errorf("simd: bad bucket %q", bucketStr)
		}
		buckets, err := strconv.Atoi(bucketsStr)
		if err != nil {
			return nil, fmt.Errorf("simd: bad buckets %q", bucketsStr)
		}
		if buckets < 1 || bucket < 0 || bucket >= buckets {
			return nil, fmt.Errorf("simd: bucket %d out of range [0, %d)", bucket, buckets)
		}
		filters = append(filters, func(key string) bool { return resultstore.BucketOf(key, buckets) == bucket })
	}
	switch len(filters) {
	case 0:
		return nil, nil
	case 1:
		return filters[0], nil
	}
	return func(key string) bool { return filters[0](key) && filters[1](key) }, nil
}

// storeKeysResponse is the GET /v1/store/keys body.
type storeKeysResponse struct {
	Count int      `json:"count"`
	Keys  []string `json:"keys"`
}

// handleStoreKeys enumerates the store's live key set, optionally
// restricted to one fixed hash-space bucket and to a requester's slice
// (storeFilter).  501 when the store cannot enumerate (no Scanner
// capability).
func (s *Server) handleStoreKeys(w http.ResponseWriter, r *http.Request) {
	filter, err := storeFilter(r.URL.Query(), true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	keys, ok, err := resultstore.ScanKeys(r.Context(), s.store, filter)
	if !ok {
		writeError(w, http.StatusNotImplemented, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	resultstore.SortKeys(keys)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(storeKeysResponse{Count: len(keys), Keys: keys})
}

// storeDigestResponse is the GET /v1/store/digest body: the live key
// count plus one order-independent digest per fixed hash-space bucket.
type storeDigestResponse struct {
	Buckets int                  `json:"buckets"`
	Count   int                  `json:"count"`
	Digests []resultstore.Digest `json:"digests"`
}

// maxDigestBuckets bounds the buckets query parameter.
const maxDigestBuckets = 4096

// handleStoreDigest reports the per-bucket key-set digests repair
// compares, optionally over a requester's slice only (storeFilter).
// 501 when the store cannot enumerate.
func (s *Server) handleStoreDigest(w http.ResponseWriter, r *http.Request) {
	filter, err := storeFilter(r.URL.Query(), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buckets := resultstore.DefaultDigestBuckets
	if v := r.URL.Query().Get("buckets"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxDigestBuckets {
			writeError(w, http.StatusBadRequest, fmt.Errorf("simd: bad buckets %q", v))
			return
		}
		buckets = n
	}
	keys, ok, err := resultstore.ScanKeys(r.Context(), s.store, filter)
	if !ok {
		writeError(w, http.StatusNotImplemented, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(storeDigestResponse{
		Buckets: buckets,
		Count:   len(keys),
		Digests: resultstore.BucketDigests(keys, buckets),
	})
}

// handleStoreGetEntry serves one stored response body verbatim.  The
// read is a Peek: repair traffic stays out of the hit/miss counters and
// does not set SIEVE's visited bit.
func (s *Server) handleStoreGetEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := storeKeyError(key); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, ok, err := resultstore.Peek(r.Context(), s.store, key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no stored entry for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStorePutEntry writes one entry into the store, verbatim, so a
// reseeded entry serves byte-identical to the original computation.
// The body must be a Result's canonical stored form
// (frontendsim.CheckCanonical): suite responses splice stored bytes
// as-is, so a pretty-printed or otherwise re-spelled entry would break
// byte identity across paths and, through its raw newlines, the NDJSON
// stream framing.  Anything else is refused with 400.  Repair pulls do
// not come through here (the puller Sets its own store); this is the
// operator's reseeding path.
func (s *Server) handleStorePutEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := storeKeyError(key); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if err := frontendsim.CheckCanonical(body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("simd: store entry: %w", err))
		return
	}
	if err := s.store.Set(r.Context(), key, body); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.repairWrites.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreRepair wakes the repair loop and answers 202 without
// waiting for the run; 501 when this replica has no repair configured.
func (s *Server) handleStoreRepair(w http.ResponseWriter, _ *http.Request) {
	r := s.repair.Load()
	if r == nil {
		writeError(w, http.StatusNotImplemented, errors.New("simd: repair is not configured"))
		return
	}
	r.trigger()
	w.WriteHeader(http.StatusAccepted)
}
