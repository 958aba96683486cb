package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashring"
	"repro/pkg/resultstore"
)

// Peer repair: one pull pass that refills this replica's ring slice from
// the peers that hold it.  Results are deterministic, so a stored body
// is the same bytes wherever it was computed and copying it is always
// cheaper than recomputing it.  A pass
//
//  1. resolves its peers — the static Peers plus the backends of the
//     scheduler's GET /v1/ring, self excluded, ring successor first;
//  2. compares per-bucket digests of this replica's slice of the ring
//     (the /v1/ring backends plus self) with every peer that answers —
//     the peer digests only the keys that hash to this replica (GET
//     /v1/store/digest?node=self&member=...), the local side likewise;
//  3. lists the slice keys (GET /v1/store/keys) only in buckets whose
//     digests differ and that are not settled (the peer's digest
//     unchanged since a listing that found nothing missing, and the
//     local store still holding those keys), and pulls each key not
//     already present (GET /v1/store/entries/{key}), failing over across
//     peers.
//
// So once a fleet has converged, a pass costs one ring fetch and one
// digest request per peer, also while replicas store new results of
// their own slices.  A peer whose store cannot enumerate keys (501, a
// remote-only store) is not listed from but still serves pulls; when
// every peer is such a peer there is nothing to list and the pass ends
// clean.
//
// A run repeats the pass until the ring epoch held still across one and
// no key failed, or until repairTimeout passes — so a ring change
// mid-pull re-slices and a peer dying mid-pull costs a retry, not the
// repair.  Runs happen at three points: before /healthz flips ready
// (cmd/simd calls Run), when the scheduler reinstates this replica (POST
// /v1/store/repair wakes the loop), and every Interval.  Repair is
// pull-only: divergence the other way heals in the peer's own pass.

const (
	// repairTimeout bounds one repair run, re-runs included.  On expiry
	// the store keeps whatever was pulled; a join-time run then serves
	// cold.
	repairTimeout = 2 * time.Minute
	// repairConcurrency bounds simultaneous entry pulls.
	repairConcurrency = 8
	// repairRetryDelay spaces the first two passes of one run; the delay
	// doubles after each further failed pass, up to repairMaxRetryDelay.
	repairRetryDelay    = 200 * time.Millisecond
	repairMaxRetryDelay = 10 * time.Second
)

// RepairConfig configures Server.NewRepair.  Zero values select the
// defaults noted on each field.
type RepairConfig struct {
	// SelfURL is this replica's advertised base URL: it is never its
	// own peer, and it is the ring node the slice filter selects.
	// Required with RingURL.
	SelfURL string
	// Peers are static replica base URLs to pull from.
	Peers []string
	// RingURL is the scheduler base URL whose GET /v1/ring supplies
	// more peers, the slice filter and the epoch.  Without it every key
	// the peers hold is in the slice.  One of Peers and RingURL is
	// required.
	RingURL string
	// Interval is the period of the background pass (0 disables the
	// timer; POST /v1/store/repair still wakes the loop).
	Interval time.Duration
	// Logf, when set, receives one line per background run that pulled
	// or failed.
	Logf func(format string, args ...any)
}

// RepairResult reports what a repair run accomplished.
type RepairResult struct {
	// Pulled counts entries fetched from peers and stored locally.
	Pulled int
	// Failed counts slice keys (or bucket listings) the final pass
	// could not fetch from any peer.
	Failed int
	// Epoch is the ring epoch the final pass ran under (0 without
	// RingURL).
	Epoch uint64
}

// Repair is the peer-pull repair of one Server.  Build it with
// Server.NewRepair; Run performs one run, Start the background loop,
// Close stops the loop.
type Repair struct {
	s      *Server
	cfg    RepairConfig
	client *http.Client
	wake   chan struct{}

	// runMu serialises runs and guards settled: per peer, the buckets
	// whose last listing found nothing to pull.
	runMu   sync.Mutex
	settled map[string]map[int]settledBucket

	// mu orders Start against Close, so no loop starts after Close
	// began waiting.
	mu     sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewRepair builds the repair of s and routes POST /v1/store/repair to
// it.  The background loop is not running until Start.
func (s *Server) NewRepair(cfg RepairConfig) (*Repair, error) {
	if len(cfg.Peers) == 0 && cfg.RingURL == "" {
		return nil, errors.New("simd: repair needs peers or a ring URL")
	}
	if cfg.RingURL != "" && cfg.SelfURL == "" {
		return nil, errors.New("simd: repair with a ring URL needs the self URL")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Repair{s: s, cfg: cfg, client: &http.Client{Timeout: 10 * time.Second}, wake: make(chan struct{}, 1)}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	s.repair.Store(r)
	return r, nil
}

// Start launches the background loop: a run every Interval and one
// after each POST /v1/store/repair, never two at once.  Start after
// Close is a no-op.
func (r *Repair) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx.Err() != nil {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var ticker *time.Ticker
		var tick <-chan time.Time
		if r.cfg.Interval > 0 {
			ticker = time.NewTicker(r.cfg.Interval)
			defer ticker.Stop()
			tick = ticker.C
		}
		for {
			select {
			case <-r.ctx.Done():
				return
			case <-tick:
			case <-r.wake:
			}
			res, err := r.Run(r.ctx)
			if err != nil && r.ctx.Err() == nil {
				r.cfg.Logf("simd: repair incomplete: %v", err)
			} else if res.Pulled > 0 {
				r.cfg.Logf("simd: repair pulled %d", res.Pulled)
			}
			if ticker != nil {
				// The next timed run starts a full interval after this one
				// ended, not at once from a tick that fell during it.
				ticker.Reset(r.cfg.Interval)
			}
		}
	}()
}

// trigger asks the loop for a run.  Triggers that arrive while one is
// pending collapse into it.
func (r *Repair) trigger() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Close stops the loop, cancelling a run in flight, and waits for it.
func (r *Repair) Close() {
	r.mu.Lock()
	r.cancel()
	r.mu.Unlock()
	r.wg.Wait()
	r.s.repair.CompareAndSwap(r, nil)
}

// Run repeats the pass until the ring epoch held still across one and
// no key failed, or until repairTimeout (or ctx) ends it.  An error
// means the slice may be incomplete; the store keeps what was pulled.
// Runs never overlap: a second Run waits for the first.
func (r *Repair) Run(ctx context.Context) (RepairResult, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, repairTimeout)
	defer cancel()
	delay := repairRetryDelay
	var total RepairResult
	for {
		pass, stable, err := r.pass(ctx)
		total.Pulled += pass.Pulled
		total.Failed, total.Epoch = pass.Failed, pass.Epoch
		if err == nil && pass.Failed == 0 && stable {
			r.s.repairRuns.Add(1)
			return total, nil
		}
		switch {
		case err != nil:
		case pass.Failed > 0:
			err = fmt.Errorf("%d key(s) unpulled", pass.Failed)
		default:
			err = errors.New("ring epoch moved or could not be re-read")
		}
		if ctx.Err() != nil {
			r.s.repairErrs.Add(1)
			return total, fmt.Errorf("simd: repair deadline passed: %w", err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
		delay = min(2*delay, repairMaxRetryDelay)
	}
}

// pass runs one digest → list → pull sweep and reports whether the ring
// epoch held still across it.
func (r *Repair) pass(ctx context.Context) (res RepairResult, stable bool, err error) {
	before, err := r.ring(ctx)
	if err != nil {
		return res, false, err
	}
	res.Epoch = before.Epoch
	peers := r.peers(before.Backends)
	if len(peers) > 0 {
		inSlice := func(string) bool { return true }
		var slice url.Values
		if r.cfg.RingURL != "" {
			members := append(slices.Clone(before.Backends), r.cfg.SelfURL)
			ring, err := hashring.New(members, hashring.DefaultReplicas)
			if err != nil {
				return res, false, err
			}
			inSlice = func(key string) bool { return ring.Node(key) == r.cfg.SelfURL }
			slice = url.Values{"node": {r.cfg.SelfURL}, "member": members}
		}
		missing, listFailed, err := r.missing(ctx, peers, slice, inSlice)
		if err != nil {
			return res, false, err
		}
		res.Pulled, res.Failed = r.pullAll(ctx, missing, peers)
		res.Failed += listFailed
	}
	after, err := r.ring(ctx)
	return res, err == nil && after.Epoch == before.Epoch, nil
}

// settledBucket is a peer bucket whose last listing found nothing to
// pull.  While the peer's digest still matches and the local store
// still holds every listed key, listing again would find nothing
// either, so the pass skips the bucket — even though the digests differ
// because the local store holds more of its slice than the peer.
type settledBucket struct {
	digest resultstore.Digest
	keys   []string
}

// ringSnapshot is the part of the scheduler's GET /v1/ring a pass uses.
type ringSnapshot struct {
	Backends []string `json:"backends"`
	Epoch    uint64   `json:"epoch"`
}

// ring reads the scheduler's routed backends and epoch (empty without
// RingURL).
func (r *Repair) ring(ctx context.Context) (ringSnapshot, error) {
	var snap ringSnapshot
	if r.cfg.RingURL == "" {
		return snap, nil
	}
	return snap, r.getJSON(ctx, r.cfg.RingURL+"/v1/ring", &snap)
}

// peers returns the static peers plus backends, self excluded and
// de-duplicated, with this replica's clockwise ring successor first:
// the successor absorbs this replica's slice while it is away, so it is
// the likeliest holder of what this replica is missing.
func (r *Repair) peers(backends []string) []string {
	seen := map[string]bool{r.cfg.SelfURL: true}
	var out []string
	for _, p := range append(append([]string(nil), r.cfg.Peers...), backends...) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) < 2 || r.cfg.SelfURL == "" {
		return out
	}
	ring, err := hashring.New(append(append([]string(nil), out...), r.cfg.SelfURL), hashring.DefaultReplicas)
	if err != nil {
		return out
	}
	succ := ring.Successor(r.cfg.SelfURL)
	for i, p := range out {
		if p == succ {
			copy(out[1:i+1], out[:i])
			out[0] = succ
			break
		}
	}
	return out
}

// missing lists the slice keys the peers hold and the local store lacks,
// each mapped to the first peer that listed it.  slice (nil without a
// ring) asks each peer to digest and list only the keys inSlice keeps,
// and the local digest covers the same keys.  A bucket is listed when
// its digests differ and it is not settled; a local store without the
// Scanner capability has no digest, so every non-empty peer bucket is
// listed and Peek sorts out what is present.  A peer whose store cannot
// enumerate (501) is skipped here but still serves pulls.  listFailed
// counts bucket listings that failed; err is set when no peer answered
// at all.
func (r *Repair) missing(ctx context.Context, peers []string, slice url.Values, inSlice func(string) bool) (map[string]string, int, error) {
	const buckets = resultstore.DefaultDigestBuckets
	localKeys, scannable, err := resultstore.ScanKeys(ctx, r.s.store, inSlice)
	if scannable && err != nil {
		return nil, 0, err
	}
	byBucket := make([][]string, buckets)
	have := make(map[string]bool, len(localKeys))
	for _, k := range localKeys {
		b := resultstore.BucketOf(k, buckets)
		byBucket[b] = append(byBucket[b], k)
		have[k] = true
	}
	local := make([]resultstore.Digest, buckets)
	for b, keys := range byBucket {
		local[b] = resultstore.KeyDigest(keys)
	}
	sliceQuery := slice.Encode()

	source := map[string]string{}
	settled := map[string]map[int]settledBucket{}
	answered, listFailed := 0, 0
	var lastErr error
	for _, peer := range peers {
		var d storeDigestResponse
		err := r.getJSON(ctx, fmt.Sprintf("%s/v1/store/digest?buckets=%d&%s", peer, buckets, sliceQuery), &d)
		if errors.Is(err, resultstore.ErrScanUnsupported) {
			answered++
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		if len(d.Digests) != buckets {
			lastErr = fmt.Errorf("simd: digest from %s has %d buckets, want %d", peer, len(d.Digests), buckets)
			continue
		}
		answered++
		was, now := r.settled[peer], map[int]settledBucket{}
		settled[peer] = now
		for b, digest := range d.Digests {
			if digest.Count == 0 {
				continue
			}
			if scannable && digest == local[b] {
				now[b] = settledBucket{digest: digest, keys: byBucket[b]}
				continue
			}
			if prev, ok := was[b]; scannable && ok && prev.digest == digest && allIn(prev.keys, have) {
				now[b] = prev
				continue
			}
			var listed storeKeysResponse
			if err := r.getJSON(ctx, fmt.Sprintf("%s/v1/store/keys?bucket=%d&buckets=%d&%s", peer, b, buckets, sliceQuery), &listed); err != nil {
				listFailed++
				continue
			}
			found := false
			var sliceKeys []string
			for _, key := range listed.Keys {
				if !inSlice(key) {
					continue
				}
				sliceKeys = append(sliceKeys, key)
				if _, ok := source[key]; ok {
					found = true
					continue
				}
				if _, present, err := resultstore.Peek(ctx, r.s.store, key); err == nil && present {
					continue
				}
				source[key] = peer
				found = true
			}
			if scannable && !found {
				now[b] = settledBucket{digest: digest, keys: sliceKeys}
			}
		}
	}
	r.settled = settled
	if answered == 0 {
		return nil, 0, fmt.Errorf("simd: no repair peer answered: %w", lastErr)
	}
	return source, listFailed, nil
}

// allIn reports whether every key is in set.
func allIn(keys []string, set map[string]bool) bool {
	for _, k := range keys {
		if !set[k] {
			return false
		}
	}
	return true
}

// pullAll pulls every missing key with bounded concurrency.
func (r *Repair) pullAll(ctx context.Context, missing map[string]string, peers []string) (pulled, failed int) {
	var ok, bad atomic.Int64
	sem := make(chan struct{}, repairConcurrency)
	var wg sync.WaitGroup
	for key, first := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if r.pull(ctx, key, first, peers) != nil {
				bad.Add(1)
				return
			}
			ok.Add(1)
		}()
	}
	wg.Wait()
	return int(ok.Load()), int(bad.Load())
}

// pull copies one entry into the local store from the first peer that
// serves it: first (the peer that listed it), then the rest in order.
func (r *Repair) pull(ctx context.Context, key, first string, peers []string) error {
	var err error
	for i, peer := range append([]string{first}, peers...) {
		if i > 0 && peer == first {
			continue
		}
		var body []byte
		if body, err = r.get(ctx, peer+"/v1/store/entries/"+url.PathEscape(key)); err == nil {
			if err = r.s.store.Set(ctx, key, body); err == nil {
				r.s.repairPulled.Add(1)
				return nil
			}
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	r.s.repairErrs.Add(1)
	return err
}

// get fetches one peer or scheduler URL and returns the body of a 200.
func (r *Repair) get(ctx context.Context, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotImplemented {
		// The peer's store cannot enumerate keys (digest and listing).
		return nil, fmt.Errorf("simd: GET %s: %w", u, resultstore.ErrScanUnsupported)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("simd: GET %s: status %d", u, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// getJSON is get plus a JSON decode into v.
func (r *Repair) getJSON(ctx context.Context, u string, v any) error {
	body, err := r.get(ctx, u)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("simd: GET %s: %w", u, err)
	}
	return nil
}
