package scheduler

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/pkg/frontendsim"
)

// latencyTracker keeps a sliding window of successful dispatch
// latencies and answers percentile queries — the hedge trigger adapts
// to what the fleet actually serves instead of a guessed constant.
type latencyTracker struct {
	mu      sync.Mutex
	samples [256]time.Duration // ring buffer
	n       uint64             // total observations
}

// minHedgeSamples is how many latencies must be observed before the
// percentile is trusted; until then the configured HedgeDelay alone
// drives hedging.
const minHedgeSamples = 16

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%uint64(len(t.samples))] = d
	t.n++
	t.mu.Unlock()
}

// percentile returns the p-quantile (0 < p < 1) of the window, or 0
// while fewer than minHedgeSamples latencies have been observed.
func (t *latencyTracker) percentile(p float64) time.Duration {
	t.mu.Lock()
	n := t.n
	if n < minHedgeSamples {
		t.mu.Unlock()
		return 0
	}
	if n > uint64(len(t.samples)) {
		n = uint64(len(t.samples))
	}
	window := make([]time.Duration, n)
	copy(window, t.samples[:n])
	t.mu.Unlock()
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	idx := int(p * float64(len(window)-1))
	return window[idx]
}

// hedgeAfter is the in-flight duration beyond which a dispatch fires a
// speculative attempt to the next ring node: the observed p95 dispatch
// latency, never less than the configured HedgeDelay floor.
func (s *Scheduler) hedgeAfter() time.Duration {
	if p := s.lat.percentile(0.95); p > s.hedgeDelay {
		return p
	}
	return s.hedgeDelay
}

// rearmTimer is the stop-drain-reset idiom: it re-arms t for d from
// now, discarding a stale, un-consumed expiry first.  A bare
// timer.Reset after the timer already fired leaves the old expiry
// sitting in t.C, and the next select consumes it immediately — for the
// hedge loop that meant a spurious instant hedge right after a failed
// attempt's fallback launch (and an inflated Hedged counter).  Only
// safe when no other goroutine receives from t.C, which holds here: the
// dispatch loop is the channel's sole consumer.
func rearmTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// dispatchHedged walks nodes like the sequential ring walk, but with
// tail-latency hedging: while an attempt is in flight, a timer at
// hedgeAfter() launches the next node speculatively; the first
// successful response wins and the losers' requests are cancelled.
// Failures behave exactly like the sequential walk — a retryable error
// moves on to the next node (counted as Retried), a permanent error or
// the caller's cancellation aborts everything.
func (s *Scheduler) dispatchHedged(ctx context.Context, nodes []string, req frontendsim.Request) (*frontendsim.Stored, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap every losing attempt on return

	type attempt struct {
		idx    int
		hedged bool
		res    *frontendsim.Stored
		err    error
		took   time.Duration
	}
	resc := make(chan attempt, len(nodes))
	launched, pending, attemptNo := 0, 0, 0
	// fire starts one attempt at nodes[idx] unconditionally.
	fire := func(idx int, hedged bool) {
		if attemptNo > 0 {
			if hedged {
				s.hedged.Add(1)
			} else {
				s.retried.Add(1)
			}
		}
		attemptNo++
		pending++
		go func() {
			start := time.Now()
			res, err := s.client.Simulate(hctx, nodes[idx], req)
			s.reportAttempt(ctx, nodes[idx], err)
			resc <- attempt{idx: idx, hedged: hedged, res: res, err: err, took: time.Since(start)}
		}()
	}
	// launch advances to the next node whose circuit admits a request
	// and fires it; skipped nodes don't burn an attempt.  Reports false
	// when every remaining node is breaker-open.
	launch := func(hedged bool) bool {
		for launched < len(nodes) {
			idx := launched
			launched++
			if !s.allowNode(nodes[idx]) {
				continue
			}
			fire(idx, hedged)
			return true
		}
		return false
	}
	if !launch(false) {
		// Every node's circuit is open: force the home node (it doubles
		// as a breaker probe) rather than fail with nothing tried.
		fire(0, false)
	}
	timer := time.NewTimer(s.hedgeAfter())
	defer timer.Stop()

	var lastErr error
	for pending > 0 {
		select {
		case a := <-resc:
			pending--
			if a.err == nil {
				s.lat.observe(a.took)
				if a.hedged {
					s.hedgeWins.Add(1)
				}
				return a.res, nil
			}
			if permanent(ctx, a.err) {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, a.err
			}
			lastErr = a.err
			if pending == 0 && launched < len(nodes) {
				// Every in-flight attempt failed: fall back to the plain
				// sequential walk on the next node, after the jittered
				// retry backoff (nothing is pending, so sleeping here
				// stalls no other attempt).  The timer may have expired
				// while we were waiting on resc, leaving a stale tick in
				// timer.C — stop-drain-reset, or the next select
				// iteration hedges instantly.
				if err := s.backoff(ctx, attemptNo); err != nil {
					return nil, err
				}
				launch(false)
				rearmTimer(timer, s.hedgeAfter())
			}
		case <-timer.C:
			if launched < len(nodes) {
				launch(true)
				timer.Reset(s.hedgeAfter())
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, &ExhaustedError{Benchmark: req.Benchmark, Attempts: attemptNo, Last: lastErr}
}
