package frontendsim

import (
	"context"
	"fmt"
	"sync"
)

// SourcedDispatcher is a Dispatcher that also reports how the request
// was served — the per-shard `source` of the streaming suite API.  The
// conventional spellings are the X-Cache values ("HIT", "COALESCED",
// "MISS"); an empty string means the dispatcher does not say.
type SourcedDispatcher func(ctx context.Context, req Request) (*Result, string, error)

// StoredDispatcher is a SourcedDispatcher that hands back the result in
// its stored form (the serving plane's suite endpoints, which splice the
// bytes instead of decoding them).
type StoredDispatcher func(ctx context.Context, req Request) (*Stored, string, error)

// Shard is one completed shard of a streamed suite run: the dispatched
// result plus where in the suite it belongs and how it was served.  The
// result is a decoded *Result (ShardResult) or its stored bytes
// (StoredShard).
type Shard[T any] struct {
	// Positions are the suite indices sharing this shard's canonical
	// key, ascending (duplicate suite entries dispatch once and share
	// the result).  The slice is owned by the engine; don't mutate it.
	Positions []int `json:"positions"`
	// Benchmark is the dispatched request's benchmark.
	Benchmark string `json:"benchmark"`
	// Source reports how the dispatcher served the shard ("HIT",
	// "COALESCED", "MISS"; empty when unknown).
	Source string `json:"source,omitempty"`
	// Result is the shard's result, shared by every position.  Nil when
	// Err is set.
	Result T `json:"result"`
	// Err is the shard's dispatch error, set only in partial-results
	// runs (RunSuitePartial) when the shard failed; Result is nil.
	Err string `json:"error,omitempty"`
}

// ShardResult is a completed shard with its decoded Result.
type ShardResult = Shard[*Result]

// StoredShard is a completed shard with its result in stored form.
type StoredShard = Shard[*Stored]

// StreamSink receives each completed shard of RunSuiteStream the moment
// it lands.  Calls are serialized by the engine (never concurrent), in
// completion order — cached shards typically arrive first, whatever
// their suite position.  The sink must not block longer than the caller
// can afford: it runs on the suite's worker goroutines.
type StreamSink func(ShardResult)

// StoredSink is the StreamSink of RunSuiteStored.
type StoredSink func(StoredShard)

// SuiteStreamLine is one NDJSON line of the POST /v1/suites/stream
// endpoints (internal/simd single-node, pkg/scheduler ring fan-in).
// Type selects which fields are populated:
//
//	"shard"       Positions/Benchmark/Source/Result — one completed shard
//	"shard-error" Positions/Benchmark/Error — one shard failed in a
//	              partial-results run; the run continues and the
//	              terminal aggregate excludes it
//	"aggregate"   Suite — the terminal deterministic SuiteResult,
//	              byte-identical (as JSON) to the blocking POST
//	              /v1/suites response for the same request
//	"error"       Error — the run failed; no aggregate follows
type SuiteStreamLine struct {
	Type      string       `json:"type"`
	Positions []int        `json:"positions,omitempty"`
	Benchmark string       `json:"benchmark,omitempty"`
	Source    string       `json:"source,omitempty"`
	Result    *Result      `json:"result,omitempty"`
	Suite     *SuiteResult `json:"suite,omitempty"`
	Error     string       `json:"error,omitempty"`
}

// RunSuiteStream runs the suite through dispatch exactly like
// RunSuiteVia — same sharding, same bounded worker pool, same
// deterministic suite-order aggregation — but additionally emits every
// shard to sink the moment it completes.  The returned SuiteResult is
// byte-identical (as JSON) to RunSuiteVia of the same suite: streaming
// changes when results become visible, never what they are.  A nil sink
// degrades to RunSuiteVia with a sourced dispatcher.
func (e *Engine) RunSuiteStream(ctx context.Context, suite SuiteRequest, dispatch SourcedDispatcher, sink StreamSink) (*SuiteResult, error) {
	return newSuiteResult(runSuite(ctx, e, suite, dispatch, sink, false))
}

// RunSuiteStored is the suite executor over stored results: the same
// sharding, worker pool and aggregation as RunSuiteStream (RunSuitePartial
// when partial is set), with each shard's result kept as the bytes
// dispatch returned.  Rendered with AppendJSON, the StoredSuite is
// byte-identical to the JSON of the SuiteResult RunSuiteStream would
// return over the decoded results.
func (e *Engine) RunSuiteStored(ctx context.Context, suite SuiteRequest, dispatch StoredDispatcher, sink StoredSink, partial bool) (*StoredSuite, error) {
	results, errs, err := runSuite(ctx, e, suite, dispatch, sink, partial)
	if err != nil {
		return nil, err
	}
	return &StoredSuite{Results: results, Errors: errs, Aggregate: aggregate(results)}, nil
}

// newSuiteResult assembles runSuite's outcome over decoded results.
func newSuiteResult(results []*Result, errs []ShardError, err error) (*SuiteResult, error) {
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Results: results, Errors: errs, Aggregate: aggregate(results)}, nil
}

// shardValue is a per-shard result a suite run collects: a decoded
// *Result or a *Stored.  fields reports what aggregate folds (false for
// a nil value, the failed position of a partial run).
type shardValue interface {
	fields() (summary, bool)
}

// runSuite is the one suite executor behind RunSuiteVia, RunSuiteStream,
// RunSuitePartial and RunSuiteStored: a bounded worker pool
// (Engine.Workers wide) over the deduplicated shards, results landing in
// a slice indexed by suite position, so the caller's aggregate folds
// them in suite order whatever the completion order — identical to a
// Workers==1 serial run.  The first error (including context
// cancellation) aborts the remaining work — unless partial is set, in
// which case dispatch failures are recorded per shard (emitted to sink
// with Err set) and the rest of the suite runs to completion; only
// context cancellation still aborts.
func runSuite[T shardValue](ctx context.Context, e *Engine, suite SuiteRequest, dispatch func(context.Context, Request) (T, string, error), sink func(Shard[T]), partial bool) ([]T, []ShardError, error) {
	if err := suite.Validate(); err != nil {
		return nil, nil, err
	}
	reqs := suite.Requests()
	shards, err := e.shardByKey(reqs)
	if err != nil {
		return nil, nil, err
	}
	results := make([]T, len(reqs))
	// shardErrs[i] is shard i's dispatch error in partial mode; each
	// shard is owned by exactly one worker, so the slots race-free.
	shardErrs := make([]error, len(shards))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.workers
	if workers > len(shards) {
		workers = len(shards)
	}
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		emitMu   sync.Mutex // serializes sink calls across workers
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				positions := shards[i]
				res, source, err := dispatch(ctx, reqs[positions[0]])
				if err != nil {
					// In partial mode only cancellation of the run
					// itself is fatal; a per-shard dispatch failure is
					// recorded and the pool keeps draining.
					if !partial || ctx.Err() != nil {
						fail(err)
						return
					}
					shardErrs[i] = err
					if sink != nil {
						emitMu.Lock()
						sink(Shard[T]{
							Positions: positions,
							Benchmark: reqs[positions[0]].Benchmark,
							Err:       err.Error(),
						})
						emitMu.Unlock()
					}
					continue
				}
				for _, p := range positions {
					results[p] = res
				}
				if sink != nil {
					emitMu.Lock()
					sink(Shard[T]{
						Positions: positions,
						Benchmark: reqs[positions[0]].Benchmark,
						Source:    source,
						Result:    res,
					})
					emitMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := 0; i < len(shards); i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var shardErrors []ShardError
	if partial {
		failed := 0
		for si, derr := range shardErrs {
			if derr == nil {
				continue
			}
			failed++
			positions := shards[si]
			shardErrors = append(shardErrors, ShardError{
				Positions: positions,
				Benchmark: reqs[positions[0]].Benchmark,
				Err:       derr.Error(),
			})
		}
		if failed == len(shards) && len(shards) > 0 {
			// Every shard failed: there is nothing to degrade to.
			return nil, nil, fmt.Errorf("frontendsim: all %d suite shards failed: %w", len(shards), shardErrs[0])
		}
	}
	return results, shardErrors, nil
}
