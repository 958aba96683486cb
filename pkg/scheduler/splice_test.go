package scheduler

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// spliceOpts are short runs: the differential test below simulates a
// few dozen keys.
func spliceOpts() []frontendsim.Option {
	return []frontendsim.Option{frontendsim.WithWarmupOps(3_000), frontendsim.WithMeasureOps(6_000)}
}

// spliceFleet is one serving path under test: a single-node simd, or a
// scheduler over n simd replicas (sched set).
type spliceFleet struct {
	name  string
	url   string
	sched *Scheduler
}

// newSpliceFleet starts the path's servers in partial-results mode.
// Every replica's store holds a pretty-printed, multi-line entry under
// each poisoned key — the kind of body the stored-bytes parse refuses —
// so those shards fail on every backend and come back as per-shard
// errors.
func newSpliceFleet(t *testing.T, replicas int, poison []string) spliceFleet {
	t.Helper()
	eng := frontendsim.New(spliceOpts()...)
	junk, _ := json.MarshalIndent(&frontendsim.Result{Benchmark: "poisoned"}, "", "  ")
	backend := func() *httptest.Server {
		store := resultstore.NewMemory(256)
		for _, key := range poison {
			store.Set(context.Background(), key, append(junk, '\n'))
		}
		srv := httptest.NewServer(simd.NewServerWithStore(frontendsim.New(spliceOpts()...), store, simd.WithPartialResults()))
		t.Cleanup(func() { srv.Close(); store.Close() })
		return srv
	}
	if replicas == 0 {
		return spliceFleet{name: "simd", url: backend().URL}
	}
	var nodes []string
	for i := 0; i < replicas; i++ {
		nodes = append(nodes, backend().URL)
	}
	sched, err := New(eng, Config{Backends: nodes, Cache: resultstore.NewMemory(256), PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sched))
	t.Cleanup(srv.Close)
	return spliceFleet{name: fmt.Sprintf("scheduler/%d", replicas), url: srv.URL, sched: sched}
}

// postBody posts body to url and returns the status and response body.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestSuiteSpliceDifferential drives seeded random suites — duplicate
// benchmarks, two request templates, poisoned shards that fail as
// partial-results errors — through single-node simd and the scheduler
// over 1-3 replicas, repeated so later suites splice cache hits.  For
// every path it checks that the spliced /v1/suites body is the
// json.Marshal of its decoded SuiteResult plus a newline, that the
// stream's aggregate line carries exactly that body, that the body
// matches a serial Engine run (error texts aside), and, on the
// scheduler, that RunSuite's JSON equals the body.
func TestSuiteSpliceDifferential(t *testing.T) {
	ctx := context.Background()
	ref := frontendsim.New(append(spliceOpts(), frontendsim.WithWorkers(1))...)
	pool := []string{"gzip", "mcf", "swim", "gcc", "art"}
	templates := []frontendsim.Request{{}, {BankHopping: true}}
	poisoned := map[string]bool{}
	var poison []string
	for _, tmpl := range templates {
		tmpl.Benchmark = "art"
		key, err := ref.RequestKey(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		poisoned[key] = true
		poison = append(poison, key)
	}
	memo := map[string]*frontendsim.Result{}
	errPoisoned := errors.New("poisoned")
	serial := func(ctx context.Context, req frontendsim.Request) (*frontendsim.Result, string, error) {
		key, err := ref.RequestKey(req)
		if err != nil {
			return nil, "", err
		}
		if poisoned[key] {
			return nil, "", errPoisoned
		}
		if memo[key] == nil {
			if memo[key], err = ref.Run(ctx, req); err != nil {
				return nil, "", err
			}
		}
		return memo[key], "", nil
	}

	fleets := []spliceFleet{newSpliceFleet(t, 0, poison)}
	for n := 1; n <= 3; n++ {
		fleets = append(fleets, newSpliceFleet(t, n, poison))
	}
	rng := rand.New(rand.NewPCG(20261017, 1))
	for trial := 0; trial < 12; trial++ {
		suite := frontendsim.SuiteRequest{
			Benchmarks: make([]string, 1+rng.IntN(6)),
			Request:    templates[rng.IntN(len(templates))],
		}
		for i := range suite.Benchmarks {
			suite.Benchmarks[i] = pool[rng.IntN(len(pool))]
		}
		reqBody, _ := json.Marshal(suite)
		want, wantErr := ref.RunSuitePartial(ctx, suite, serial, nil)
		for _, fl := range fleets {
			where := fmt.Sprintf("trial %d %v on %s", trial, suite.Benchmarks, fl.name)
			status, body := postBody(t, fl.url+"/v1/suites", string(reqBody))
			_, stream := postBody(t, fl.url+"/v1/suites/stream", string(reqBody))
			last := lastLine(t, stream)
			if wantErr != nil {
				if status == http.StatusOK || last.Type != "error" {
					t.Fatalf("%s: every shard failed, yet status %d and final line %q", where, status, last.Type)
				}
				continue
			}
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", where, status, body)
			}
			var got frontendsim.SuiteResult
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if again, _ := json.Marshal(&got); !bytes.Equal(append(again, '\n'), body) {
				t.Fatalf("%s: spliced body is not json.Marshal of its SuiteResult:\n%s\n%s", where, body, again)
			}
			if last.Type != "aggregate" || !bytes.Equal(append([]byte(last.Suite), '\n'), body) {
				t.Fatalf("%s: stream aggregate %q does not carry the blocking body", where, last.Type)
			}
			// Against the serial run: the same bytes once the error
			// texts (which name backends on the scheduler) agree.
			if len(got.Errors) != len(want.Errors) {
				t.Fatalf("%s: %d shard errors, serial run has %d", where, len(got.Errors), len(want.Errors))
			}
			expect := *want
			expect.Errors = append([]frontendsim.ShardError(nil), want.Errors...)
			for i := range expect.Errors {
				if g := got.Errors[i]; g.Benchmark != expect.Errors[i].Benchmark || fmt.Sprint(g.Positions) != fmt.Sprint(expect.Errors[i].Positions) {
					t.Fatalf("%s: shard error %d is %+v, serial run has %+v", where, i, g, expect.Errors[i])
				}
				expect.Errors[i].Err = got.Errors[i].Err
			}
			if wantJSON, _ := json.Marshal(&expect); !bytes.Equal(append(wantJSON, '\n'), body) {
				t.Fatalf("%s: body differs from the serial Engine run", where)
			}
			if fl.sched != nil {
				res, err := fl.sched.RunSuite(ctx, suite)
				if err != nil {
					t.Fatal(err)
				}
				if viaAPI, _ := json.Marshal(res); !bytes.Equal(append(viaAPI, '\n'), body) {
					t.Fatalf("%s: Scheduler.RunSuite JSON differs from the served body", where)
				}
			}
		}
	}
}

// streamTail is the last NDJSON line of a suite stream, its suite kept
// as raw bytes.
type streamTail struct {
	Type  string          `json:"type"`
	Suite json.RawMessage `json:"suite"`
}

func lastLine(t *testing.T, stream []byte) streamTail {
	t.Helper()
	var last streamTail
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last
}
