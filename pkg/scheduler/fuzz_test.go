package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/frontendsim"
)

// fuzzBodyLimit is the body cap of the decoder fuzz servers: small, so
// the 413 path is reachable.
const fuzzBodyLimit = 2048

// requestVerdict is the status a body must get on a request whose
// context is already cancelled: 413 over the body cap, 400 when it does
// not decode (strictly, one value) or validate, and 499 — the run
// cancelled before it started — when it is a valid request.
func requestVerdict(body []byte, suite bool) int {
	r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), fuzzBodyLimit)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var err error
	if suite {
		var s frontendsim.SuiteRequest
		if err = dec.Decode(&s); err == nil {
			err = s.Validate()
		}
	} else {
		var req frontendsim.Request
		if err = dec.Decode(&req); err == nil {
			err = req.Validate()
		}
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case err != nil:
		return http.StatusBadRequest
	}
	return 499
}

// FuzzRequestDecoders: POST /v1/simulations and /v1/suites answer any
// body with 400 or 413 — never a 5xx or a panic — and a valid body
// with the run's own outcome (here 499: the request context is
// cancelled before the dispatch, and the only backend never answers, so
// every dispatch ends in that cancellation).
func FuzzRequestDecoders(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"gzip"}`,
		`{"benchmark":"gzip","frontends":3}`,
		`{"benchmark":"nope"}`,
		`{"benchmark":"gzip","bank_hopping":true,"blank_silicon":true}`,
		`{"benchmarks":["gzip","mcf"],"request":{"frontends":2}}`,
		`{"benchmarks":[]}`,
		`{"benchmark":"gzip","config":{"Clusters":0}}`,
		`{"benchmark":"gzip"}trailing`,
		`[`,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	f.Cleanup(backend.Close)
	sched, err := New(frontendsim.New(), Config{Backends: []string{backend.URL}, Retries: -1})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(sched, WithMaxBodyBytes(fuzzBodyLimit))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, suite bool, body []byte) {
		path := "/v1/simulations"
		if suite {
			path = "/v1/suites"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(cancelled)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if want := requestVerdict(body, suite); w.Code != want {
			t.Fatalf("POST %s %q = %d, want %d (%s)", path, body, w.Code, want, w.Body.String())
		}
	})
}
