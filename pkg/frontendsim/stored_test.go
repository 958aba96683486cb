package frontendsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// storedRun is one real engine result, computed once for the tests here.
var storedRun = sync.OnceValues(func() (*Result, error) {
	return testEngine().Run(context.Background(), Request{Benchmark: "gzip", BankHopping: true})
})

func realResult(t testing.TB) *Result {
	t.Helper()
	res, err := storedRun()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEncodeStoredIsMarshalPlusNewline(t *testing.T) {
	res := realResult(t)
	st, err := EncodeStored(res)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	if !bytes.Equal(st.Bytes(), append(want, '\n')) {
		t.Fatal("EncodeStored bytes differ from json.Marshal(Result) + newline")
	}
	parsed, err := ParseStored(st.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.sum, st.sum) {
		t.Errorf("parsed summary %+v != encoded summary %+v", parsed.sum, st.sum)
	}
	full, err := parsed.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(full); !bytes.Equal(got, want) {
		t.Error("Decode of the stored bytes does not re-marshal to them")
	}
	if err := CheckCanonical(st.Bytes()); err != nil {
		t.Errorf("CheckCanonical(EncodeStored) = %v", err)
	}
}

// TestSummaryTagsAreResultTags pins that every field the parse decodes
// has the same JSON name and type on Result, so a stored body's summary
// reads exactly what a full decode reads.
func TestSummaryTagsAreResultTags(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	byTag := map[string]reflect.StructField{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		byTag[strings.Split(f.Tag.Get("json"), ",")[0]] = f
	}
	st := reflect.TypeOf(summary{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		tag := f.Tag.Get("json")
		rf, ok := byTag[tag]
		if !ok || rf.Type != f.Type {
			t.Errorf("summary field %s (json %q, %v) has no Result counterpart of the same type", f.Name, tag, f.Type)
		}
	}
}

func TestParseStoredRefuses(t *testing.T) {
	res := realResult(t)
	pretty, _ := json.MarshalIndent(res, "", "  ")
	compact, _ := json.Marshal(res)
	for name, body := range map[string]string{
		"empty":            "",
		"newline only":     "\n",
		"null":             "null\n",
		"array":            "[]\n",
		"string":           `"x"` + "\n",
		"leading space":    " " + string(compact) + "\n",
		"pretty-printed":   string(pretty) + "\n",
		"two lines":        string(compact) + "\n" + string(compact) + "\n",
		"double newline":   string(compact) + "\n\n",
		"truncated":        string(compact[:len(compact)/2]) + "\n",
		"wrong ipc type":   `{"benchmark":"gzip","ipc":"fast"}` + "\n",
		"wrong units":      `{"units":[1,2]}` + "\n",
		"trailing garbage": string(compact) + "x\n",
		"trailing space":   string(compact) + " \n",
	} {
		if _, err := ParseStored([]byte(body)); err == nil {
			t.Errorf("%s: ParseStored accepted %.40q", name, body)
		}
	}
}

func TestParseStoredAddsMissingNewline(t *testing.T) {
	compact, _ := json.Marshal(realResult(t))
	st, err := ParseStored(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Bytes(), append(compact[:len(compact):len(compact)], '\n')) {
		t.Error("Bytes() is not the body plus a newline")
	}
}

func TestCheckCanonicalRefuses(t *testing.T) {
	res := realResult(t)
	compact, _ := json.Marshal(res)
	pretty, _ := json.MarshalIndent(res, "", "  ")
	reordered := bytes.Replace(compact, []byte(`{"benchmark":"gzip",`), []byte(`{`), 1)
	reordered = append(reordered[:len(reordered)-1], []byte(`,"benchmark":"gzip"}`)...)
	for name, body := range map[string][]byte{
		"no newline":     compact,
		"pretty-printed": append(pretty, '\n'),
		"reordered":      append(reordered, '\n'),
		"unknown field":  append(append(compact[:len(compact)-1:len(compact)-1], `,"x":1}`...), '\n'),
		"not json":       []byte("nope\n"),
	} {
		if err := CheckCanonical(body); err == nil {
			t.Errorf("%s: CheckCanonical accepted it", name)
		}
	}
}

// randomResult draws a synthetic Result whose values exercise the JSON
// encoder: floats across magnitudes (exponent and plain forms, negative
// zero), unit names that need HTML escaping, optional DTM fields.
func randomResult(rng *rand.Rand, bench string) *Result {
	f := func() float64 {
		switch rng.IntN(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return rng.NormFloat64() * 1e-9
		case 3:
			return rng.NormFloat64() * 1e25
		}
		return rng.Float64() * 100
	}
	units := map[string]metrics.Triple{}
	for _, name := range []string{UnitProcessor, UnitFrontend, "a<b&c>", "ü "} {
		if rng.IntN(4) > 0 {
			units[name] = metrics.Triple{AbsMax: f(), Average: f(), AvgMax: f()}
		}
	}
	r := &Result{
		Benchmark:  bench,
		IPC:        f(),
		WarmCycles: rng.Uint64(),
		MeasCycles: rng.Uint64N(1 << 40),
		MeasOps:    rng.Uint64N(1 << 40),
		Intervals:  rng.IntN(100),
		TCHitRate:  rng.Float64(),
		TCHops:     rng.Uint64N(1 << 20),
		AmbientC:   f(),
		Units:      units,
		Blocks:     []string{"ROB", "<TC>"},
		AvgPowerW:  []float64{f(), f()},
		NominalW:   []float64{f(), f()},
		PeakRiseC:  []float64{f(), f()},
	}
	if rng.IntN(2) == 0 {
		r.DTMEngagements, r.DTMThrottled, r.DTMMinDuty = rng.Uint64N(9), rng.Uint64N(9), rng.IntN(9)
	}
	return r
}

// TestStoredSuiteSpliceProperty is the differential property of the
// splice over seeded random suites with duplicate benchmarks and, in
// partial mode, failed shards: the stored executor's spliced body equals
// json.Marshal of the decoded executor's SuiteResult, every spliced
// stream line equals the encoded SuiteStreamLine, and the aggregate
// line's suite equals the blocking body.
func TestStoredSuiteSpliceProperty(t *testing.T) {
	names := Benchmarks()
	ctx := context.Background()
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		pool := names[:1+rng.IntN(6)]
		suite := SuiteRequest{Benchmarks: make([]string, 1+rng.IntN(10))}
		for i := range suite.Benchmarks {
			suite.Benchmarks[i] = pool[rng.IntN(len(pool))]
		}
		results := map[string]*Result{}
		for _, b := range pool {
			results[b] = randomResult(rng, b)
		}
		partial := rng.IntN(2) == 0
		failing := map[string]bool{}
		if partial {
			for _, b := range pool {
				failing[b] = rng.IntN(3) == 0
			}
		}
		errFail := errors.New("shard <failed> & gone")
		decoded := func(_ context.Context, req Request) (*Result, string, error) {
			if failing[req.Benchmark] {
				return nil, "", errFail
			}
			return results[req.Benchmark], "HIT", nil
		}
		stored := func(_ context.Context, req Request) (*Stored, string, error) {
			if failing[req.Benchmark] {
				return nil, "", errFail
			}
			st, err := EncodeStored(results[req.Benchmark])
			if err != nil {
				return nil, "", err
			}
			// Enter the stored path the way bytes do: through the parse.
			st, err = ParseStored(st.Bytes())
			return st, "HIT", err
		}
		eng := testEngine(WithWorkers(1 + rng.IntN(4)))

		var want *SuiteResult
		var wantErr error
		if partial {
			want, wantErr = eng.RunSuitePartial(ctx, suite, decoded, nil)
		} else {
			want, wantErr = eng.RunSuiteStream(ctx, suite, decoded, nil)
		}
		var lines bytes.Buffer
		var sinkErr error
		got, gotErr := eng.RunSuiteStored(ctx, suite, stored, func(sh StoredShard) {
			line := appendShardLine(nil, sh)
			wantLine := SuiteStreamLine{Type: "shard", Positions: sh.Positions, Benchmark: sh.Benchmark, Source: sh.Source}
			if sh.Err != "" {
				wantLine = SuiteStreamLine{Type: "shard-error", Positions: sh.Positions, Benchmark: sh.Benchmark, Error: sh.Err}
			} else {
				wantLine.Result = results[sh.Benchmark]
			}
			var enc bytes.Buffer
			json.NewEncoder(&enc).Encode(wantLine)
			if !bytes.Equal(line, enc.Bytes()) && sinkErr == nil {
				sinkErr = fmt.Errorf("shard line %q, want %q", line, enc.Bytes())
			}
			lines.Write(line)
		}, partial)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: decoded run err %v, stored run err %v", seed, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if sinkErr != nil {
			t.Fatalf("seed %d: %v", seed, sinkErr)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		body, err := got.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantJSON) {
			t.Fatalf("seed %d: spliced suite\n%s\nwant\n%s", seed, body, wantJSON)
		}
		if viaMarshal, _ := json.Marshal(got); !bytes.Equal(viaMarshal, wantJSON) {
			t.Fatalf("seed %d: json.Marshal(StoredSuite) differs from the splice", seed)
		}
		aggLine, err := appendAggregateLine(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Type  string          `json:"type"`
			Suite json.RawMessage `json:"suite"`
		}
		if err := json.Unmarshal(aggLine, &line); err != nil || line.Type != "aggregate" || !bytes.Equal(line.Suite, body) {
			t.Fatalf("seed %d: aggregate line %q does not carry the blocking body (%v)", seed, aggLine, err)
		}
		if bytes.Count(lines.Bytes(), []byte("\n")) != bytes.Count(lines.Bytes(), []byte("}\n")) {
			t.Fatalf("seed %d: a stream line is not newline-framed", seed)
		}
	}
}

// TestWriteSuiteStreamErrorLine pins the stream's terminal error line.
func TestWriteSuiteStreamErrorLine(t *testing.T) {
	var out bytes.Buffer
	flushes := 0
	WriteSuiteStream(&out, func() { flushes++ }, func(StoredSink) (*StoredSuite, error) {
		return nil, errors.New("boom")
	})
	if out.String() != `{"type":"error","error":"boom"}`+"\n" || flushes != 2 {
		t.Errorf("stream %q with %d flushes, want one error line and 2 flushes", out.String(), flushes)
	}
}

// FuzzParseStored: any input is either refused, or accepted as a value
// that round-trips — it re-marshals (through json.Marshal and the suite
// splice) to exactly its own bytes, stays one newline-framed line, and
// its summary reads what a full decode reads.  Never a panic.
func FuzzParseStored(f *testing.F) {
	compact, _ := json.Marshal(randomResult(rand.New(rand.NewPCG(1, 2)), "gzip"))
	f.Add(append(compact, '\n'))
	f.Add(compact)
	f.Add([]byte(`{"benchmark":"gzip","ipc":1.5,"units":{"ROB":{"AbsMax":1}}}` + "\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"benchmark":"a<b"}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		in := append([]byte(nil), body...)
		st, err := ParseStored(body)
		if !bytes.Equal(body, in) {
			t.Fatal("ParseStored modified its input")
		}
		if err != nil {
			return
		}
		line := bytes.TrimSuffix(in, []byte("\n"))
		if !bytes.Equal(st.Bytes(), append(line[:len(line):len(line)], '\n')) {
			t.Fatalf("Bytes() = %q, want the input newline-terminated", st.Bytes())
		}
		if bytes.IndexByte(line, '\n') >= 0 || !json.Valid(line) {
			t.Fatalf("accepted a body that is not one JSON line: %q", in)
		}
		suite := &StoredSuite{Results: []*Stored{st, nil, st}}
		spliced, err := suite.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var raw struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(spliced, &raw); err != nil {
			t.Fatalf("spliced suite is not JSON: %v", err)
		}
		if len(raw.Results) != 3 || !bytes.Equal(raw.Results[0], line) || !bytes.Equal(raw.Results[2], line) {
			t.Fatalf("splice did not carry the bytes verbatim: %q", spliced)
		}
		var full Result
		if json.Unmarshal(line, &full) == nil {
			if got, _ := full.fields(); !reflect.DeepEqual(got, st.sum) {
				t.Fatalf("summary %+v, full decode reads %+v", st.sum, got)
			}
			// A canonical body re-marshals to itself, and so does its
			// splice through json.Marshal of the Stored.
			if canon, err := json.Marshal(&full); err == nil && bytes.Equal(canon, line) {
				if again, err := json.Marshal(st); err != nil || !bytes.Equal(again, line) {
					t.Fatalf("canonical body re-marshals to %q (%v)", again, err)
				}
			}
		}
	})
}

// FuzzRequestKey: RequestKey names the request, not its spelling.  Any
// body that decodes (strictly, as the servers decode) into a valid
// Request keeps its key when re-spelled with shuffled field order and
// arbitrary whitespace.
func FuzzRequestKey(f *testing.F) {
	f.Add([]byte(`{"benchmark":"gzip"}`), uint64(1))
	f.Add([]byte(`{"benchmark":"mcf","frontends":2,"bank_hopping":true,"measure_ops":5000}`), uint64(2))
	f.Add([]byte(`{"benchmark":"swim","config":{"Clusters":4},"dtm":true}`), uint64(3))
	eng := testEngine()
	f.Fuzz(func(t *testing.T, body []byte, seed uint64) {
		req, err := decodeStrict(body)
		if err != nil || req.Validate() != nil {
			return
		}
		key, err := eng.RequestKey(req)
		if err != nil {
			t.Fatalf("valid request has no key: %v", err)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var tree any
		dec := json.NewDecoder(bytes.NewReader(canon))
		dec.UseNumber()
		if err := dec.Decode(&tree); err != nil {
			t.Fatal(err)
		}
		var respelled bytes.Buffer
		respell(&respelled, tree, rand.New(rand.NewPCG(seed, 0)))
		again, err := decodeStrict(respelled.Bytes())
		if err != nil {
			t.Fatalf("re-spelled request %q does not decode: %v", respelled.Bytes(), err)
		}
		key2, err := eng.RequestKey(again)
		if err != nil || key2 != key {
			t.Fatalf("key changed with spelling: %s -> %s (%v)\n%s\n%s", key, key2, err, body, respelled.Bytes())
		}
	})
}

// decodeStrict decodes a request the way both servers do.
func decodeStrict(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// respell writes v as JSON with every object's fields shuffled and
// random whitespace between tokens.
func respell(w *bytes.Buffer, v any, rng *rand.Rand) {
	ws := func() { w.WriteString([]string{"", " ", "\n", "\t", "\r\n  "}[rng.IntN(5)]) }
	ws()
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		w.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				w.WriteByte(',')
			}
			ws()
			name, _ := json.Marshal(k)
			w.Write(name)
			ws()
			w.WriteByte(':')
			respell(w, v[k], rng)
		}
		ws()
		w.WriteByte('}')
	case []any:
		w.WriteByte('[')
		for i, e := range v {
			if i > 0 {
				w.WriteByte(',')
			}
			respell(w, e, rng)
		}
		ws()
		w.WriteByte(']')
	default:
		b, _ := json.Marshal(v)
		w.Write(b)
	}
	ws()
}

// BenchmarkParseStored is the per-shard cost of a stored result entering
// a process; BenchmarkDecodeResult is the full decode it replaces on the
// serving path.
func BenchmarkParseStored(b *testing.B) {
	st, err := EncodeStored(realResult(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(st.Bytes())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStored(st.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	st, err := EncodeStored(realResult(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(st.Bytes())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
