package frontendsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Stored is one Result in the form results travel in through the
// serving plane: its stored bytes, the newline-terminated
// json.Marshal(Result) that the response stores hold and POST
// /v1/simulations serves.  ParseStored checks the bytes once, where they
// enter a process (a store read or a network hop), and decodes only the
// fields a suite aggregate folds; suite responses then splice the bytes
// instead of decoding and re-encoding every result.  Decode yields the
// full Result when a caller needs one.
type Stored struct {
	body []byte // newline-terminated
	sum  summary
}

// summary is the part of a Result that aggregate folds.  Its JSON tags
// are Result's, so decoding a stored body into it reads the same values
// a full decode would.
type summary struct {
	Benchmark  string                    `json:"benchmark"`
	IPC        float64                   `json:"ipc"`
	TCHitRate  float64                   `json:"tc_hit_rate"`
	MeasCycles uint64                    `json:"meas_cycles"`
	MeasOps    uint64                    `json:"meas_ops"`
	TCHops     uint64                    `json:"tc_hops"`
	Units      map[string]metrics.Triple `json:"units"`
}

// fields returns the values aggregate folds; false for a nil Result (a
// failed position of a partial run).
func (r *Result) fields() (summary, bool) {
	if r == nil {
		return summary{}, false
	}
	return summary{
		Benchmark:  r.Benchmark,
		IPC:        r.IPC,
		TCHitRate:  r.TCHitRate,
		MeasCycles: r.MeasCycles,
		MeasOps:    r.MeasOps,
		TCHops:     r.TCHops,
		Units:      r.Units,
	}, true
}

// fields implements shardValue.
func (s *Stored) fields() (summary, bool) {
	if s == nil {
		return summary{}, false
	}
	return s.sum, true
}

// ParseStored checks a stored result body and decodes the fields a suite
// aggregate folds.  The body must be one JSON object on one line, with
// nothing around it but the trailing newline: a raw newline anywhere
// else would break the NDJSON framing of the stream endpoints once
// spliced.  A missing trailing newline is added
// (the body is then copied); otherwise Stored keeps body, which the
// caller must not modify afterwards.
//
// ParseStored does not prove the body canonical — that it re-encodes to
// itself — which a full decode and re-encode would cost.  Canonical
// bytes are a store invariant instead: every writer stores
// json.Marshal(Result), and the operator's PUT /v1/store/entries checks
// CheckCanonical.
func ParseStored(body []byte) (*Stored, error) {
	line := bytes.TrimSuffix(body, []byte("\n"))
	if len(line) == 0 || line[0] != '{' || line[len(line)-1] != '}' {
		return nil, errors.New("frontendsim: stored result is not a JSON object")
	}
	if bytes.IndexByte(line, '\n') >= 0 {
		return nil, errors.New("frontendsim: stored result spans more than one line")
	}
	st := &Stored{body: body}
	if len(line) == len(body) {
		st.body = append(line[:len(line):len(line)], '\n')
	}
	if err := json.Unmarshal(line, &st.sum); err != nil {
		return nil, fmt.Errorf("frontendsim: stored result: %w", err)
	}
	return st, nil
}

// EncodeStored renders a Result in its stored form.
func EncodeStored(r *Result) (*Stored, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("frontendsim: encode result: %w", err)
	}
	sum, _ := r.fields()
	return &Stored{body: append(body, '\n'), sum: sum}, nil
}

// CheckCanonical reports whether body is a Result's canonical stored
// form: it decodes into a Result and re-encodes to exactly the same
// newline-terminated bytes.  It costs a full decode and encode, so it
// guards writes from outside (the operator's reseeding PUT), not reads.
func CheckCanonical(body []byte) error {
	var r Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("frontendsim: stored result: %w", err)
	}
	want, err := json.Marshal(&r)
	if err != nil {
		return fmt.Errorf("frontendsim: encode result: %w", err)
	}
	if len(body) != len(want)+1 || body[len(want)] != '\n' || !bytes.Equal(body[:len(want)], want) {
		return errors.New("frontendsim: stored result is not canonical (want the newline-terminated json.Marshal of a Result)")
	}
	return nil
}

// Bytes returns the stored form: newline-terminated JSON.  The slice is
// shared; don't modify it.
func (s *Stored) Bytes() []byte { return s.body }

// json returns the stored JSON without its trailing newline.
func (s *Stored) json() []byte { return s.body[:len(s.body)-1] }

// Decode decodes the full Result.
func (s *Stored) Decode() (*Result, error) {
	var r Result
	if err := json.Unmarshal(s.body, &r); err != nil {
		return nil, fmt.Errorf("frontendsim: decode stored result: %w", err)
	}
	return &r, nil
}

// MarshalJSON implements json.Marshaler: the stored bytes, verbatim.
func (s *Stored) MarshalJSON() ([]byte, error) { return s.json(), nil }

// StoredSuite is a suite outcome whose results stay in stored form: the
// shape of SuiteResult, rendered by AppendJSON splicing each result's
// bytes (json.Marshal yields the same bytes, at the cost of re-scanning
// them).
type StoredSuite struct {
	Results   []*Stored      `json:"results"`
	Errors    []ShardError   `json:"errors,omitempty"`
	Aggregate SuiteAggregate `json:"aggregate"`
}

// AppendJSON appends the suite's JSON to dst: byte-identical to
// json.Marshal of the SuiteResult its results decode to, with only the
// errors and the aggregate marshalled.
func (s *StoredSuite) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if s.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range s.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			if r == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, r.json()...)
			}
		}
		dst = append(dst, ']')
	}
	if len(s.Errors) > 0 {
		errs, err := json.Marshal(s.Errors)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"errors":`...), errs...)
	}
	agg, err := json.Marshal(s.Aggregate)
	if err != nil {
		return dst, fmt.Errorf("frontendsim: encode suite aggregate: %w", err)
	}
	dst = append(append(dst, `,"aggregate":`...), agg...)
	return append(dst, '}'), nil
}

// appendShardLine appends a shard's NDJSON line of the suite stream
// endpoints — {"type":"shard"} with the result spliced in, or
// {"type":"shard-error"} — byte-identical to encoding the
// SuiteStreamLine it stands for.
func appendShardLine(dst []byte, sh StoredShard) []byte {
	line := SuiteStreamLine{
		Type:      "shard",
		Positions: sh.Positions,
		Benchmark: sh.Benchmark,
		Source:    sh.Source,
	}
	if sh.Err != "" {
		line = SuiteStreamLine{Type: "shard-error", Positions: sh.Positions, Benchmark: sh.Benchmark, Error: sh.Err}
	}
	head, _ := json.Marshal(line) // strings and ints always encode
	if sh.Err == "" && sh.Result != nil {
		// "result" follows "source" in SuiteStreamLine, and no later
		// field is set on a shard line: splice it before the brace.
		head = append(append(head[:len(head)-1], `,"result":`...), sh.Result.json()...)
		head = append(head, '}')
	}
	return append(append(dst, head...), '\n')
}

// appendAggregateLine appends the terminal {"type":"aggregate"} line of
// the suite stream endpoints.
func appendAggregateLine(dst []byte, suite *StoredSuite) ([]byte, error) {
	dst = append(dst, `{"type":"aggregate","suite":`...)
	dst, err := suite.AppendJSON(dst)
	return append(dst, '}', '\n'), err
}

// WriteSuiteStream writes a suite run as the NDJSON body of the POST
// /v1/suites/stream endpoints: run executes the suite, and every shard
// it hands the sink is written (and flushed, when flush is non-nil) the
// moment it lands; then the terminal aggregate line, or an error line
// when the run fails.  It flushes once before the run starts: the first
// shard may be arbitrarily slow, and a client must be able to observe
// (and abandon) the committed stream before any line arrives.
func WriteSuiteStream(w io.Writer, flush func(), run func(StoredSink) (*StoredSuite, error)) {
	if flush == nil {
		flush = func() {}
	}
	flush()
	write := func(line []byte) {
		w.Write(line)
		flush()
	}
	var buf []byte // sink calls are serialized, so one buffer serves
	res, err := run(func(sh StoredShard) {
		buf = appendShardLine(buf[:0], sh)
		write(buf)
	})
	if err == nil {
		buf, err = appendAggregateLine(buf[:0], res)
	}
	if err != nil {
		buf, _ = json.Marshal(SuiteStreamLine{Type: "error", Error: err.Error()})
		buf = append(buf, '\n')
	}
	write(buf)
}
