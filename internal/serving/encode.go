package serving

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"distjoin"
)

// The append encoder renders the responses that carry pairs — a
// blocking query's and a cursor page's — the way encoding/json's
// Encoder renders their tagged-struct form, byte for byte: the same
// keys in the same order, omitempty where the struct form has it,
// "pairs":[] for an empty answer, floats as encoding/json formats them,
// a trailing newline. It does so without reflection and without
// building the body: numbers are appended with strconv into a pooled
// buffer of jsonChunk bytes, which goes to the writer whenever it
// fills, so a response of any length costs one fixed buffer. Every
// other response (errors, views, closes) goes through encoding/json.
//
// Like encoding/json, the encoder writes nothing for a value it cannot
// render (a NaN or infinite float): it checks the whole response first,
// because a chunk once written cannot be taken back.

// jsonChunk is the size at which the encoder hands its buffer to the
// writer.
const jsonChunk = 32 << 10

// maxPairJSON bounds one rendered pair, the largest item the encoder
// appends between two checks for a full buffer:
// {"left":-9223372036854775808,"right":-9223372036854775808,"dist":-1.7976931348623157e+308}
// is 91 bytes.
const maxPairJSON = 128

// pairsResponse is a response the append encoder renders.
type pairsResponse interface {
	// renderable reports whether encoding/json could render the
	// response; if not, nothing is written.
	renderable() bool
	// appendJSON renders the response through e.
	appendJSON(e *jsonWriter)
}

// jsonWriter is the append encoder's output: a fixed buffer in front of
// the response writer.
type jsonWriter struct {
	w   io.Writer
	buf []byte
	err error // the first write error; later writes are dropped
}

var jsonWriters = sync.Pool{New: func() any {
	return &jsonWriter{buf: make([]byte, 0, jsonChunk+maxPairJSON)}
}}

// writeAppended renders r to w through a pooled jsonWriter.
func writeAppended(w io.Writer, r pairsResponse) error {
	if !r.renderable() {
		return nil
	}
	e := jsonWriters.Get().(*jsonWriter)
	e.w, e.buf, e.err = w, e.buf[:0], nil
	r.appendJSON(e)
	e.flush()
	err := e.err
	e.w = nil
	// A buffer a long string grew past its chunk is not kept.
	if cap(e.buf) <= jsonChunk+maxPairJSON {
		jsonWriters.Put(e)
	}
	return err
}

// flush writes the buffer out and empties it.
func (e *jsonWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// room flushes the buffer unless n more bytes fit in it.
func (e *jsonWriter) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

// raw appends b, which may be longer than a chunk: a b that does not fit
// is written past the buffer.
func (e *jsonWriter) raw(b []byte) {
	if len(e.buf)+len(b) <= cap(e.buf) {
		e.buf = append(e.buf, b...)
		return
	}
	e.flush()
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// key appends `"name":`, preceded by a comma unless it is the object's
// first key.
func (e *jsonWriter) key(name string, first bool) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
}

// pairs appends the "pairs" array: [] when there are none.
func (e *jsonWriter) pairs(ps []distjoin.Pair) {
	e.buf = append(e.buf, '[')
	for i := range ps {
		e.room(maxPairJSON)
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"left":`...)
		e.buf = strconv.AppendInt(e.buf, ps[i].LeftID, 10)
		e.buf = append(e.buf, `,"right":`...)
		e.buf = strconv.AppendInt(e.buf, ps[i].RightID, 10)
		e.buf = append(e.buf, `,"dist":`...)
		e.buf = appendFloat(e.buf, ps[i].Dist)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest representation that round-trips, in 'f' notation, or in 'e'
// notation outside [1e-6, 1e21) with a one-digit negative exponent
// unpadded (1e-7, not 1e-07). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. A string encoding/json
// writes verbatim — printable ASCII other than the quote, the backslash
// and the HTML characters it escapes — is copied; any other is handed
// to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// finite reports whether every distance in ps is a number encoding/json
// renders.
func finite(ps []distjoin.Pair) bool {
	for i := range ps {
		if math.IsNaN(ps[i].Dist) || math.IsInf(ps[i].Dist, 0) {
			return false
		}
	}
	return true
}

func (r *queryResponse) renderable() bool {
	if !finite(r.Pairs) || math.IsNaN(r.Stats.ElapsedMS) || math.IsInf(r.Stats.ElapsedMS, 0) {
		return false
	}
	if r.Explain == nil {
		return true
	}
	var err error
	r.explainBytes, err = json.Marshal(r.Explain)
	return err == nil
}

func (r *queryResponse) appendJSON(e *jsonWriter) {
	e.buf = append(e.buf, '{')
	first := true
	if r.QueryID != "" {
		e.key("query_id", true)
		e.buf = appendString(e.buf, r.QueryID)
		first = false
	}
	e.key("pairs", first)
	e.pairs(r.Pairs)
	e.room(256)
	if r.Truncated {
		e.key("truncated", false)
		e.buf = append(e.buf, "true"...)
	}
	e.key("stats", false)
	e.buf = append(e.buf, '{')
	e.key("elapsed_ms", true)
	e.buf = appendFloat(e.buf, r.Stats.ElapsedMS)
	e.key("dist_calcs", false)
	e.buf = strconv.AppendInt(e.buf, r.Stats.DistCalcs, 10)
	e.key("queue_inserts", false)
	e.buf = strconv.AppendInt(e.buf, r.Stats.QueueInserts, 10)
	e.key("nodes_read", false)
	e.buf = strconv.AppendInt(e.buf, r.Stats.NodesRead, 10)
	e.buf = append(e.buf, '}')
	if r.explainBytes != nil {
		e.key("explain", false)
		e.raw(r.explainBytes)
	}
	e.buf = append(e.buf, '}', '\n')
}

func (r *incrementalResponse) renderable() bool { return finite(r.Pairs) }

func (r *incrementalResponse) appendJSON(e *jsonWriter) {
	e.buf = append(e.buf, '{')
	first := true
	if r.QueryID != "" {
		e.key("query_id", true)
		e.buf = appendString(e.buf, r.QueryID)
		first = false
	}
	if r.Cursor != "" {
		e.key("cursor", first)
		e.buf = appendString(e.buf, r.Cursor)
		first = false
	}
	e.key("pairs", first)
	e.pairs(r.Pairs)
	e.room(128)
	e.key("done", false)
	e.buf = strconv.AppendBool(e.buf, r.Done)
	e.key("returned", false)
	e.buf = strconv.AppendInt(e.buf, r.Returned, 10)
	e.key("deadline_ms", false)
	e.buf = strconv.AppendInt(e.buf, r.DeadlineMS, 10)
	e.buf = append(e.buf, '}', '\n')
}
