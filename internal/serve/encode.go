package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The cache-hit path writes its JSON by appending, with no reflection: the
// job key's canonical bytes and the plain reply. Each append reproduces
// encoding/json byte for byte, and declines (ok false) whatever it does not
// reproduce — a string that encoding/json would escape, a float it would
// print in exponent form — so its caller falls back to encoding/json.

// appendString appends s as a JSON string when no byte of it needs escaping
// (printable ASCII other than '"', '\\' and the HTML-escaped '<', '>', '&').
func appendString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// appendFloat appends f as encoding/json does, unless encoding/json would
// print it in exponent form or refuse it.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if a := math.Abs(f); math.IsNaN(f) || a != 0 && (a < 1e-6 || a >= 1e21) {
		return b, false
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), true
}

// appendResult appends r's JSON encoding.
func appendResult(b []byte, r *JobResult) []byte {
	b = append(b, `{"Cycles":`...)
	b = strconv.AppendInt(b, r.Cycles, 10)
	b = append(b, `,"Breakdown":[`...)
	for i, n := range r.Breakdown {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	b = append(b, `],"MainInstrs":`...)
	b = strconv.AppendInt(b, r.MainInstrs, 10)
	b = append(b, `,"SpecInstrs":`...)
	b = strconv.AppendInt(b, r.SpecInstrs, 10)
	b = append(b, `,"Spawns":`...)
	b = strconv.AppendInt(b, r.Spawns, 10)
	b = append(b, `,"ChkTaken":`...)
	b = strconv.AppendInt(b, r.ChkTaken, 10)
	b = append(b, `,"Mispredicts":`...)
	b = strconv.AppendInt(b, r.Mispredicts, 10)
	b = append(b, `,"MemAccesses":`...)
	b = strconv.AppendUint(b, r.MemAccesses, 10)
	b = append(b, `,"MemL1Hits":`...)
	b = strconv.AppendUint(b, r.MemL1Hits, 10)
	b = append(b, `,"MissCycles":`...)
	b = strconv.AppendUint(b, r.MissCycles, 10)
	b = append(b, `,"TLBMisses":`...)
	b = strconv.AppendUint(b, r.TLBMisses, 10)
	if r.Slices != 0 {
		b = append(b, `,"Slices":`...)
		b = strconv.AppendInt(b, int64(r.Slices), 10)
	}
	return append(b, '}')
}

// appendReply appends the JSON encoding of a plain job's reply, exactly what
// json.Marshal returns for JobResponse{Key: key, Cached: cached, WallMS:
// wallMS, Result: res}. A key or wall time the direct path declines goes
// through encoding/json, on a copy of res so that res never escapes.
func appendReply(b []byte, key string, cached bool, wallMS float64, res *JobResult) ([]byte, error) {
	n := len(b)
	b, ok := appendString(append(b, `{"key":`...), key)
	if ok {
		b = strconv.AppendBool(append(b, `,"cached":`...), cached)
		b, ok = appendFloat(append(b, `,"wall_ms":`...), wallMS)
	}
	if ok {
		return append(appendResult(append(b, `,"result":`...), res), '}'), nil
	}
	r := *res
	data, err := json.Marshal(JobResponse{Key: key, Cached: cached, WallMS: wallMS, Result: &r})
	return append(b[:n], data...), err
}

// bufPool recycles the buffers plain replies are appended into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is the Content-Type of JSON replies, shared so that
// setting it allocates nothing; net/http only reads header values.
var jsonContentType = []string{"application/json"}

// writeReply writes a plain job's reply, byte for byte what
// json.NewEncoder(w).Encode writes for its JobResponse.
func writeReply(w http.ResponseWriter, key string, cached bool, wallMS float64, res *JobResult) {
	w.Header()["Content-Type"] = jsonContentType
	bp := bufPool.Get().(*[]byte)
	b, err := appendReply((*bp)[:0], key, cached, wallMS, res)
	if err == nil {
		w.Write(append(b, '\n'))
	}
	*bp = b
	bufPool.Put(bp)
}
