package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so an allocation count sees only the handler's own allocations.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// replayBody is a request body that can be rewound to its start.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// hitAllocCeiling is the measured allocation count of one cache hit through
// ServeHTTP: the body decode and the job's normalization, content key and
// run-cell lookup, and the reply.
const hitAllocCeiling = 13

// TestServeHitAllocs: a cache hit on a warm run cell stays within its
// allocation ceiling. The request and its body are reused and the reply is
// discarded, so the count is the handler's alone.
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := New(Config{})
	data := []byte(`{"bench":"mcf","model":"in-order","variant":"ssp"}`)
	body := &replayBody{}
	req := httptest.NewRequest("POST", "/jobs", body)
	w := &discardWriter{h: make(http.Header)}
	hit := func() {
		body.Reset(data)
		w.code, w.n = 0, 0
		s.ServeHTTP(w, req)
	}
	hit() // computes the cell
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d", w.code)
	}
	hits := s.Snapshot().Hits
	allocs := testing.AllocsPerRun(100, hit)
	if w.code != 0 || w.n == 0 || s.Snapshot().Hits != hits+101 {
		t.Fatalf("not a cache hit: status %d, %d body bytes, %d hits", w.code, w.n, s.Snapshot().Hits-hits)
	}
	t.Logf("%v allocs per hit", allocs)
	if allocs > hitAllocCeiling {
		t.Errorf("cache hit: %v allocs, ceiling %d", allocs, hitAllocCeiling)
	}
}
