package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ssp/internal/exp"
)

// progressInterval is how often a streaming job reports its cycle count.
// Coarse on purpose: progress is for humans and dashboards, and a busy
// server should spend its time simulating, not flushing.
const progressInterval = 50 * time.Millisecond

// wantsSSE reports whether the client asked for a server-sent-event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// sseWriter frames server-sent events over a flushable ResponseWriter.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newSSE(w http.ResponseWriter) (*sseWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("serve: response writer does not support streaming")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w, f}, nil
}

// event writes one named event with a JSON payload and flushes it.
func (s *sseWriter) event(name string, data any) {
	payload, err := json.Marshal(data)
	s.send(name, payload, err)
}

// send writes one named event with an encoded payload, {} if encoding
// failed, and flushes it.
func (s *sseWriter) send(name string, payload []byte, err error) {
	if err != nil {
		payload = []byte(`{}`)
	}
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, payload)
	s.f.Flush()
}

// result writes a job's terminal "result" event: the bytes of its plain
// reply (writeReply), without the newline.
func (s *sseWriter) result(key string, cached bool, wallMS float64, res *JobResult) {
	payload, err := appendReply(nil, key, cached, wallMS, res)
	s.send("result", payload, err)
}

// progressEvent is the payload of "progress" events: simulated cycles so far.
type progressEvent struct {
	Cycles int64 `json:"cycles"`
}

// errorEvent is the payload of "error" events.
type errorEvent struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"` // a source job's run-rule failure
}

// streamJob runs a job while narrating it over SSE: a "queued" event on
// admission, "progress" events with the live cycle count while the
// simulation runs (coalesced requests watch the same counter as the request
// actually running it), then exactly one terminal "result" or "error" event.
// A job whose cell already holds its outcome is answered at once, "queued"
// then the terminal event, with no goroutine, channel or ticker. The HTTP
// status is 200 regardless — errors ride inside the stream, as SSE requires
// once the header is out.
func (s *Server) streamJob(ctx context.Context, w http.ResponseWriter, key string, h exp.Served, j job) {
	sse, err := newSSE(w)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotImplemented)
		return
	}
	sse.event("queued", map[string]string{"key": key})

	start := time.Now()
	if res, ok, err := s.cached(h); ok {
		sse.end(key, j.Source != "", start, &res, true, err)
		return
	}
	type outcome struct {
		res JobResult
		hit bool
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, hit, err := s.runJob(ctx, h, j.timeout)
		done <- outcome{res, hit, err}
	}()

	tick := time.NewTicker(progressInterval)
	defer tick.Stop()
	var last int64 = -1
	for {
		select {
		case o := <-done:
			sse.end(key, j.Source != "", start, &o.res, o.hit, o.err)
			return
		case <-tick.C:
			if c := h.Cycles(); c != last {
				last = c
				sse.event("progress", progressEvent{Cycles: c})
			}
		}
	}
}

// end writes a job's terminal event: its "result", or an "error" with the
// status a plain reply would have, 422 and the reason for a source job's
// run-rule failure.
func (s *sseWriter) end(key string, source bool, start time.Time, res *JobResult, hit bool, err error) {
	if err != nil {
		ev := errorEvent{Status: statusOf(err), Error: err.Error()}
		if re := runFailure(err, source); re != nil {
			ev.Status, ev.Reason = http.StatusUnprocessableEntity, re.Reason
		}
		s.event("error", ev)
		return
	}
	s.result(key, hit, sinceMS(start), res)
}
