package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// rawJob posts a job and returns the status and the raw body: the plain
// reply, or with sse set the stream's events in order with their data.
func rawJob(t *testing.T, ts *httptest.Server, spec JobSpec, sse bool) (int, []byte, [][2]string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !sse {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw, nil
	}
	var events [][2]string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, [2]string{ev, ""})
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && len(events) > 0 {
			events[len(events)-1][1] = data
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nil, events
}

// wallMS matches a reply's wall_ms field, the one part of two replies to
// the same job that differs between requests.
var wallMS = regexp.MustCompile(`"wall_ms":[0-9.e+-]+`)

// TestSSECacheHit: a streamed job whose cell already holds its result is
// answered with "queued" then "result" and no "progress" event, and the
// result's data is the plain reply's bytes (wall_ms aside, without the
// newline).
func TestSSECacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{Bench: "mcf", Model: "in-order", Variant: "ssp"}
	if code, _, _ := rawJob(t, ts, spec, false); code != http.StatusOK {
		t.Fatalf("warming job: HTTP %d", code)
	}
	code, plain, _ := rawJob(t, ts, spec, false)
	if code != http.StatusOK || !bytes.Contains(plain, []byte(`"cached":true`)) {
		t.Fatalf("plain hit: HTTP %d: %s", code, plain)
	}
	code, _, events := rawJob(t, ts, spec, true)
	if code != http.StatusOK || len(events) != 2 || events[0][0] != "queued" || events[1][0] != "result" {
		t.Fatalf("streamed hit: HTTP %d, events %v, want queued then result", code, events)
	}
	got := wallMS.ReplaceAllString(events[1][1], `"wall_ms":0`)
	want := wallMS.ReplaceAllString(string(bytes.TrimSuffix(plain, []byte("\n"))), `"wall_ms":0`)
	if got != want {
		t.Errorf("streamed hit result differs from the plain reply:\n got %s\nwant %s", got, want)
	}
}

// TestPCRangeSourceFails: a source program whose main thread's control
// leaves the image is the client's fault, like a main-thread kill: a 422
// whose body names reason pc-range, and over SSE an error event with the
// same status and reason, on both engines.
func TestPCRangeSourceFails(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, name := range []string{"pcrange_ret.ssp", "pcrange_falloff.ssp"} {
		src, err := os.ReadFile(filepath.Join("..", "sim", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"in-order", "ooo"} {
			spec := JobSpec{Source: string(src), Model: model}
			code, body, _ := rawJob(t, ts, spec, false)
			var rf RunFailedResponse
			if code != http.StatusUnprocessableEntity || json.Unmarshal(body, &rf) != nil || rf.Reason != "pc-range" {
				t.Fatalf("%s/%s: HTTP %d (%s), want a 422 with reason pc-range", name, model, code, body)
			}
			_, _, events := rawJob(t, ts, spec, true)
			if len(events) == 0 {
				t.Fatalf("%s/%s: empty SSE stream", name, model)
			}
			last := events[len(events)-1]
			if last[0] != "error" || !strings.Contains(last[1], `"status":422`) || !strings.Contains(last[1], `"reason":"pc-range"`) {
				t.Fatalf("%s/%s: SSE stream ends in %v, want a 422 pc-range error event", name, model, last)
			}
		}
	}
}
