package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunInProcess drives the load harness end to end against its own
// in-process server: every result must validate against the golden baseline
// and the memoization hit rate must clear the acceptance bar (run returns an
// error otherwise). 144 jobs = 3 laps over the 48-cell matrix, so 2/3 of the
// requests are guaranteed cache hits.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 144 jobs over the full benchmark matrix")
	}
	o := options{
		Jobs:     144,
		Conc:     8,
		SSEEvery: 10,
		Golden:   filepath.Join("..", "..", "internal", "exp", "testdata", "golden_stats.json"),
		Out:      filepath.Join(t.TempDir(), "serve.json"),
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsEmptyRuns: no jobs or no clients is a usage error, so
// main exits 2 before a server starts. With -conc 0 nothing drains the job
// queue and the run would block forever.
func TestValidateRejectsEmptyRuns(t *testing.T) {
	for _, o := range []options{{Jobs: 0, Conc: 4}, {Jobs: 4, Conc: 0}, {Jobs: -1, Conc: -1}} {
		if err := o.validate(); err == nil {
			t.Errorf("jobs %d conc %d: accepted", o.Jobs, o.Conc)
		}
	}
	if err := (options{Jobs: 1, Conc: 1}).validate(); err != nil {
		t.Errorf("one job on one client: %v", err)
	}
}

// TestRunReportsMarshalError: a report that JSON cannot encode (the 0/0
// hit rate of a run with no jobs) is an error, not an empty line and exit 0.
func TestRunReportsMarshalError(t *testing.T) {
	err := run(options{Jobs: 0, Conc: 1})
	if err == nil || !strings.Contains(err.Error(), "report") {
		t.Fatalf("run of no jobs: %v", err)
	}
}

// TestQuantileMS pins the quantile helper's edge cases.
func TestQuantileMS(t *testing.T) {
	if got := quantileMS(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v", got)
	}
	sorted := []int64{1, 2, 3, 4}
	var ds []time.Duration
	for _, ms := range sorted {
		ds = append(ds, time.Duration(ms)*time.Millisecond)
	}
	if got := quantileMS(ds, 0.5); got != 2 {
		t.Errorf("p50 of 1..4ms = %v, want 2", got)
	}
	if got := quantileMS(ds, 1); got != 4 {
		t.Errorf("p100 of 1..4ms = %v, want 4", got)
	}
	if got := quantileMS(ds, 0.01); got != 1 {
		t.Errorf("p1 of 1..4ms = %v, want 1 (clamped)", got)
	}
}

// TestWriteReportKeepsRecords: -out replaces the load numbers of an existing
// report and keeps every other key recorded in the file.
func TestWriteReportKeepsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, []byte(`{"jobs": 1, "recorded": {"pairs": [1, 2]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeReport(path, report{Jobs: 144, Evictions: 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Jobs      int             `json:"jobs"`
		Evictions int64           `json:"evictions"`
		Recorded  json.RawMessage `json:"recorded"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Jobs != 144 || got.Evictions != 3 || !strings.Contains(string(got.Recorded), `"pairs"`) {
		t.Errorf("rewritten report:\n%s", data)
	}
}
