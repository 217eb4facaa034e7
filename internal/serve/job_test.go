package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ssp"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/job_keys.json from the current job.key")

// kc is a named job whose content key testdata/job_keys.json pins.
type kc struct {
	name string
	spec JobSpec
}

// keyCases are the pinned jobs: the 48 test-scale matrix cells, two
// paper-scale cells, an ssp job with partial options and the same job with a
// timeout (which the key excludes), a source job, and a tune job.
func keyCases() []kc {
	var cases []kc
	for _, b := range exp.Benchmarks() {
		for _, model := range []string{"in-order", "ooo"} {
			for _, v := range []string{"base", "ssp"} {
				cases = append(cases, kc{b + "/" + model + "/" + v, JobSpec{Bench: b, Model: model, Variant: v}})
			}
		}
	}
	partial := json.RawMessage(`{"ChainUnroll": 2, "MaxSliceSize": 32}`)
	return append(cases,
		kc{"paper/mcf/in-order/base", JobSpec{Bench: "mcf", Model: "in-order", Scale: "paper"}},
		kc{"paper/vpr/ooo/ssp", JobSpec{Bench: "vpr", Model: "ooo", Variant: "ssp", Scale: "paper"}},
		kc{"options/mcf/ooo", JobSpec{Bench: "mcf", Model: "ooo", Variant: "ssp", Options: partial}},
		kc{"options/mcf/ooo/timeout", JobSpec{Bench: "mcf", Model: "ooo", Variant: "ssp", Options: partial, TimeoutMS: 5000}},
		kc{"source/in-order/ssp", JobSpec{Source: "program entry=main\n\nfunc main formals=0 {\nloop:\n\tbr loop\n}\n", Model: "io", Variant: "ssp"}},
		kc{"tune/mcf/ooo", JobSpec{Bench: "mcf", Model: "ooo", Tune: &TuneSpec{Rounds: 2, Grid: "quick"}}},
	)
}

// TestJobKeysPinned: job.key reproduces every pinned content key byte for
// byte. Keys are visible to clients and name cached work, so a change to how
// they are built must not move one (regenerate with -update only when a key
// is meant to change).
func TestJobKeysPinned(t *testing.T) {
	path := filepath.Join("testdata", "job_keys.json")
	got := make(map[string]string)
	for _, c := range keyCases() {
		j, err := c.spec.normalize(time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = j.key()
	}
	if *updateKeys {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned keys, %d cases", len(want), len(got))
	}
	for name, k := range got {
		if want[name] != k {
			t.Errorf("%s: key %s, pinned %q", name, k, want[name])
		}
	}
	if got["options/mcf/ooo"] != got["options/mcf/ooo/timeout"] {
		t.Error("timeout_ms changed the key")
	}
}

// randomResult sets every field of a JobResult, array elements included, to
// a random value through reflection, so a field added to the struct but not
// to the reply encoder changes json's bytes and not the encoder's.
func randomResult(t *testing.T, rng *rand.Rand) JobResult {
	var r JobResult
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(rng.Int63() - rng.Int63())
		case reflect.Uint64:
			v.SetUint(rng.Uint64())
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i))
			}
		default:
			t.Fatalf("JobResult has a %s field the test cannot set", v.Kind())
		}
	}
	rv := reflect.ValueOf(&r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		set(rv.Field(i))
	}
	return r
}

// TestReplyMatchesEncodingJSON: a plain reply, and the data line of the SSE
// result event, are byte for byte what encoding/json writes for the same
// JobResponse: over random results with and without slices, wall times at
// and past the edges of encoding/json's exponent form, both cached values,
// and a key that needs escaping.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	walls := []float64{0, 1e-7, 1e-6, 0.5, 0.0123456789, 1e20, 1e21, 3e21}
	keys := []string{
		(job{Bench: "mcf", Variant: varBase, Options: ssp.DefaultOptions()}).key(),
		"<a&b>\"\\\u2028\x01é",
	}
	for i := 0; i < 200; i++ {
		res := randomResult(t, rng)
		if i%2 == 0 {
			res.Slices = 0
		}
		wall := rng.Float64() * 100
		if i < len(walls) {
			wall = walls[i]
		}
		key, cached := keys[i%len(keys)], i%3 == 0
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(JobResponse{Key: key, Cached: cached, WallMS: wall, Result: &res}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeReply(rec, key, cached, wall, &res)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("reply %d:\n got %s\nwant %s", i, rec.Body.Bytes(), want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("reply content type %q", ct)
		}
		rec = httptest.NewRecorder()
		sse, err := newSSE(rec)
		if err != nil {
			t.Fatal(err)
		}
		sse.result(key, cached, wall, &res)
		if got, w := rec.Body.String(), "event: result\ndata: "+strings.TrimSuffix(want.String(), "\n")+"\n\n"; got != w {
			t.Fatalf("result event %d:\n got %q\nwant %q", i, got, w)
		}
	}
}
