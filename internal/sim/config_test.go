package sim

import (
	"strings"
	"testing"
)

// TestConfigValidate: every configuration field an engine needs in range is
// checked, and an invalid configuration fails Reset, Run and the per-PC
// interpreter with an error naming the field instead of running silently to
// the watchdog (with no integer unit the in-order engine issues nothing and
// the fast-forward probe never jumps, so at the default MaxCycles that was a
// hang).
func TestConfigValidate(t *testing.T) {
	dp := Predecode(mustLink(t, chaseProgram(50, false)))
	for _, base := range []Config{testInOrder(), testOOO()} {
		if err := base.Validate(); err != nil {
			t.Fatalf("%v default: %v", base.Model, err)
		}
	}
	for _, tc := range []struct {
		field string
		ooo   bool
		set   func(*Config)
	}{
		{"IssueWidth", false, func(c *Config) { c.IssueWidth = 0 }},
		{"IntUnits", false, func(c *Config) { c.IntUnits = 0 }},
		{"FPUnits", false, func(c *Config) { c.FPUnits = 0 }},
		{"BrUnits", false, func(c *Config) { c.BrUnits = 0 }},
		{"MemPorts", false, func(c *Config) { c.MemPorts = 0 }},
		{"Contexts", false, func(c *Config) { c.Contexts = 0 }},
		{"Contexts", false, func(c *Config) { c.Contexts = 65 }},
		{"FillBufferEntries", false, func(c *Config) { c.Mem.FillBufferEntries = 0 }},
		{"FillBufferEntries", false, func(c *Config) { c.Mem.FillBufferEntries = 65 }},
		{"ROBSize", true, func(c *Config) { c.ROBSize = 0 }},
		{"RSSize", true, func(c *Config) { c.RSSize = 0 }},
		{"RetireWidth", true, func(c *Config) { c.RetireWidth = 0 }},
	} {
		cfg := testInOrder()
		if tc.ooo {
			cfg = testOOO()
		}
		cfg.MaxCycles = 2_000_000
		tc.set(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an error naming the field", tc.field, err)
			continue
		}
		m := NewPredecoded(cfg, dp)
		if res, runErr := m.Run(); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: fresh machine Run = %+v, %v; want %v", tc.field, res, runErr, err)
		}
		// The per-PC interpreter runs on a machine too, so it reports the
		// same error instead of indexing contexts Reset never built.
		if _, interpErr := InterpretStepwise(cfg, dp, 1_000_000); interpErr == nil || interpErr.Error() != err.Error() {
			t.Errorf("%s: InterpretStepwise = %v, want %v", tc.field, interpErr, err)
		}
		// A machine Reset onto the bad config reports it from both Reset
		// and Run, and a valid Reset makes it usable again.
		m = NewPredecoded(testInOrder(), dp)
		if resetErr := m.Reset(cfg, dp); resetErr == nil || resetErr.Error() != err.Error() {
			t.Errorf("%s: Reset = %v, want %v", tc.field, resetErr, err)
		}
		if _, runErr := m.Run(); runErr == nil {
			t.Errorf("%s: Run after a failed Reset succeeded", tc.field)
		}
		if resetErr := m.Reset(testInOrder(), dp); resetErr != nil {
			t.Fatalf("%s: valid Reset: %v", tc.field, resetErr)
		}
		if res, runErr := m.Run(); runErr != nil || res.TimedOut {
			t.Errorf("%s: run after a valid Reset: %v (timed out %v)", tc.field, runErr, res != nil && res.TimedOut)
		}
	}
	// The edges of every range are valid.
	cfg := testInOrder()
	cfg.Contexts, cfg.Mem.FillBufferEntries = 64, 64
	if err := cfg.Validate(); err != nil {
		t.Errorf("upper edges: %v", err)
	}
	cfg.Contexts, cfg.Mem.FillBufferEntries = 1, 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("lower edges: %v", err)
	}
}
