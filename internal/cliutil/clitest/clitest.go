// Package clitest checks the command-line tools' output against outputs
// pinned under cmd/testdata.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Dir holds the pinned outputs and the input files they were recorded
// from, relative to a command's package directory.
const Dir = "../testdata"

// Run is a command's entry point: its arguments, stdout and stderr.
type Run func(args []string, stdout, stderr io.Writer) error

// Pin runs the command with args (split on spaces) and requires its stdout
// and stderr to equal Dir/name.stdout and Dir/name.stderr byte for byte. A
// missing .stderr file pins an empty stderr, and a .stdout.sha256 file pins
// a large stdout by its SHA-256 in hex.
func Pin(t *testing.T, run Run, name, args string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields(args), &stdout, &stderr); err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	base := filepath.Join(Dir, name)
	got, want, err := stdout.Bytes(), []byte(nil), error(nil)
	if sum, serr := os.ReadFile(base + ".stdout.sha256"); serr == nil {
		h := sha256.Sum256(got)
		got, want = []byte(hex.EncodeToString(h[:])), bytes.TrimSpace(sum)
	} else if want, err = os.ReadFile(base + ".stdout"); err != nil {
		t.Fatal(err)
	}
	wantErr, _ := os.ReadFile(base + ".stderr")
	if !bytes.Equal(got, want) || !bytes.Equal(stderr.Bytes(), wantErr) {
		t.Errorf("%s: output differs from %s.*\n--- stdout\n%s\n--- stderr\n%s\n--- pinned stdout\n%s\n--- pinned stderr\n%s",
			args, base, got, &stderr, want, wantErr)
	}
}
