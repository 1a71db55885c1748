package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenAccessLog(t *testing.T) {
	l, closeLog, err := OpenAccessLog("")
	if err != nil || l != nil || closeLog() != nil {
		t.Fatalf(`"" = (%v, %v), want a nil logger and a no-op closer`, l, err)
	}

	path := filepath.Join(t.TempDir(), "access.jsonl")
	l, closeLog, err = OpenAccessLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "request_id", "r-1")
	if err := closeLog(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"request_id":"r-1"`) {
		t.Fatalf("log file holds %q, want one JSON line with the request ID", got)
	}

	if _, _, err := OpenAccessLog(filepath.Join(t.TempDir(), "missing", "x.jsonl")); err == nil || !strings.Contains(err.Error(), "-access-log") {
		t.Fatalf("unwritable path: err = %v, want one naming -access-log", err)
	}
}
