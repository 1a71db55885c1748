package cliutil

import (
	"fmt"
	"log/slog"
	"os"
)

// OpenAccessLog builds the slog JSON access logger for a daemon's
// -access-log flag: nil for "", stderr for "-", an append-mode file
// otherwise. The returned closer is a no-op unless a file was opened.
func OpenAccessLog(dest string) (*slog.Logger, func() error, error) {
	switch dest {
	case "":
		return nil, func() error { return nil }, nil
	case "-":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), func() error { return nil }, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening -access-log: %w", err)
	}
	return slog.New(slog.NewJSONHandler(f, nil)), f.Close, nil
}
