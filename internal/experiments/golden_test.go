package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenArtifacts pins every artifact's rendered output as a
// regression snapshot, so a new artifact cannot land unpinned. All
// are deterministic given the default Config seeds. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGolden
func TestGoldenArtifacts(t *testing.T) {
	s := sharedSuite(t)
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			var sb strings.Builder
			if err := e.Run(s, &sb); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("output drifted from golden %s.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}
