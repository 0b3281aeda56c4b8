package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesWithoutLeftovers: a write creates the file, a second one
// replaces it whole, and no temp file stays behind in the directory.
func TestWriteReplacesWithoutLeftovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "status.json")
	for _, want := range []string{"first, longer content", "second"} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("file holds %q, want %q", got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want only the file", len(entries))
	}
}

// TestWriteFailureLeavesNothing: a rename that cannot succeed (the target
// is a non-empty directory) reports its error and removes the temp file.
func TestWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(target, []byte("x")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after a failed write, want only the original directory", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
