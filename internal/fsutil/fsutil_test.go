package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestReplaceFailedWriteKeepsOldFile: a write that fails halfway leaves
// the previous file byte-identical and no temp file behind.
func TestReplaceFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index")
	if err := Replace(OS{}, path, writeString("old contents")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("device full")
	err := Replace(OS{}, path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "new, torn"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents" {
		t.Errorf("file = %q after a failed replace, want the old contents", got)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// TestReplaceWrites: a successful write replaces the file, and creates it
// when it did not exist.
func TestReplaceWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index")
	for _, want := range []string{"first", "second, longer"} {
		if err := Replace(OS{}, path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("file = %q, want %q", got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target", len(entries))
	}
}
