// Package fsutil is the one crash-safe file replace the ledger index, the
// statedb checkpoint manifest and the checkpoints themselves are written
// through: write a temp file beside the target, fsync it, rename it over
// the target and fsync the directory, so a crash at any point leaves
// either the old file or the new one, never a torn mix.
package fsutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replace atomically replaces path with what write produces. write's
// output goes to a temp file in path's directory (named after path, with a
// ".tmp-*" suffix), which is fsynced, closed and renamed over path; the
// directory is fsynced last so the rename itself survives a crash. On any
// failure the temp file is removed and path is left untouched.
func Replace(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()           // bmaclint:allow errdiscard (cleanup of failed temp write; a second Close is harmless)
			os.Remove(tmp.Name()) // bmaclint:allow errdiscard (cleanup of failed temp write)
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}
