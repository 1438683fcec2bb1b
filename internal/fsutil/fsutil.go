// Package fsutil is the file-system seam under the ledger and the statedb
// checkpoint writers (FS, whose production implementation is OS; the
// chaos slow-disk fault and the crash-state recorder wrap it), and the one
// crash-safe file replace the ledger index and the checkpoints are written
// through: write a temp file beside the target, fsync it, rename it over
// the target and fsync the directory, so a crash at any point leaves
// either the old file or the new one, never a torn mix, plus at worst a
// temp file that RemoveTemps sweeps on the next open.
package fsutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// FS is the set of file-system operations the durable writers use.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a just-created, renamed or removed
	// entry in it survives a crash.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// OS is the FS of the operating system: each method forwards to os.
type OS struct{}

// OpenFile implements FS. The error is checked before the conversion: a nil
// *os.File stored in a File would be a non-nil interface.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
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

// tempMark separates a target's name from the random suffix of its temp
// files: Replace writes path's temp as "<base>.tmp-<random>".
const tempMark = ".tmp-"

// Replace atomically replaces path with what write produces. write's
// output goes to a temp file in path's directory (named after path, with a
// ".tmp-*" suffix), which is fsynced, closed and renamed over path; the
// directory is fsynced last so the rename itself survives a crash. On any
// failure the temp file is removed and path is left untouched.
func Replace(fsys FS, path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+tempMark+"*")
	if err != nil {
		return fmt.Errorf("temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()             // bmaclint:allow errdiscard (cleanup of failed temp write; a second Close is harmless)
			fsys.Remove(tmp.Name()) // bmaclint:allow errdiscard (cleanup of failed temp write)
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
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return fsys.SyncDir(dir)
}

// RemoveTemps deletes the temp files a Replace interrupted by a crash left
// in dir and returns their names. Best effort: a file it cannot list or
// remove stays for the next call.
func RemoveTemps(fsys FS, dir string) []string {
	entries, _ := fsys.ReadDir(dir) // bmaclint:allow errdiscard (best effort: an unlistable dir has nothing to sweep)
	var removed []string
	for _, e := range entries {
		if strings.Contains(e.Name(), tempMark) && fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			removed = append(removed, e.Name())
		}
	}
	return removed
}
