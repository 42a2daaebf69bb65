package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the one seam between the package's durable files and the
// operating system: page files, write-ahead logs, snapshots and a sharded
// engine's directory file are opened, written, synced, renamed and removed
// through the FS, which a test replaces to fail or to record calls (UseFS).
// MmapStore alone maps its file through os.

// File is an open file of an FS. *os.File satisfies it.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// FS is the file system the package's durable files live in.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return syncDir(dir) }

var fsys FS = osFS{}

// UseFS makes wrap(current) the FS of every later call and returns the
// function that restores the current one; open files keep theirs. It is a
// hook for tests, which must not run in parallel while one is installed.
func UseFS(wrap func(FS) FS) (restore func()) {
	prev := fsys
	fsys = wrap(prev)
	return func() { fsys = prev }
}

// SyncDir fsyncs a directory, so recent creations, renames and removals in
// it survive a crash.
func SyncDir(dir string) error { return fsys.SyncDir(dir) }

// Remove deletes a file; a missing file is not an error.
func Remove(name string) error {
	if err := fsys.Remove(name); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// TempSuffix names the temporary file ReplaceFile writes beside its target.
const TempSuffix = ".tmp"

// ReplaceFile replaces the file at path atomically: fill writes the new
// content into path+TempSuffix, which is fsynced, closed and renamed over
// path before the directory is fsynced. On error path is unchanged and the
// temporary file gone; durable false with a nil error means the directory
// sync failed, so a crash may bring the old file back.
func ReplaceFile(path string, fill func(File) error) (durable bool, err error) {
	tmp := path + TempSuffix
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	if err = fill(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		Remove(tmp)
		return false, err
	}
	return SyncDir(filepath.Dir(path)) == nil, nil
}

// ReplacePageFile is ReplaceFile for a page file that fill populates through
// a FilePager, the one writable pager that is not journaled: it writes the
// fresh temporary file directly, which no reader sees before the rename. The
// log beside path is settled before the rename (settleWAL).
func ReplacePageFile(path string, pageSize int, fill func(*FilePager) error) error {
	p, err := newFilePager(path+TempSuffix, pageSize)
	if err != nil {
		return err
	}
	durable, err := ReplaceFile(path, func(f File) error {
		p.f = f
		if err := fill(p); err != nil {
			return err
		}
		if err := p.writeHeaderLocked(); err != nil { // the pager is fill's alone
			return err
		}
		return settleWAL(path)
	})
	if err == nil && !durable {
		err = fmt.Errorf("storage: %s written, but its directory could not be synced", path)
	}
	return err
}

// settleWAL disposes of the write-ahead log beside path before a new file is
// renamed over it: a log names only a page size, not its file, so one left
// there would be replayed onto the new file. A writable page file at path
// applies a committed log to itself, as opening it does; then the log is
// removed, durably before the rename, so a crash before the rename leaves
// the old file at its committed state and one after it the new file alone.
func settleWAL(path string) error {
	walPath := WALPathFor(path)
	if _, err := os.Stat(walPath); os.IsNotExist(err) {
		return nil
	}
	if p, err := OpenFilePager(path); err == nil {
		if err := p.Close(); err != nil {
			return err
		}
	}
	if err := Remove(walPath); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}
