//go:build !windows

package storage

import (
	"errors"
	"os"
	"syscall"
)

// syncDir is the OS file system's SyncDir: the durability anchor of the
// write-ahead-log commit point, of a file ReplaceFile renamed into place and
// of a sharded engine's shards.json. Directory fsync is a POSIX nicety that
// not every platform or filesystem supports: some return EINVAL (e.g. certain
// FUSE and network filesystems) or ENOTSUP/EACCES for the open or the sync
// itself. Losing the dirent sync only narrows the crash-durability window, it
// does not corrupt anything (a missing WAL reads as "nothing to recover"), so
// unsupported-operation errors are tolerated instead of failing the commit.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		if errorsIsUnsupportedSync(err) {
			return nil
		}
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && errorsIsUnsupportedSync(err) {
		return nil
	}
	return err
}

// errorsIsUnsupportedSync classifies errors that mean "this platform or
// filesystem cannot fsync a directory" rather than "the sync failed".
func errorsIsUnsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EPERM) ||
		errors.Is(err, syscall.EACCES)
}
