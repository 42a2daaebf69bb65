//go:build windows

package storage

// syncDir is a no-op on Windows: directories cannot be opened for
// FlushFileBuffers the way POSIX fsyncs a dirent, and NTFS metadata
// journaling covers the directory-entry durability the WAL commit point
// relies on elsewhere. Losing the dirent sync only narrows the
// crash-durability window (a missing WAL reads as "nothing to recover");
// failing the commit over it would make every flush error out.
func syncDir(dir string) error { return nil }
