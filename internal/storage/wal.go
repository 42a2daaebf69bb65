package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file implements the write-ahead log that makes FilePager commits
// atomic. A writable pager is journaled from the moment it opens: it stages
// every page mutation in memory; on commit the staged page images are first
// written to a sidecar WAL file (the page file's path plus WALSuffix) and
// fsynced, then applied to the page file, then the WAL is removed. Opening a page file replays a committed WAL left
// behind by a crash and discards a torn one, so a reader always sees either
// the state before the commit or the state after it — never a mix.
//
// WAL layout (all little-endian):
//
//	header (16 bytes):
//	  [0:8]   magic "CBBWAL1\x00"
//	  [8:12]  page size of the target file
//	  [12:16] CRC-32C of bytes [0:12]
//	page record, one per staged page:
//	  [0]     record type 'P'
//	  [1]     page kind
//	  [2]     flags (bit 0: slot in use)
//	  [3]     reserved (zero)
//	  [4:8]   payload length
//	  [8:16]  page id
//	  [16:]   payload bytes
//	  [..+4]  CRC-32C of the record up to here
//	commit record (terminates a valid WAL):
//	  [0]     record type 'C'
//	  [1:4]   reserved (zero)
//	  [4:8]   page record count
//	  [8:16]  final slot count of the target file
//	  [16:20] CRC-32C of bytes [0:16]
//
// A WAL without a valid commit record is torn: the crash happened before the
// commit point, the page file was never touched, and the WAL is discarded.

const (
	// WALSuffix is appended to a page file's path to name its write-ahead
	// log.
	WALSuffix = ".wal"

	walMagic       = "CBBWAL1\x00"
	walHeaderBytes = 16
	walPageHeader  = 16 // fixed part of a page record before the payload
	walRecPage     = 'P'
	walRecCommit   = 'C'
	walCommitBytes = 20

	// maxWALRecords bounds the record count accepted from a WAL, guarding
	// the decoder against allocation bombs in corrupt files.
	maxWALRecords = 1 << 24
)

// ErrWALTorn marks a write-ahead log without a valid commit record: the
// commit never reached its atomicity point and the log must be discarded.
var ErrWALTorn = errors.New("storage: write-ahead log has no committed transaction")

// WALRecord is one staged page image of a committed transaction.
type WALRecord struct {
	Page    PageID
	Kind    PageKind
	InUse   bool // false: the page was freed by the transaction
	Payload []byte
}

// WALInfo is a decoded write-ahead log.
type WALInfo struct {
	PageSize  int
	SlotCount int // final slot count of the target file after replay
	Records   []WALRecord
}

// WALPathFor returns the write-ahead log path of a page file.
func WALPathFor(path string) string { return path + WALSuffix }

func encodeWALHeader(pageSize int) []byte {
	buf := make([]byte, walHeaderBytes)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(pageSize))
	binary.LittleEndian.PutUint32(buf[12:], checksum(buf[:12]))
	return buf
}

func encodeWALPage(id PageID, kind PageKind, inUse bool, payload []byte) []byte {
	buf := make([]byte, walPageHeader, walPageHeader+len(payload)+4)
	buf[0] = walRecPage
	buf[1] = byte(kind)
	if inUse {
		buf[2] = slotInUse
	}
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(id))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, checksum(buf))
}

func encodeWALCommit(records int, slotCount int) []byte {
	buf := make([]byte, 16, walCommitBytes)
	buf[0] = walRecCommit
	binary.LittleEndian.PutUint32(buf[4:], uint32(records))
	binary.LittleEndian.PutUint64(buf[8:], uint64(slotCount))
	return binary.LittleEndian.AppendUint32(buf, checksum(buf))
}

// DecodeWAL parses a write-ahead log. It returns ErrWALTorn when the log has
// no valid commit record (an interrupted commit that must be discarded) and
// ErrCorrupt for structurally invalid input. Any prefix of a valid WAL — the
// shape a crash mid-write leaves behind — decodes as either torn or, when
// the commit record survived intact, as the full committed transaction.
func DecodeWAL(data []byte) (*WALInfo, error) {
	if len(data) < walHeaderBytes {
		return nil, ErrWALTorn
	}
	if string(data[:8]) != walMagic {
		return nil, fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}
	if got, want := binary.LittleEndian.Uint32(data[12:]), checksum(data[:12]); got != want {
		return nil, fmt.Errorf("%w: WAL header checksum mismatch", ErrCorrupt)
	}
	pageSize := int(binary.LittleEndian.Uint32(data[8:]))
	if pageSize < minPageSize || pageSize > maxPageSize {
		return nil, fmt.Errorf("%w: implausible WAL page size %d", ErrCorrupt, pageSize)
	}
	info := &WALInfo{PageSize: pageSize}
	off := walHeaderBytes
	for {
		if off >= len(data) {
			return nil, ErrWALTorn // ran out of bytes before a commit record
		}
		switch data[off] {
		case walRecPage:
			if len(info.Records) >= maxWALRecords {
				return nil, fmt.Errorf("%w: too many WAL records", ErrCorrupt)
			}
			if off+walPageHeader > len(data) {
				return nil, ErrWALTorn
			}
			rec := data[off:]
			plen := int(binary.LittleEndian.Uint32(rec[4:]))
			if plen < 0 || plen > pageSize {
				return nil, fmt.Errorf("%w: WAL payload length %d exceeds page size %d", ErrCorrupt, plen, pageSize)
			}
			total := walPageHeader + plen + 4
			if off+total > len(data) {
				return nil, ErrWALTorn
			}
			body := rec[:walPageHeader+plen]
			if binary.LittleEndian.Uint32(rec[walPageHeader+plen:]) != checksum(body) {
				// A torn tail can end inside a record; a record that is fully
				// present but fails its checksum means the log never reached
				// its commit point with this record intact either way.
				return nil, ErrWALTorn
			}
			id := PageID(binary.LittleEndian.Uint64(rec[8:]))
			if id == InvalidPage {
				return nil, fmt.Errorf("%w: WAL record for invalid page id", ErrCorrupt)
			}
			info.Records = append(info.Records, WALRecord{
				Page:    id,
				Kind:    PageKind(rec[1]),
				InUse:   rec[2]&slotInUse != 0,
				Payload: append([]byte(nil), rec[walPageHeader:walPageHeader+plen]...),
			})
			off += total
		case walRecCommit:
			if off+walCommitBytes > len(data) {
				return nil, ErrWALTorn
			}
			rec := data[off : off+walCommitBytes]
			if binary.LittleEndian.Uint32(rec[16:]) != checksum(rec[:16]) {
				return nil, ErrWALTorn
			}
			if int(binary.LittleEndian.Uint32(rec[4:])) != len(info.Records) {
				return nil, ErrWALTorn
			}
			slots := binary.LittleEndian.Uint64(rec[8:])
			if slots > 1<<40 {
				return nil, fmt.Errorf("%w: implausible WAL slot count %d", ErrCorrupt, slots)
			}
			info.SlotCount = int(slots)
			for _, r := range info.Records {
				if int(r.Page) > info.SlotCount {
					return nil, fmt.Errorf("%w: WAL record for page %d beyond slot count %d", ErrCorrupt, r.Page, info.SlotCount)
				}
			}
			return info, nil
		default:
			return nil, ErrWALTorn
		}
	}
}

// ReadWALFile reads and decodes a write-ahead log file. A missing file
// returns (nil, os.ErrNotExist-wrapped error); callers usually treat that as
// "nothing to recover".
func ReadWALFile(path string) (*WALInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeWAL(data)
}

// committedWAL returns the committed transaction a page file of the given page
// size must replay, or nil when there is nothing to replay: no log, a torn or
// corrupt one (the commit never reached its atomicity point, so the file is
// already consistent), or a log for a different page size, which cannot
// belong to this file. Any other I/O error is returned.
func committedWAL(walPath string, pageSize int) (*WALInfo, error) {
	info, err := ReadWALFile(walPath)
	switch {
	case err == nil && info.PageSize == pageSize:
		return info, nil
	case err == nil, os.IsNotExist(err), errors.Is(err, ErrWALTorn), errors.Is(err, ErrCorrupt):
		return nil, nil
	default:
		return nil, err
	}
}

// walOverlay is the one replay of a committed write-ahead log into memory,
// shared by every read-only open (OpenFilePagerReadOnly, OpenMmapStore): the
// page images the log carries, keyed by page id, and the slot count the file
// has once they are folded in. Reads consult the overlay first; neither the
// file nor the log is touched. With nothing to replay (see committedWAL) the
// overlay is nil and slotCount comes back unchanged.
func walOverlay(walPath string, pageSize, slotCount int) (map[PageID]*overlayPage, int, error) {
	info, err := committedWAL(walPath, pageSize)
	if info == nil {
		return nil, slotCount, err
	}
	overlay := make(map[PageID]*overlayPage, len(info.Records))
	for _, r := range info.Records {
		overlay[r.Page] = &overlayPage{kind: r.Kind, inUse: r.InUse, data: r.Payload}
	}
	return overlay, max(slotCount, info.SlotCount), nil
}

// writeWALFile writes a committed WAL for the given records and syncs it to
// stable storage. The file is created fresh (truncating any stale log). The
// whole log — header, every page record, and the commit record — is encoded
// into one buffer and handed to the kernel in a single write followed by a
// single fsync, so a group commit of thousands of pages costs one syscall
// pair instead of one write per record.
func writeWALFile(path string, pageSize, slotCount int, records []WALRecord) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	size := walHeaderBytes + walCommitBytes
	for _, r := range records {
		size += walPageHeader + len(r.Payload) + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, encodeWALHeader(pageSize)...)
	for _, r := range records {
		buf = append(buf, encodeWALPage(r.Page, r.Kind, r.InUse, r.Payload)...)
	}
	buf = append(buf, encodeWALCommit(len(records), slotCount)...)
	if _, err = f.WriteAt(buf, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// The WAL's directory entry must be durable too: the commit point
		// is the WAL being findable after a crash.
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		Remove(path)
		return fmt.Errorf("storage: writing WAL %s: %w", path, err)
	}
	return nil
}
