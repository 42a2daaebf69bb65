package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fillFile writes a new page file at path as ReplacePageFile does, fill
// populating it.
func fillFile(t testing.TB, path string, pageSize int, fill func(p *FilePager)) {
	t.Helper()
	if err := ReplacePageFile(path, pageSize, func(p *FilePager) error { fill(p); return nil }); err != nil {
		t.Fatal(err)
	}
}

// writePages fills a new page file at path with one page of each payload,
// of the given kind.
func writePages(t testing.TB, path string, pageSize int, kind PageKind, payloads ...[]byte) {
	t.Helper()
	fillFile(t, path, pageSize, func(p *FilePager) {
		for _, b := range payloads {
			id, err := p.Allocate(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Write(id, b); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestFilePagerBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	var id1, id2 PageID
	fillFile(t, path, 256, func(p *FilePager) {
		if p.PageSize() != 256 {
			t.Fatalf("page size %d", p.PageSize())
		}
		var err error
		if id1, err = p.Allocate(KindDirectory); err != nil {
			t.Fatal(err)
		}
		if id2, err = p.Allocate(KindLeaf); err != nil {
			t.Fatal(err)
		}
		if id1 != 1 || id2 != 2 {
			t.Fatalf("ids %d %d, want 1 2", id1, id2)
		}
		if err := p.Write(id1, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id2, bytes.Repeat([]byte{7}, 256)); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id2, bytes.Repeat([]byte{7}, 257)); err == nil {
			t.Error("oversized payload must be rejected")
		}
		buf, kind, err := p.Read(id1)
		if err != nil || kind != KindDirectory || string(buf) != "hello" {
			t.Fatalf("read %q %v %v", buf, kind, err)
		}
		u := p.Usage()
		if u.TotalPages != 2 || u.Bytes[KindDirectory] != 5 || u.Bytes[KindLeaf] != 256 {
			t.Fatalf("usage %+v", u)
		}
		reads, writes := p.DiskStats()
		if reads == 0 || writes == 0 {
			t.Fatalf("disk stats %d/%d should move", reads, writes)
		}
		if err := p.Free(id1); err == nil {
			t.Error("a fill freed a page it had written")
		}
	})

	// Free + reuse, on a journaled open.
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(id1); err == nil {
		t.Error("read of freed page must fail")
	}
	id3, err := p.Allocate(KindAux)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("freed slot not reused: got %d", id3)
	}
	if err := p.CommitJournal(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := p.Allocate(KindLeaf); err == nil {
		t.Error("allocate after close must fail")
	}

	// Reopen: directory, free list, and content survive.
	q, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	buf, kind, err := q.Read(id2)
	if err != nil || kind != KindLeaf || len(buf) != 256 || buf[0] != 7 {
		t.Fatalf("reopened read %d bytes %v %v", len(buf), kind, err)
	}
	if _, _, err := q.Read(99); err == nil {
		t.Error("read of nonexistent page must fail")
	}
}

func TestFilePagerReadOnlyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	const id = PageID(1)
	writePages(t, path, 128, KindLeaf, []byte("shipped read-only"))
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	q, err := OpenFilePager(path)
	if err != nil {
		t.Fatalf("read-only snapshot must open: %v", err)
	}
	if !q.readonly {
		// Root ignores file modes, so O_RDWR succeeded; force the
		// read-only code path directly — it is what a non-root process
		// gets for a 0444 file.
		q.readonly = true
	}
	buf, kind, err := q.Read(id)
	if err != nil || kind != KindLeaf || string(buf) != "shipped read-only" {
		t.Fatalf("read-only read: %q %v %v", buf, kind, err)
	}
	if _, err := q.Allocate(KindAux); err != ErrReadOnlyFS {
		t.Fatalf("Allocate on read-only file: %v, want ErrReadOnlyFS", err)
	}
	if err := q.Write(id, []byte("x")); err != ErrReadOnlyFS {
		t.Fatalf("Write on read-only file: %v, want ErrReadOnlyFS", err)
	}
	if err := q.Free(id); err != ErrReadOnlyFS {
		t.Fatalf("Free on read-only file: %v, want ErrReadOnlyFS", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("read-only close: %v", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("opening a read-only snapshot modified the file")
	}
}

func TestFilePagerDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	const id = PageID(1)
	writePages(t, path, 128, KindLeaf, []byte("payload under checksum"))
	// Flip one payload byte on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[fileHeaderBytes+slotHeaderBytes+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Read(id); err == nil {
		t.Fatal("corrupted payload must fail the checksum")
	}
	// Corrupt the file header too: open must fail outright.
	raw[9] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFilePager(path); err == nil {
		t.Fatal("corrupted header must be rejected")
	}
}

func TestPagerStreamRoundTrip(t *testing.T) {
	// Pages 1 and 3 hold "dir" and "aux"; page 2 was freed before the stream
	// was written.
	raw := streamFixture(t)
	q, err := ReadImage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if q.PageSize() != 128 {
		t.Fatalf("page size %d", q.PageSize())
	}
	got, kind, err := q.Read(1)
	if err != nil || kind != KindDirectory || string(got) != "dir" {
		t.Fatalf("page 1: %q %v %v", got, kind, err)
	}
	if _, _, err := q.Read(2); err == nil {
		t.Error("freed page must stay free after the round trip")
	}
	got, kind, err = q.Read(3)
	if err != nil || kind != KindAux || string(got) != "aux" {
		t.Fatalf("page 3: %q %v %v", got, kind, err)
	}
	// A new allocation must not collide with existing ids.
	id4, err := q.Allocate(KindLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if id4 != 4 {
		t.Fatalf("allocation after round trip got id %d, want 4", id4)
	}

	// Truncated and corrupted streams are rejected.
	if _, err := ReadImage(bytes.NewReader(raw[:len(raw)-7])); err == nil {
		t.Error("truncated stream must be rejected")
	}
	bad := append([]byte(nil), raw...)
	bad[fileHeaderBytes+slotHeaderBytes] ^= 0xff
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload must be rejected")
	}
}

func TestFilePagerMatchesStreamFormat(t *testing.T) {
	// Bytes written by a FilePager are readable with ReadImage and vice
	// versa: the two paths share one format.
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.cbb")
	const id = PageID(1)
	writePages(t, path, 128, KindLeaf, []byte("shared format"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := ReadImage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(id)
	if err != nil || string(got) != "shared format" {
		t.Fatalf("stream read of file bytes: %q %v", got, err)
	}

	var buf bytes.Buffer
	if _, err := mem.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, "pages2.cbb")
	if err := os.WriteFile(path2, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, err := OpenFilePager(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	got, _, err = fp2.Read(id)
	if err != nil || string(got) != "shared format" {
		t.Fatalf("file read of stream bytes: %q %v", got, err)
	}
}

// countingFile counts the writes and truncations that reach a file.
type countingFile struct {
	File
	writes, truncates int
}

func (f *countingFile) WriteAt(b []byte, off int64) (int, error) {
	f.writes++
	return f.File.WriteAt(b, off)
}

func (f *countingFile) Truncate(size int64) error {
	f.truncates++
	return f.File.Truncate(size)
}

// TestFilePagerAppendedSlots pins what an appended page of a fill costs:
// claiming it touches memory only, writing it is one write with its header,
// and Sync extends the file once and writes the headers of the pages claimed
// but never written — which read as empty payloads before and after, as a
// freed one reads as absent.
func TestFilePagerAppendedSlots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	var first, last PageID
	check := func(when string, p *FilePager) {
		t.Helper()
		for _, c := range []struct {
			id   PageID
			kind PageKind
			want string
		}{{first, KindLeaf, ""}, {first + 1, KindLeaf, "payload"}, {last, KindDirectory, ""}} {
			if got, kind, err := p.Read(c.id); err != nil || kind != c.kind || string(got) != c.want || got == nil {
				t.Errorf("%s: page %d = %q (nil %v), kind %d, %v; want %q, kind %d", when, c.id, got, got == nil, kind, err, c.want, c.kind)
			}
		}
		if _, _, err := p.Read(first + 2); !errors.Is(err, ErrPageNotFound) {
			t.Errorf("%s: freed page: %v, want ErrPageNotFound", when, err)
		}
	}
	fillFile(t, path, 256, func(p *FilePager) {
		f := &countingFile{File: p.f}
		p.f = f
		var err error
		if first, err = p.AllocateRun(KindLeaf, 3); err != nil {
			t.Fatal(err)
		}
		if last, err = p.Allocate(KindDirectory); err != nil {
			t.Fatal(err)
		}
		if f.writes+f.truncates != 0 {
			t.Fatalf("claiming four appended pages: %d writes, %d truncations, want none", f.writes, f.truncates)
		}
		if err := p.Write(first+1, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if f.writes != 1 || f.truncates != 0 {
			t.Fatalf("writing an appended page: %d writes, %d truncations, want one write", f.writes, f.truncates)
		}
		if err := p.Free(first + 2); err != nil {
			t.Fatal(err)
		}
		check("before Sync", p)
		f.writes = 0
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		// The file header and the headers of the two pages never written.
		if f.writes != 3 || f.truncates != 1 {
			t.Fatalf("Sync: %d writes, %d truncations, want 3 and 1", f.writes, f.truncates)
		}
		check("after Sync", p)
	})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(fileHeaderBytes + 4*(slotHeaderBytes+256)); st.Size() != want {
		t.Fatalf("file of %d bytes, want %d", st.Size(), want)
	}
	q, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	check("reopened", q)
}
