package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestFilePagerBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	p, err := CreateFilePager(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if p.PageSize() != 256 {
		t.Fatalf("page size %d", p.PageSize())
	}
	id1, err := p.Allocate(KindDirectory)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := p.Allocate(KindLeaf)
	if err != nil {
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

	// Free + reuse.
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
	buf, kind, err = q.Read(id2)
	if err != nil || kind != KindLeaf || len(buf) != 256 || buf[0] != 7 {
		t.Fatalf("reopened read %d bytes %v %v", len(buf), kind, err)
	}
	if _, _, err := q.Read(99); err == nil {
		t.Error("read of nonexistent page must fail")
	}
}

func TestFilePagerReadOnlyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cbb")
	p, err := CreateFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate(KindLeaf)
	if err := p.Write(id, []byte("shipped read-only")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
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
	p, err := CreateFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate(KindLeaf)
	if err := p.Write(id, []byte("payload under checksum")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
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
	fp, err := CreateFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fp.Allocate(KindLeaf)
	fp.Write(id, []byte("shared format"))
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
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
