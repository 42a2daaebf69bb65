package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// closeOpened closes a store that opened and passes its open error through.
func closeOpened[S interface{ Close() error }](s S, err error) error {
	if err == nil {
		s.Close()
	}
	return err
}

// truncations are the cuts of a 128-byte-page file that leave it short of a
// whole slot: one byte short, in the middle of a slot, and in the middle of
// the file header.
func truncations(raw []byte) []struct {
	name string
	n    int
} {
	slot := slotHeaderBytes + 128
	return []struct {
		name string
		n    int
	}{
		{"one byte short", len(raw) - 1},
		{"mid-slot", fileHeaderBytes + slot + slot/2},
		{"mid-header", fileHeaderBytes / 2},
	}
}

// TestTruncatedPageFileRejected cuts a page file short and requires every
// way of opening it — writable, read-only, mapped, and as a stream — to
// refuse it as corrupt: they share one whole-slot check.
func TestTruncatedPageFileRejected(t *testing.T) {
	raw, err := os.ReadFile(journalFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range truncations(raw) {
		t.Run(cut.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cut.cbb")
			if err := os.WriteFile(path, raw[:cut.n], 0o644); err != nil {
				t.Fatal(err)
			}
			_, imgErr := ReadImage(bytes.NewReader(raw[:cut.n]))
			for _, open := range []struct {
				name string
				err  error
			}{
				{"OpenFilePager", closeOpened(OpenFilePager(path))},
				{"OpenFilePagerReadOnly", closeOpened(OpenFilePagerReadOnly(path))},
				{"OpenMmapStore", closeOpened(OpenMmapStore(path))},
				{"ReadImage", imgErr},
			} {
				if errors.Is(open.err, ErrMmapUnsupported) {
					continue
				}
				if !errors.Is(open.err, ErrCorrupt) {
					t.Errorf("%s of a file cut to %d bytes: %v, want ErrCorrupt", open.name, cut.n, open.err)
				}
			}
		})
	}
}

// streamFixture returns a page file stream of three pages of three kinds
// ("dir", "leaf", "aux"), the middle one freed: the input of
// TestPagerStreamRoundTrip and a seed of FuzzPageFileReaders.
func streamFixture(t testing.TB) []byte {
	t.Helper()
	p := NewImage(128)
	for kind, payload := range []string{"dir", "leaf", "aux"} {
		id, err := p.Allocate(PageKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Free(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPageFileReaders feeds the same bytes to the three page file readers —
// ReadImage as a stream, OpenFilePagerReadOnly and OpenMmapStore as a file —
// and requires them to agree. All three open or none does; the one allowed
// difference is that ReadImage, which checks every page up front, may refuse
// a file whose bad page the other two then fail to Read. When all three open,
// every page id reads the same payload and kind from each, or fails in each.
func FuzzPageFileReaders(f *testing.F) {
	file, err := os.ReadFile(journalFixture(f))
	if err != nil {
		f.Fatal(err)
	}
	stream := streamFixture(f)
	for _, raw := range [][]byte{file, stream} {
		f.Add(raw)
		for _, cut := range truncations(raw) {
			f.Add(raw[:cut.n])
		}
		bad := bytes.Clone(raw)
		bad[fileHeaderBytes+slotHeaderBytes] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte("CBBPGF1\x00garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.cbb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		img, imgErr := ReadImage(bytes.NewReader(data))
		fp, fpErr := OpenFilePagerReadOnly(path)
		if fpErr == nil {
			defer fp.Close()
		}
		files := []PageStore{fp}
		ms, msErr := OpenMmapStore(path)
		switch {
		case msErr == nil:
			defer ms.Close()
			files = append(files, ms)
		case errors.Is(msErr, ErrMmapUnsupported):
		case fpErr == nil:
			t.Fatalf("OpenMmapStore refused what OpenFilePagerReadOnly opened: %v", msErr)
		}
		if fpErr != nil {
			if msErr == nil || imgErr == nil {
				t.Fatalf("OpenFilePagerReadOnly refused (%v) what another reader opened (mmap %v, stream %v)", fpErr, msErr, imgErr)
			}
			return
		}

		if imgErr != nil {
			for id := PageID(1); int(id) <= fp.slotCount; id++ {
				if failsEverywhere(files, id) {
					return
				}
			}
			t.Fatalf("ReadImage refused (%v) a file whose every page the file readers read", imgErr)
		}
		stores := append(files, img)
		for id := PageID(0); int(id) <= fp.slotCount+1; id++ {
			want, wantKind, wantErr := stores[0].Read(id)
			for _, s := range stores[1:] {
				got, kind, err := s.Read(id)
				if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) || kind != wantKind {
					t.Fatalf("page %d: %T reads (%q, %v, %v), %T reads (%q, %v, %v)",
						id, stores[0], want, wantKind, wantErr, s, got, kind, err)
				}
			}
		}
	})
}

// failsEverywhere reports whether every store fails to read page id for a
// reason other than the page being free.
func failsEverywhere(stores []PageStore, id PageID) bool {
	for _, s := range stores {
		if _, _, err := s.Read(id); err == nil || errors.Is(err, ErrPageNotFound) {
			return false
		}
	}
	return true
}
