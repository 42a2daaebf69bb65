package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// openMmapOrSkip opens path as an MmapStore, skipping on platforms without
// mmap support (the stubbed !unix build).
func openMmapOrSkip(t *testing.T, path string) *MmapStore {
	t.Helper()
	ms, err := OpenMmapStore(path)
	if errors.Is(err, ErrMmapUnsupported) {
		t.Skip("mmap unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestMmapStoreMatchesFilePager(t *testing.T) {
	path := journalFixture(t)
	fp, err := OpenFilePagerReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	ms := openMmapOrSkip(t, path)
	defer ms.Close()

	if ms.PageSize() != fp.PageSize() {
		t.Fatalf("page size %d vs pager %d", ms.PageSize(), fp.PageSize())
	}
	if !ms.ReadOnlyFile() {
		t.Error("mmap store must report a read-only file")
	}
	for id := PageID(1); id <= 3; id++ {
		want, wantKind, err := fp.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, gotKind, err := ms.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != wantKind || !bytes.Equal(got, want) {
			t.Fatalf("page %d differs between stores", id)
		}
	}
	if reads, writes := ms.DiskStats(); reads != 3 || writes != 0 {
		t.Fatalf("DiskStats = (%d, %d), want (3, 0)", reads, writes)
	}
	mu, fu := ms.Usage(), fp.Usage()
	if mu.TotalPages != fu.TotalPages || mu.TotalBytes != fu.TotalBytes {
		t.Fatalf("usage differs: %+v vs %+v", mu, fu)
	}
	msl, err := ms.Slots()
	if err != nil {
		t.Fatal(err)
	}
	fsl, err := fp.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if len(msl) != len(fsl) {
		t.Fatalf("slot count %d vs %d", len(msl), len(fsl))
	}
	for i := range msl {
		if msl[i] != fsl[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, msl[i], fsl[i])
		}
	}

	if _, err := ms.Allocate(KindLeaf); !errors.Is(err, ErrReadOnlyFS) {
		t.Errorf("Allocate = %v, want ErrReadOnlyFS", err)
	}
	if err := ms.Write(1, []byte{1}); !errors.Is(err, ErrReadOnlyFS) {
		t.Errorf("Write = %v, want ErrReadOnlyFS", err)
	}
	if err := ms.Free(1); !errors.Is(err, ErrReadOnlyFS) {
		t.Errorf("Free = %v, want ErrReadOnlyFS", err)
	}
	if _, _, err := ms.Read(99); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("out-of-range Read = %v, want ErrPageNotFound", err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.Read(1); !errors.Is(err, ErrPagerClosed) {
		t.Errorf("Read after Close = %v, want ErrPagerClosed", err)
	}
}

func TestMmapStoreDetectsCorruption(t *testing.T) {
	path := journalFixture(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of page 2 (slot 1): past the file header, the
	// slot header, and a few bytes into the payload.
	off := fileHeaderBytes + (16+128)*1 + 16 + 5
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ms := openMmapOrSkip(t, path)
	defer ms.Close()
	if _, _, err := ms.Read(1); err != nil {
		t.Fatalf("untouched page must read cleanly: %v", err)
	}
	if _, _, err := ms.Read(2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted page Read = %v, want ErrCorrupt", err)
	}
}

// TestMmapStoreWALOverlay crashes a pager right after its WAL became durable
// and then opens the file through mmap: the committed-but-unapplied WAL must
// be visible as an overlay (same contract as OpenFilePagerReadOnly), without
// modifying the source file.
func TestMmapStoreWALOverlay(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	stageTransaction(t, p)
	boom := errors.New("simulated crash after WAL sync")
	crashApply(p, 0, boom)
	if err := p.CommitJournal(); !errors.Is(err, boom) {
		t.Fatalf("commit error = %v, want injected crash", err)
	}
	p.f.Close()

	ms := openMmapOrSkip(t, path)
	defer ms.Close()
	b2, _, err := ms.Read(2)
	if err != nil || !bytes.Equal(b2, fixturePayload(20, 80)) {
		t.Fatalf("page 2 must show the WAL state (err=%v)", err)
	}
	b3, k3, err := ms.Read(3)
	if err != nil || k3 != KindDirectory || !bytes.Equal(b3, fixturePayload(30, 48)) {
		t.Fatalf("page 3 must show the WAL state (err=%v, kind=%v)", err, k3)
	}
	b4, _, err := ms.Read(4)
	if err != nil || !bytes.Equal(b4, fixturePayload(40, 96)) {
		t.Fatalf("WAL-appended page 4 must be readable (err=%v)", err)
	}
	if _, err := os.Stat(WALPathFor(path)); err != nil {
		t.Fatalf("mmap open must leave the WAL in place: %v", err)
	}

	// A torn WAL is ignored: the store falls back to the base file.
	wal, err := os.ReadFile(WALPathFor(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALPathFor(path), wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenMmapStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	b2, _, err = torn.Read(2)
	if err != nil || !bytes.Equal(b2, fixturePayload(2, 64)) {
		t.Fatalf("torn WAL must leave the old page 2 (err=%v)", err)
	}
	if _, _, err := torn.Read(4); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("torn WAL page 4 = %v, want ErrPageNotFound", err)
	}
}

// TestMmapStoreForeignWAL puts a committed write-ahead log of a different
// page size next to a page file: it cannot belong to the file, so both
// read-only stores — which share one overlay replay — must ignore it and
// serve the file's own bytes, leaving the log where it is. Also pins
// AllocateRun, the mutator the page-store contract gained, as read-only.
func TestMmapStoreForeignWAL(t *testing.T) {
	path := journalFixture(t) // 128-byte pages
	foreign := []WALRecord{{Page: 2, Kind: KindLeaf, InUse: true, Payload: fixturePayload(99, 200)}}
	if err := writeWALFile(WALPathFor(path), 256, 3, foreign); err != nil {
		t.Fatal(err)
	}

	fp, err := OpenFilePagerReadOnly(path)
	if err != nil {
		t.Fatalf("read-only pager over a foreign WAL: %v", err)
	}
	defer fp.Close()
	ms, err := OpenMmapStore(path)
	if errors.Is(err, ErrMmapUnsupported) {
		t.Skip("mmap unsupported on this platform")
	}
	if err != nil {
		t.Fatalf("mmap store over a foreign WAL: %v", err)
	}
	defer ms.Close()
	for id := PageID(1); id <= 3; id++ {
		want, wantKind, err := fp.Read(id)
		if err != nil || !bytes.Equal(want, fixturePayload(int(id), 64)) {
			t.Fatalf("pager page %d is not the file's own (err=%v)", id, err)
		}
		got, gotKind, err := ms.Read(id)
		if err != nil || gotKind != wantKind || !bytes.Equal(got, want) {
			t.Fatalf("page %d differs between the read-only stores (err=%v)", id, err)
		}
	}
	if _, err := os.Stat(WALPathFor(path)); err != nil {
		t.Fatalf("a read-only open must leave the WAL in place: %v", err)
	}
	if _, err := ms.AllocateRun(KindAux, 2); !errors.Is(err, ErrReadOnlyFS) {
		t.Errorf("AllocateRun = %v, want ErrReadOnlyFS", err)
	}
}
