package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestEnableJournalIsLazy is the regression test for the O(1) writable open:
// enabling journal mode must not build the slot directory (which would scan
// every slot header of the file), and the pure read path must never build it
// either. Only the first operation that genuinely needs global state —
// Allocate, Write, Free, Usage — may pay the scan.
func TestEnableJournalIsLazy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lazy.pages")
	p, err := CreateFilePager(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 64; i++ {
		id, err := p.Allocate(KindLeaf)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.dir != nil {
		t.Fatal("open built the slot directory eagerly")
	}
	if err := p.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	if p.dir != nil {
		t.Fatal("EnableJournal built the slot directory eagerly (breaks O(1) writable open)")
	}
	// Reads must work without the directory and must not build it.
	buf, kind, err := p.Read(ids[3])
	if err != nil || kind != KindLeaf || len(buf) != 1 || buf[0] != 3 {
		t.Fatalf("Read after lazy journaled open: buf=%v kind=%v err=%v", buf, kind, err)
	}
	if p.dir != nil {
		t.Fatal("Read built the slot directory")
	}
	// The first mutation builds the directory on demand and behaves as
	// before: the staged write commits atomically.
	if err := p.Write(ids[5], []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if p.dir == nil {
		t.Fatal("first Write should have built the slot directory")
	}
	if err := p.CommitJournal(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	p, err = OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf, _, err = p.Read(ids[5])
	if err != nil || len(buf) != 1 || buf[0] != 0xAB {
		t.Fatalf("committed write not durable: buf=%v err=%v", buf, err)
	}
}

// TestOpenFilePagerReadOnlyPreservesWAL pins the inspection contract: a
// strictly read-only open of a file with a committed-but-unapplied WAL must
// serve the committed (post-transaction) state from an in-memory overlay
// while leaving both the file bytes and the WAL untouched, so a later
// writable open can still apply it.
func TestOpenFilePagerReadOnlyPreservesWAL(t *testing.T) {
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
	p.f.Close() // abandon the handle, like a dead process

	fileBefore, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(WALPathFor(path))
	if err != nil {
		t.Fatalf("WAL must exist before the read-only open: %v", err)
	}

	ro, err := OpenFilePagerReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnlyFile() {
		t.Fatal("read-only open must report ReadOnlyFile")
	}
	// Reads observe the committed transaction (via the overlay).
	b2, _, err := ro.Read(2)
	if err != nil || !bytes.Equal(b2, fixturePayload(20, 80)) {
		t.Fatalf("read-only open does not see committed state of page 2: %v", err)
	}
	b4, _, err := ro.Read(4)
	if err != nil || !bytes.Equal(b4, fixturePayload(40, 96)) {
		t.Fatalf("read-only open does not see committed page 4: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// Neither the file nor the WAL changed.
	fileAfter, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walAfter, err := os.ReadFile(WALPathFor(path))
	if err != nil {
		t.Fatalf("read-only open consumed the WAL: %v", err)
	}
	if !bytes.Equal(fileBefore, fileAfter) {
		t.Fatal("read-only open modified the page file")
	}
	if !bytes.Equal(walBefore, walAfter) {
		t.Fatal("read-only open modified the WAL")
	}

	// A subsequent writable open still applies the transaction.
	if got := checkState(t, path, "writable open after read-only inspection"); got != "new" {
		t.Fatalf("state = %s, want new (WAL replayed)", got)
	}
}
