package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// journalFixture creates a committed page file with three pages (1, 2, 3)
// and returns its path. Page payloads are distinct and full of structure so
// silent corruption cannot masquerade as success.
func journalFixture(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.cbb")
	p, err := CreateFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id, err := p.Allocate(KindLeaf)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, fixturePayload(int(id), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixturePayload(seed, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(seed*31 + i)
	}
	return buf
}

// stageTransaction enables the journal and stages the reference transaction:
// rewrite page 2, free page 3, allocate and write page 4. It does not commit.
func stageTransaction(t *testing.T, p *FilePager) {
	t.Helper()
	if err := p.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(2, fixturePayload(20, 80)); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(3); err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate(KindDirectory)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		// The freed slot is reused within the transaction.
		t.Fatalf("allocate returned %d, want reuse of slot 3", id)
	}
	id, err = p.Allocate(KindAux)
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("allocate returned %d, want appended slot 4", id)
	}
	if err := p.Write(3, fixturePayload(30, 48)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(4, fixturePayload(40, 96)); err != nil {
		t.Fatal(err)
	}
}

// checkState reports whether the reopened file matches the pre-transaction
// ("old") or post-transaction ("new") state; anything else fails the test.
func checkState(t *testing.T, path, context string) string {
	t.Helper()
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatalf("%s: reopen: %v", context, err)
	}
	defer p.Close()
	read := func(id PageID) ([]byte, PageKind, bool) {
		buf, kind, err := p.Read(id)
		if err != nil {
			return nil, 0, false
		}
		return buf, kind, true
	}
	b1, k1, ok1 := read(1)
	b2, _, ok2 := read(2)
	b3, k3, ok3 := read(3)
	b4, _, ok4 := read(4)
	if !ok1 || k1 != KindLeaf || !bytes.Equal(b1, fixturePayload(1, 64)) {
		t.Fatalf("%s: page 1 corrupt (ok=%v)", context, ok1)
	}
	oldState := ok2 && bytes.Equal(b2, fixturePayload(2, 64)) &&
		ok3 && k3 == KindLeaf && bytes.Equal(b3, fixturePayload(3, 64)) && !ok4
	newState := ok2 && bytes.Equal(b2, fixturePayload(20, 80)) &&
		ok3 && k3 == KindDirectory && bytes.Equal(b3, fixturePayload(30, 48)) &&
		ok4 && bytes.Equal(b4, fixturePayload(40, 96))
	switch {
	case oldState:
		return "old"
	case newState:
		return "new"
	default:
		t.Fatalf("%s: neither old nor new state (p2 ok=%v, p3 ok=%v kind=%v, p4 ok=%v)", context, ok2, ok3, k3, ok4)
		return ""
	}
}

func TestJournalStagedStateVisibleBeforeCommit(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	stageTransaction(t, p)
	if got := len(p.overlay); got != 3 {
		t.Fatalf("dirty pages = %d, want 3", got)
	}
	// The pager itself sees the staged state.
	buf, kind, err := p.Read(3)
	if err != nil || kind != KindDirectory || !bytes.Equal(buf, fixturePayload(30, 48)) {
		t.Fatalf("staged read of page 3: kind=%v err=%v", kind, err)
	}
	if _, _, err := p.Read(4); err != nil {
		t.Fatalf("staged read of appended page 4: %v", err)
	}
	u := p.Usage()
	if u.TotalPages != 4 {
		t.Fatalf("staged usage: %d pages, want 4", u.TotalPages)
	}
	// Close without committing: everything staged is discarded.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := checkState(t, path, "close without commit"); got != "old" {
		t.Fatalf("state after uncommitted close = %s, want old", got)
	}
}

func TestJournalDiscard(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stageTransaction(t, p)
	p.DiscardJournal()
	buf, _, err := p.Read(2)
	if err != nil || !bytes.Equal(buf, fixturePayload(2, 64)) {
		t.Fatalf("discard did not restore page 2: %v", err)
	}
	if _, _, err := p.Read(4); err == nil {
		t.Fatal("discard left staged page 4 readable")
	}
	if u := p.Usage(); u.TotalPages != 3 {
		t.Fatalf("usage after discard: %d pages, want 3", u.TotalPages)
	}
}

func TestJournalCommitAndReopen(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	stageTransaction(t, p)
	if err := p.CommitJournal(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.overlay); got != 0 {
		t.Fatalf("dirty pages after commit = %d", got)
	}
	if _, err := os.Stat(WALPathFor(path)); !os.IsNotExist(err) {
		t.Fatalf("WAL not removed after commit: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := checkState(t, path, "committed"); got != "new" {
		t.Fatalf("state after commit = %s, want new", got)
	}
}

// crashApply makes p's next commit stop like a process that dies in its
// apply phase: the write-ahead log is written and synced as usual, then the
// page write after skip of them fails with err, once (skip 0: the log is
// durable and no page is applied).
func crashApply(p *FilePager, skip int, err error) {
	p.f = &crashFile{File: p.f, skip: skip, err: err}
}

type crashFile struct {
	File
	skip int
	err  error
}

func (f *crashFile) WriteAt(b []byte, off int64) (int, error) {
	if f.skip--; f.skip == -1 {
		return 0, f.err
	}
	return f.File.WriteAt(b, off)
}

// TestJournalCrashAfterWALDurable simulates a crash right after the WAL
// reached stable storage but before a single page was applied: the commit
// point has passed, so reopening must replay to the new state.
func TestJournalCrashAfterWALDurable(t *testing.T) {
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
	if _, err := os.Stat(WALPathFor(path)); err != nil {
		t.Fatalf("WAL must survive the crash: %v", err)
	}
	p.f.Close() // abandon the handle without any cleanup, like a dead process
	if got := checkState(t, path, "crash after WAL"); got != "new" {
		t.Fatalf("state after WAL-durable crash = %s, want new (replay)", got)
	}
	// The replay consumed the WAL.
	if _, err := os.Stat(WALPathFor(path)); !os.IsNotExist(err) {
		t.Fatalf("WAL not removed after replay: %v", err)
	}
}

// TestJournalCrashMidApply simulates a crash after each prefix of the apply
// phase: the WAL is intact, so every reopen must complete the replay.
func TestJournalCrashMidApply(t *testing.T) {
	for stop := 0; stop < 3; stop++ {
		t.Run(fmt.Sprintf("stop=%d", stop), func(t *testing.T) {
			path := journalFixture(t)
			p, err := OpenFilePager(path)
			if err != nil {
				t.Fatal(err)
			}
			stageTransaction(t, p)
			boom := errors.New("simulated crash mid-apply")
			crashApply(p, stop, boom)
			if err := p.CommitJournal(); !errors.Is(err, boom) {
				t.Fatalf("commit error = %v, want injected crash", err)
			}
			p.f.Close()
			if got := checkState(t, path, "crash mid-apply"); got != "new" {
				t.Fatalf("state after mid-apply crash = %s, want new (replay)", got)
			}
		})
	}
}

// TestJournalTornWAL truncates the WAL at every offset — the states a crash
// during the WAL write can leave behind — and verifies that reopening always
// yields a clean decision: the old state for a torn log, the new state only
// when the commit record survived intact. Never an error, never a mix.
func TestJournalTornWAL(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	stageTransaction(t, p)
	boom := errors.New("crash")
	crashApply(p, 0, boom)
	if err := p.CommitJournal(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	p.f.Close()
	wal, err := os.ReadFile(WALPathFor(path))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sawOld, sawNew := false, false
	for cut := 0; cut <= len(wal); cut++ {
		// Restore the pristine pre-commit data file and a truncated WAL.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPathFor(path), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		state := checkState(t, path, fmt.Sprintf("WAL cut at %d", cut))
		if cut < len(wal) && state == "new" {
			t.Fatalf("truncated WAL (%d of %d bytes) replayed as committed", cut, len(wal))
		}
		if cut == len(wal) && state != "new" {
			t.Fatalf("complete WAL not replayed")
		}
		if state == "old" {
			sawOld = true
		} else {
			sawNew = true
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("sweep saw old=%v new=%v; expected both outcomes", sawOld, sawNew)
	}
}

// TestJournalCorruptWAL flips one byte at a time across the WAL: reopening
// must yield the old state (corrupt log discarded), the new state (the flip
// landed in dead bytes), or — never — silent corruption or a failed open.
func TestJournalCorruptWAL(t *testing.T) {
	path := journalFixture(t)
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	stageTransaction(t, p)
	boom := errors.New("crash")
	crashApply(p, 0, boom)
	if err := p.CommitJournal(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	p.f.Close()
	wal, err := os.ReadFile(WALPathFor(path))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(wal); off++ {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), wal...)
		bad[off] ^= 0x5a
		if err := os.WriteFile(WALPathFor(path), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		// checkState fails the test on anything but a clean old/new state.
		checkState(t, path, fmt.Sprintf("WAL byte %d flipped", off))
	}
}

func TestAllocateRunPrefersContiguousFreeRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.cbb")
	p, err := CreateFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 8; i++ {
		if _, err := p.Allocate(KindLeaf); err != nil {
			t.Fatal(err)
		}
	}
	// Free pages 3,4,5 (contiguous) and 7 (isolated).
	for _, id := range []PageID{7, 4, 3, 5} {
		if err := p.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	first, err := p.AllocateRun(KindAux, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 {
		t.Fatalf("run allocated at %d, want reuse of 3..5", first)
	}
	// No 2-run remains (only 7 free): the next run must append.
	first, err = p.AllocateRun(KindAux, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first != 9 {
		t.Fatalf("run allocated at %d, want appended 9..10", first)
	}
	if _, err := p.Allocate(KindLeaf); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeWAL fuzzes the WAL decoder: arbitrary input must produce a
// decoded log, ErrWALTorn, or ErrCorrupt — never a panic or a runaway
// allocation.
func FuzzDecodeWAL(f *testing.F) {
	// Seed with a real committed WAL.
	recs := []WALRecord{
		{Page: 1, Kind: KindLeaf, InUse: true, Payload: fixturePayload(1, 64)},
		{Page: 2, Kind: KindAux, InUse: false},
	}
	path := filepath.Join(f.TempDir(), "seed.wal")
	if err := writeWALFile(path, 128, 2, recs); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	f.Add([]byte("CBBWAL1\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := DecodeWAL(data)
		if err != nil {
			if !errors.Is(err, ErrWALTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if info.PageSize < minPageSize || info.PageSize > maxPageSize {
			t.Fatalf("accepted implausible page size %d", info.PageSize)
		}
		for _, r := range info.Records {
			if len(r.Payload) > info.PageSize {
				t.Fatalf("record payload %d exceeds page size %d", len(r.Payload), info.PageSize)
			}
			if int(r.Page) > info.SlotCount {
				t.Fatalf("record page %d beyond slot count %d", r.Page, info.SlotCount)
			}
		}
	})
}
