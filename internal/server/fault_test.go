package server

import (
	"context"
	"net/http"
	"path/filepath"
	"slices"
	"testing"

	"cbb"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// damagedTree writes objects to a snapshot file, zeroes its leaf page with
// the smallest node id (found through the file's page map) and opens the file
// read-only: a tree one of whose pages no read gets through.
func damagedTree(t *testing.T, objects int) *cbb.Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "damaged.cbb")
	tree, err := cbb.Create(path, cbb.Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]cbb.Item, objects)
	for i, r := range testRects(objects, 36) {
		items[i] = cbb.Item{Object: cbb.ObjectID(i), Rect: r}
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []storage.PageID
	for id, pid := range snap.Pages {
		if _, kind, err := fp.Read(pid); err != nil {
			t.Fatal(err)
		} else if kind == storage.KindLeaf && id != 0 {
			leaves = append(leaves, pid)
		}
	}
	if len(leaves) == 0 {
		t.Fatal("no leaf page to damage")
	}
	if err := fp.Write(slices.Min(leaves), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	if tree, err = cbb.OpenReadOnly(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

// TestUnreadablePageAnswers500 pins what the endpoints answer when a read
// runs into a page it cannot read. The reads with an error result — the
// batch behind /searchall and a coalesced /search, the join behind /join —
// fail the request with 500, and the endpoint's failure counter moves. The
// reads without one cannot: an uncoalesced /search and /knn still answer 200
// with what they read before the page (their fault is reported only through
// Tree.Err), the remaining gap that an error result for cbb's Search and
// NearestNeighbors would close.
func TestUnreadablePageAnswers500(t *testing.T) {
	const objects = 2000
	everything := FromRect(cbb.R(-1, -1, 101, 101))

	t.Run("uncoalesced", func(t *testing.T) {
		s := newTestServer(t, Config{Engine: NewTreeEngine(damagedTree(t, objects), false), CoalesceWindow: -1})
		var sr SearchResponse
		if code := post(t, s, "/search", SearchRequest{Query: everything, CountOnly: true}, &sr); code != http.StatusOK || sr.Count >= objects {
			t.Errorf("/search: %d with %d of %d objects; the gap is 200 with the objects read before the page", code, sr.Count, objects)
		}
		for _, c := range []struct {
			path string
			req  any
		}{
			{"/searchall", SearchAllRequest{Queries: []RectJSON{everything}, Workers: 2}},
			{"/join", JoinRequest{Probes: []ItemJSON{{ID: 1, Rect: everything}}, Workers: 2}},
		} {
			if code := post(t, s, c.path, c.req, nil); code != http.StatusInternalServerError {
				t.Errorf("%s: %d, want 500", c.path, code)
			}
			if n := s.failures[c.path].Value(); n != 1 {
				t.Errorf("%s: failure counter %d, want 1", c.path, n)
			}
		}
		if code := post(t, s, "/knn", KNNRequest{Point: []float64{50, 50}, K: 5}, nil); code != http.StatusOK {
			t.Errorf("/knn: %d; the gap is 200", code)
		}
	})

	// With the first search held in its flush, a second one queues and is
	// answered by a batch of its own: through BatchSearch, so with the fault.
	t.Run("coalesced", func(t *testing.T) {
		eng := newGatedEngine(damagedTree(t, objects), true)
		s := newTestServer(t, Config{Engine: eng})
		alone := startSearch(context.Background(), s, cbb.R(-1, -1, 101, 101), true)
		<-eng.entered
		batched := startSearch(context.Background(), s, cbb.R(-1, -1, 100, 100), true)
		awaitQueued(t, s.coal, 1)
		close(eng.gate)
		<-alone.done
		<-batched.done
		if alone.code != http.StatusOK {
			t.Errorf("search alone: %d; the gap is 200", alone.code)
		}
		if batched.code != http.StatusInternalServerError {
			t.Errorf("coalesced search: %d, want 500", batched.code)
		}
		if n := s.failures["/search"].Value(); n != 1 {
			t.Errorf("/search failure counter %d, want 1", n)
		}
	})
}
