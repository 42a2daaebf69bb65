package snapshot

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// TestStrictnessEveryWayIn holds every way a page set becomes a tree to one
// standard. A page set that is damaged — a leaf missing from the page map, a
// page whose stored node id differs from its index entry, an unreadable page,
// a header whose object count or height disagrees with the pages — must be
// rejected by the eager load, by lazy open + Materialize, by the first
// mutation of a writable lazy open, and by Validate. A lazy open that is
// merely searched keeps serving what it can read: a search with an error
// result (SearchCounted) returns the fault of the node it cannot read, and
// one without (Count) stops there and parks the failure in Err. Header damage
// is invisible to a search: it finds every object, without an error.
func TestStrictnessEveryWayIn(t *testing.T) {
	const objects = 2000
	everything := geom.R(-1, -1, 2000, 2000)
	tree, idx, meta := buildTree(t, objects)

	// twoLeaves picks the two leaves with the smallest node ids.
	twoLeaves := func(t *testing.T, snap *Snapshot, pager *storage.Image) (a, b rtree.NodeID) {
		t.Helper()
		var leaves []rtree.NodeID
		for id, pid := range snap.Pages {
			if _, kind, err := pager.Read(pid); err != nil {
				t.Fatal(err)
			} else if kind == storage.KindLeaf {
				leaves = append(leaves, id)
			}
		}
		if len(leaves) < 2 {
			t.Fatal("page set has fewer than two leaves")
		}
		slices.Sort(leaves)
		return leaves[0], leaves[1]
	}
	damages := []struct {
		name string
		// pagesBad marks damage a search can run into (a node fails to fault
		// in); header damage is invisible to a search.
		pagesBad bool
		apply    func(t *testing.T, snap *Snapshot, pager *storage.Image)
	}{
		{"leaf dropped from page map", true, func(t *testing.T, snap *Snapshot, pager *storage.Image) {
			leaf, _ := twoLeaves(t, snap, pager)
			delete(snap.Pages, leaf)
		}},
		{"stored node id differs from index entry", true, func(t *testing.T, snap *Snapshot, pager *storage.Image) {
			a, b := twoLeaves(t, snap, pager)
			snap.Pages[a], snap.Pages[b] = snap.Pages[b], snap.Pages[a]
		}},
		{"unreadable page", true, func(t *testing.T, snap *Snapshot, pager *storage.Image) {
			leaf, _ := twoLeaves(t, snap, pager)
			if err := pager.Free(snap.Pages[leaf]); err != nil {
				t.Fatal(err)
			}
		}},
		{"header object count disagrees", false, func(t *testing.T, snap *Snapshot, pager *storage.Image) {
			snap.Meta.Objects++
		}},
		{"header height disagrees", false, func(t *testing.T, snap *Snapshot, pager *storage.Image) {
			snap.Meta.Height++
		}},
	}

	for _, format := range []int{FormatV1, FormatV2} {
		meta := meta
		meta.Format = format
		var file bytes.Buffer
		if err := SaveTo(&file, tree, idx, meta); err != nil {
			t.Fatal(err)
		}
		for _, dmg := range damages {
			// Every way in starts from its own copy of the damaged page set.
			damaged := func(t *testing.T) (*Snapshot, *storage.Image) {
				t.Helper()
				snap, pager, err := LoadFrom(bytes.NewReader(file.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				dmg.apply(t, snap, pager)
				return snap, pager
			}
			open := func(t *testing.T, readonly bool) *rtree.Tree {
				t.Helper()
				snap, pager := damaged(t)
				lazy, err := snap.OpenTree(pager, readonly)
				if err != nil {
					t.Fatalf("lazy open must stay constant-time and accept the page set, got %v", err)
				}
				return lazy
			}
			t.Run(fmt.Sprintf("v%d/%s", format, dmg.name), func(t *testing.T) {
				snap, pager := damaged(t)
				if _, err := snap.LoadTree(pager); err == nil {
					t.Error("eager load accepted the page set")
				}
				if err := open(t, true).Materialize(); err == nil {
					t.Error("lazy open + Materialize accepted the page set")
				}
				if err := open(t, true).Validate(); err == nil {
					t.Error("lazy open + Validate accepted the page set")
				}
				if format == FormatV1 {
					w := open(t, false)
					if _, err := w.Insert(geom.R(1, 1, 2, 2), objects+1); err == nil {
						t.Error("first Insert hydrated the page set and succeeded")
					}
					if w.Len() != snap.Meta.Objects {
						t.Errorf("rejected Insert changed Len to %d", w.Len())
					}
				}

				lazy := open(t, true)
				if !lazy.FileBacked() {
					t.Error("opened tree is not file-backed")
				}
				found := lazy.Count(everything)
				switch {
				case dmg.pagesBad && (found >= objects || lazy.Err() == nil):
					t.Errorf("search alone: %d of %d objects, Err %v; want a skipped node and a parked error", found, objects, lazy.Err())
				case !dmg.pagesBad && (found != objects || lazy.Err() != nil):
					t.Errorf("search alone: %d of %d objects, Err %v; want all of them and no error", found, objects, lazy.Err())
				}
				found = 0
				_, err := open(t, true).CurrentVersion().SearchCounted(everything, nil, func(rtree.ObjectID, geom.Rect) bool { found++; return true })
				switch {
				case dmg.pagesBad && err == nil:
					t.Errorf("SearchCounted: %d of %d objects and no error; want the fault", found, objects)
				case !dmg.pagesBad && (err != nil || found != objects):
					t.Errorf("SearchCounted: %d of %d objects, error %v; want all of them and no error", found, objects, err)
				}
			})
		}

		// The undamaged page set passes every way in, and what Load returns is
		// an ordinary in-memory tree.
		t.Run(fmt.Sprintf("v%d/intact", format), func(t *testing.T) {
			snap, pager, err := LoadFrom(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := snap.LoadTree(pager)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.FileBacked() || loaded.ReadOnly() || loaded.Err() != nil {
				t.Errorf("loaded tree: FileBacked %v, ReadOnly %v, Err %v; want an in-memory tree", loaded.FileBacked(), loaded.ReadOnly(), loaded.Err())
			}
			if got, want := loaded.CurrentVersion().Epoch(), tree.CurrentVersion().Epoch(); got != want {
				t.Errorf("loaded tree is at epoch %d, the bulk-loaded original at %d", got, want)
			}
			lazy, err := snap.OpenTree(pager, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*rtree.Tree{loaded, lazy} {
				if err := tr.Materialize(); err != nil {
					t.Error(err)
				}
				if err := tr.Validate(); err != nil {
					t.Error(err)
				}
				if got := tr.Count(everything); got != objects {
					t.Errorf("found %d of %d objects", got, objects)
				}
			}
		})
	}
}
