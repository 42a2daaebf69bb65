package cbb

import (
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestShardedSimulation drives a file-backed sharded engine through a seeded
// sequence of every kind of write it takes — inserts, deletes that hit and
// miss, InsertItems, cross-shard batches that commit and that roll back,
// splits and merges at random shards, flushes, and a close followed by a
// reopen — against an oracle holding the objects as a multiset. Small split
// and merge thresholds, and a population that swells and shrinks in phases,
// make the engine rebalance often. After every step Validate must pass, the
// engine's objects must equal the oracle's, and so must its answers to three
// windowed queries, which clip admission can prune.
//
// Besides the random steps, a damage step replays a known failure: a split or
// merge over a shard with an unreadable page must fail and change nothing,
// which the oracle checks once the page is mended; and a last phase grows one
// shard past a directory chunk before it splits.
func TestShardedSimulation(t *testing.T) {
	const (
		steps      = 2000
		splitAbove = 100
		mergeBelow = 25
	)
	dir := filepath.Join(t.TempDir(), "engine")
	universe := shardUniverse(2)
	st, err := CreateSharded(dir, ShardedOptions{
		Options:    Options{Dims: 2, MaxEntries: 8, MinEntries: 3, Universe: universe},
		Shards:     2,
		SplitAbove: splitAbove,
		MergeBelow: mergeBelow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()

	rng := rand.New(rand.NewSource(37))
	var live []Item // the oracle
	// The windowed queries draw from their own source, so the step sequence
	// is the one the simulation runs without them.
	queryRng := rand.New(rand.NewSource(39))
	// Half the fresh objects fall in a hot corner, so one shard swells and
	// splits.
	objs := &simObjects{rng: rng, next: 1}
	fresh, freshItems, pick := objs.fresh, objs.freshItems, objs.pick
	var splits, merges int64 // over every engine opened
	closeEngine := func() {
		s, m := st.RebalanceStats()
		splits, merges = splits+s, merges+m
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openEngine := func() {
		if st, err = OpenSharded(dir); err != nil {
			t.Fatal(err)
		}
	}
	// damage closes the engine, breaks a leaf page of its largest shard,
	// checks that a split and a merge over it fail and change nothing, and
	// puts the page back.
	damage := func() {
		lens := st.ShardLens()
		i := 0
		for j, n := range lens {
			if n > lens[i] {
				i = j
			}
		}
		if lens[i] == 0 {
			return
		}
		path := st.dir.Load().shards[i].path
		closeEngine()
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damageLeafPage(t, path)
		openEngine()
		shards, objects := st.NumShards(), st.Len()
		if err := st.SplitShard(i); err == nil {
			t.Errorf("SplitShard(%d) over an unreadable page returned no error", i)
		}
		if j := min(i, shards-2); j >= 0 {
			// A pair too large to merge is left alone before it is read.
			if err := st.MergeShards(j); err == nil && lens[j]+lens[j+1] <= splitAbove*3/4 {
				t.Errorf("MergeShards(%d) over an unreadable page returned no error", j)
			}
		}
		if err := st.Validate(); err == nil {
			t.Error("Validate over an unreadable page returned no error")
		}
		if st.NumShards() != shards || st.Len() != objects {
			t.Errorf("after a failed rebalance: %d shards holding %d objects, want %d holding %d", st.NumShards(), st.Len(), shards, objects)
		}
		closeEngine()
		if err := os.WriteFile(path, pristine, 0o666); err != nil {
			t.Fatal(err)
		}
		openEngine()
	}
	deleteSome := func() {
		for range 1 + rng.Intn(8) {
			if len(live) == 0 {
				return
			}
			it := pick(&live)
			if found, err := st.Delete(it.Rect, it.Object); err != nil || !found {
				t.Fatalf("Delete(%d) = %v, %v; want found", it.Object, found, err)
			}
		}
	}
	// batch applies a few random writes through a ShardedBatch and commits
	// or rolls it back, keeping the oracle in step.
	batch := func(commit bool) {
		sb, err := st.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pending := slices.Clone(live)
		for range 1 + rng.Intn(6) {
			switch r := rng.Intn(4); {
			case r == 0 && len(pending) > 0:
				it := pick(&pending)
				if found, err := sb.Delete(it.Rect, it.Object); err != nil || !found {
					t.Fatalf("batch Delete(%d) = %v, %v; want found", it.Object, found, err)
				}
			case r == 1:
				items := freshItems(12)
				if err := sb.InsertItems(items); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, items...)
			default:
				it := fresh()
				if err := sb.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, it)
			}
		}
		if !commit {
			sb.Rollback()
			return
		}
		if err := sb.Commit(); err != nil {
			t.Fatal(err)
		}
		live = pending
	}

	ops := []struct {
		name   string
		weight int
		run    func()
	}{
		{"Insert", 40, func() {
			it := fresh()
			if len(live) > 0 && rng.Intn(10) == 0 {
				it = live[rng.Intn(len(live))] // an exact duplicate
			}
			if err := st.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		}},
		{"InsertItems", 20, func() {
			items := freshItems(24)
			if err := st.InsertItems(items); err != nil {
				t.Fatal(err)
			}
			live = append(live, items...)
		}},
		{"Delete", 30, deleteSome},
		{"Delete miss", 10, func() {
			it := fresh()
			if len(live) > 0 && rng.Intn(2) == 0 {
				it.Rect = live[rng.Intn(len(live))].Rect // a live rectangle, another id
			}
			if found, err := st.Delete(it.Rect, it.Object); err != nil || found {
				t.Fatalf("Delete of absent object %d = %v, %v; want not found", it.Object, found, err)
			}
		}},
		{"batch commit", 15, func() { batch(true) }},
		{"batch rollback", 10, func() { batch(false) }},
		{"SplitShard", 10, func() {
			if err := st.SplitShard(rng.Intn(st.NumShards())); err != nil {
				t.Fatal(err)
			}
		}},
		{"MergeShards", 10, func() {
			if n := st.NumShards(); n > 1 {
				if err := st.MergeShards(rng.Intn(n - 1)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Flush", 10, func() {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"reopen", 5, func() { closeEngine(); openEngine() }},
		{"damage", 1, damage},
	}
	total := 0
	for _, op := range ops {
		total += op.weight
	}
	check := func(step int, op string) {
		t.Helper()
		if err := st.Validate(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if got := st.SearchAll(universe); !sameItems(got, live) {
			t.Fatalf("step %d (%s): the engine holds %d objects, the oracle %d, and they differ", step, op, len(got), len(live))
		}
		for range 3 {
			q := simWindow(queryRng, live)
			if got, want := st.SearchAll(q), within(live, q); !sameItems(got, want) {
				t.Fatalf("step %d (%s): the engine answers %v with %d objects, the oracle %d, and they differ", step, op, q, len(got), len(want))
			}
		}
	}

	// The known failure goes first, over a populated engine.
	items := make([]Item, 300)
	for i := range items {
		items[i] = fresh()
	}
	if err := st.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	live = append(live, items...)
	damage()
	check(0, "damage")

	for step := 1; step <= steps; step++ {
		// The population swells towards 400 and shrinks towards 30 in
		// alternating phases; outside its target a growing step deletes.
		target := 400
		if step/250%2 == 1 {
			target = 30
		}
		r := rng.Intn(total)
		i := 0
		for r >= ops[i].weight {
			r -= ops[i].weight
			i++
		}
		name, run := ops[i].name, ops[i].run
		switch name {
		case "Insert", "InsertItems", "batch commit":
			if len(live) > target {
				name, run = "Delete", deleteSome
			}
		}
		run()
		check(step, name)
	}
	s, m := st.RebalanceStats()
	splits, merges = splits+s, merges+m
	t.Logf("%d objects in %d shards at the end; %d splits and %d merges", len(live), st.NumShards(), splits, merges)
	if splits == 0 || merges == 0 {
		t.Errorf("the simulation ran %d splits and %d merges; want both", splits, merges)
	}

	// A last phase grows one shard past a directory chunk (128 node ids)
	// between rebalances, which the thresholds above never let a shard
	// reach. While a rebalance holds the guard, writes to an oversized shard
	// only defer its split; so a shard holding several chunks takes single
	// writes whose re-clipped nodes' parents sit in chunks a published
	// version still shares, and each publish must refresh those parents'
	// clip copies (Tree.syncClips), which Validate checks after every step.
	d := st.dir.Load()
	hot := d.shards[0]
	for _, sh := range d.shards {
		if sh.hi-sh.lo > hot.hi-hot.lo {
			hot = sh
		}
	}
	owned := func(n int) []Item { // n fresh objects whose key hot owns
		var out []Item
		for len(out) < n {
			if it := fresh(); st.key(it.Rect) >= hot.lo && st.key(it.Rect) < hot.hi {
				out = append(out, it)
			}
		}
		return out
	}
	nodes := func() int { s := hot.t.tree.Stats(); return s.LeafNodes + s.DirNodes }
	st.rebalancing.Store(true)
	step := steps
	for nodes() <= 3*128/2 {
		step++
		name := "grow Insert"
		switch r := rng.Intn(10); {
		case r < 6:
			it := owned(1)[0]
			if err := st.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		case r < 9:
			name = "grow InsertItems"
			items := owned(8)
			if err := st.InsertItems(items); err != nil {
				t.Fatal(err)
			}
			live = append(live, items...)
		default:
			name = "grow Delete"
			deleteSome()
		}
		check(step, name)
	}
	st.rebalancing.Store(false)
	if err := st.SplitShard(d.indexOf(hot)); err != nil {
		t.Fatal(err)
	}
	check(step+1, "SplitShard")
	t.Logf("the growth phase ran %d steps to %d objects", step-steps, len(live))
}

// simObjects draws the objects of a seeded simulation from rng: fresh ones
// with ascending ids, and random picks out of a multiset.
type simObjects struct {
	rng  *rand.Rand
	next ObjectID
}

// fresh returns a new object of the square [0, 1000]²: a point one time in
// ten, and half the time inside the corner [0, 100]², which crowds.
func (s *simObjects) fresh() Item {
	span, size := 990.0, s.rng.Float64()*10
	if s.rng.Intn(2) == 0 {
		span = 90
	}
	if s.rng.Intn(10) == 0 {
		size = 0
	}
	x, y := s.rng.Float64()*span, s.rng.Float64()*span
	s.next++
	return Item{Object: s.next - 1, Rect: R(x, y, x+size, y+size)}
}

// simWindow draws a query window of the square [0, 1000]² from rng. One time
// in three it is the rectangle of one of the last objects appended to live,
// which a write may have put in what its node's clip points called dead
// space; one in three a random object's; otherwise a random window, half the
// time a small one inside the crowded corner [0, 100]².
func simWindow(rng *rand.Rand, live []Item) Rect {
	switch r := rng.Intn(3); {
	case r == 0 && len(live) > 0:
		return live[len(live)-1-rng.Intn(min(len(live), 8))].Rect
	case r == 1 && len(live) > 0:
		return live[rng.Intn(len(live))].Rect
	}
	span, w := 1000.0, rng.Float64()*300
	if rng.Intn(2) == 0 {
		span, w = 100, rng.Float64()*30
	}
	x, y := rng.Float64()*span, rng.Float64()*span
	return R(x, y, x+w, y+w)
}

// within returns the items of set that intersect q: the oracle's answer to
// SearchAll(q).
func within(set []Item, q Rect) []Item {
	var out []Item
	for _, it := range set {
		if it.Rect.Intersects(q) {
			out = append(out, it)
		}
	}
	return out
}

// freshItems returns between 1 and max fresh objects.
func (s *simObjects) freshItems(max int) []Item {
	items := make([]Item, 1+s.rng.Intn(max))
	for i := range items {
		items[i] = s.fresh()
	}
	return items
}

// pick removes and returns a random object of the multiset.
func (s *simObjects) pick(set *[]Item) Item {
	i := s.rng.Intn(len(*set))
	it := (*set)[i]
	(*set)[i] = (*set)[len(*set)-1]
	*set = (*set)[:len(*set)-1]
	return it
}

// sameItems reports whether got and want hold the same items as multisets.
func sameItems(got, want []Item) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, cmpItem)
	slices.SortFunc(want, cmpItem)
	return slices.EqualFunc(got, want, func(a, b Item) bool { return cmpItem(a, b) == 0 })
}

// cmpItem orders items by id, then by rectangle.
func cmpItem(a, b Item) int {
	return cmp.Or(cmp.Compare(a.Object, b.Object), slices.Compare(a.Rect.Lo, b.Rect.Lo), slices.Compare(a.Rect.Hi, b.Rect.Hi))
}
