package server

import (
	"fmt"

	"cbb"
)

// This file defines the JSON wire types of the HTTP API. cmd/cbbload
// imports them so the load generator and the server can never drift apart.

// RectJSON is a rectangle on the wire: the lo and hi corner, d coordinates
// each.
type RectJSON struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// ToRect validates and converts the wire rectangle.
func (r RectJSON) ToRect() (cbb.Rect, error) {
	if len(r.Lo) == 0 || len(r.Lo) != len(r.Hi) {
		return cbb.Rect{}, fmt.Errorf("rect needs matching non-empty lo/hi (got %d/%d)", len(r.Lo), len(r.Hi))
	}
	rect, err := cbb.NewRect(r.Lo, r.Hi)
	if err != nil {
		return cbb.Rect{}, err
	}
	return rect, nil
}

// FromRect converts an engine rectangle to its wire form.
func FromRect(r cbb.Rect) RectJSON { return RectJSON{Lo: r.Lo, Hi: r.Hi} }

// ItemJSON is an indexed object on the wire.
type ItemJSON struct {
	ID   int64    `json:"id"`
	Rect RectJSON `json:"rect"`
}

func fromItems(items []cbb.Item) []ItemJSON {
	out := make([]ItemJSON, len(items))
	for i, it := range items {
		out[i] = ItemJSON{ID: int64(it.Object), Rect: FromRect(it.Rect)}
	}
	return out
}

// SearchRequest asks for every object intersecting one query window.
// Point searches are the coalescing path: /search requests that arrive
// while another is being answered share one BatchSearch on one pinned view.
type SearchRequest struct {
	Query RectJSON `json:"query"`
	// CountOnly suppresses the item list in the response.
	CountOnly bool `json:"count_only,omitempty"`
}

// SearchResponse answers a /search. Epochs is the pinned commit epoch(s)
// the result was computed at — exactly one element per shard, and the
// whole response comes from that single pinned snapshot.
type SearchResponse struct {
	Epochs []uint64   `json:"epochs"`
	Count  int        `json:"count"`
	Items  []ItemJSON `json:"items,omitempty"`
	// Batched is the size of the coalesced micro-batch this query was
	// answered in (1 when it ran alone).
	Batched int `json:"batched,omitempty"`
}

// SearchAllRequest runs a caller-provided batch of range queries on one
// pinned view (the explicit-batch counterpart of the coalesced /search).
type SearchAllRequest struct {
	Queries []RectJSON `json:"queries"`
	// Collect returns the matching items of every query, not only counts.
	Collect bool `json:"collect,omitempty"`
	// Workers bounds the engine-side fan-out (0 = the server's
	// SearchWorkers, which also caps it).
	Workers int `json:"workers,omitempty"`
}

// SearchAllResponse answers a /searchall; Counts and Items are
// index-aligned with the request's queries and all answered at Epochs.
type SearchAllResponse struct {
	Epochs []uint64     `json:"epochs"`
	Counts []int        `json:"counts"`
	Items  [][]ItemJSON `json:"items,omitempty"`
}

// KNNRequest asks for the k nearest objects to a point.
type KNNRequest struct {
	Point []float64 `json:"point"`
	K     int       `json:"k"`
}

// NeighborJSON is one nearest-neighbour result.
type NeighborJSON struct {
	ID     int64    `json:"id"`
	Rect   RectJSON `json:"rect"`
	DistSq float64  `json:"distsq"`
}

// KNNResponse answers a /knn at a single pinned epoch.
type KNNResponse struct {
	Epochs    []uint64       `json:"epochs"`
	Neighbors []NeighborJSON `json:"neighbors"`
}

// InsertRequest adds one object.
type InsertRequest struct {
	ID   int64    `json:"id"`
	Rect RectJSON `json:"rect"`
}

// InsertResponse acknowledges a committed insert; Epochs is the engine
// state after the commit was published (any later read view observes
// epochs >= these).
type InsertResponse struct {
	Epochs []uint64 `json:"epochs"`
}

// BatchOpJSON is one mutation of a /batch request.
type BatchOpJSON struct {
	// Op is "insert" or "delete".
	Op   string   `json:"op"`
	ID   int64    `json:"id"`
	Rect RectJSON `json:"rect"`
}

// BatchRequest applies a set of mutations atomically: readers (and every
// pinned view) observe all of them or none of them.
type BatchRequest struct {
	Ops []BatchOpJSON `json:"ops"`
}

// BatchResponse acknowledges a committed write batch.
type BatchResponse struct {
	Epochs []uint64 `json:"epochs"`
	// Applied is the number of ops applied; Found the number of deletes
	// that found their object.
	Applied int `json:"applied"`
	Found   int `json:"found"`
}

// JoinRequest joins a probe set against the index (index nested loop join)
// on one pinned view.
type JoinRequest struct {
	Probes []ItemJSON `json:"probes"`
	// Collect returns the matching (probe, indexed) id pairs, capped at
	// MaxJoinPairs.
	Collect bool `json:"collect,omitempty"`
	// Workers bounds the engine-side fan-out (0 = the server's
	// SearchWorkers, which also caps it).
	Workers int `json:"workers,omitempty"`
}

// MaxJoinPairs caps the pairs returned by a collecting /join; the total
// pair count is always exact.
const MaxJoinPairs = 65536

// PairJSON is one join result pair: the probe id and the indexed object id.
type PairJSON struct {
	Probe   int64 `json:"probe"`
	Indexed int64 `json:"indexed"`
}

// JoinResponse answers a /join at a single pinned epoch.
type JoinResponse struct {
	Epochs []uint64 `json:"epochs"`
	Pairs  int64    `json:"pairs"`
	// Results holds up to MaxJoinPairs pairs when Collect was set;
	// Truncated reports that the cap was hit.
	Results   []PairJSON `json:"results,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status  string   `json:"status"`
	Objects int      `json:"objects"`
	Epochs  []uint64 `json:"epochs"`
}

// StatsResponse answers /stats: engine structure, cumulative simulated
// I/O, buffer-pool behaviour, and the serving layer's own counters.
type StatsResponse struct {
	Objects        int     `json:"objects"`
	Height         int     `json:"height"`
	LeafNodes      int     `json:"leaf_nodes"`
	DirNodes       int     `json:"dir_nodes"`
	ClipPoints     int     `json:"clip_points"`
	AvgClipPoints  float64 `json:"avg_clip_points"`
	ClipTableBytes int     `json:"clip_table_bytes"`

	Epochs []uint64 `json:"epochs"`

	IO struct {
		LeafReads int64 `json:"leaf_reads"`
		DirReads  int64 `json:"dir_reads"`
		Writes    int64 `json:"writes"`
		Reclips   int64 `json:"reclips"`
	} `json:"io"`

	Buffer *struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"buffer,omitempty"`

	Server struct {
		Requests  int64 `json:"requests"`
		Errors    int64 `json:"errors"`
		Shed      int64 `json:"shed"`
		Coalesced int64 `json:"coalesced_queries"`
		// CoalesceWaitP50 is the median time a point query queued before
		// the flush that answered it began, in nanoseconds.
		CoalesceWaitP50 int64 `json:"coalesce_wait_p50_ns"`
		Batches         int64 `json:"coalesced_batches"`
		InFlight        int64 `json:"in_flight"`
	} `json:"server"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
