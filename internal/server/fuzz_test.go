package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServerAPI posts fuzzed bodies to the data-plane endpoints of a small
// tree engine. Whatever arrives, the server must not panic and must answer
// 200, 400 or 413 — the client's input can cause no other status — and a
// /batch it accepts must leave a valid tree whose length moved by exactly the
// inserts it applied less the deletes that found their object.
func FuzzServerAPI(f *testing.F) {
	const maxBody = 4 << 10
	var big strings.Builder
	big.WriteString(`{"ops":[`)
	for i := 0; big.Len() <= maxBody; i++ {
		fmt.Fprintf(&big, `{"op":"insert","id":%d,"rect":{"lo":[1,1],"hi":[2,2]}},`, 1000+i)
	}
	big.WriteString(`{"op":"insert","id":1,"rect":{"lo":[1,1],"hi":[2,2]}}]}`)
	seeds := []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"query":{"lo":[0,0],"hi":[20,20]}}`},
		{0, `{"query":{"lo":[NaN,0],"hi":[1,1]}}`},
		{0, `{"query":{"lo":[-1e999,0],"hi":[1,1]}}`},
		{0, `{"query":{"lo":[1,1,1],"hi":[2,2,2]}}`},
		{1, `{"queries":[{"lo":[0,0],"hi":[9,9]},{"lo":[5,5],"hi":[50,50]}],"collect":true}`},
		{2, `{"point":[5,5],"k":9223372036854775807}`},
		{2, `{"point":[5,5,5],"k":3}`},
		{3, `{"id":9,"rect":{"lo":[1,1],"hi":[2,2]}}`},
		{3, `{"id":9,"rect":{"lo":[1,1],"hi":[2,2,2]}}`},
		{4, `{"ops":[]}`},
		{4, `{"ops":[{"op":"insert","id":5000,"rect":{"lo":[3,3],"hi":[4,4]}},{"op":"delete","id":5000,"rect":{"lo":[3,3],"hi":[4,4]}},{"op":"delete","id":5001,"rect":{"lo":[3,3],"hi":[4,4]}}]}`},
		{4, `{"ops":[{"op":"insert","id":5002,"rect":{"lo":[3,3],"hi":[4,4]}},{"op":"insert","id":5003,"rect":{"lo":[3,3,3],"hi":[4,4,4]}}]}`},
		{4, `{"ops":[{"op":"insert","id":7,"rect":{"lo":[1,1],"hi":[2,2]}},{"op":"insert","id":7,"rect":{"lo":[1,1],"hi":[2,2]}}]}`},
		{4, big.String()},
		{5, `{"probes":[{"id":1,"rect":{"lo":[0,0],"hi":[50,50]}}],"collect":true}`},
		{5, `{"probes":[{"id":1,"rect":{"lo":[0,0],"hi":[Infinity,50]}}]}`},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	tree := buildTree(f, 200)
	eng := NewTreeEngine(tree, false)
	s := newTestServer(f, Config{Engine: eng, MaxBodyBytes: maxBody})
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := dataEndpoints[int(endpoint)%len(dataEndpoints)]
		before := eng.Len()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q: status %d (%s)", path, body, w.Code, w.Body.String())
		}
		if path != "/batch" || w.Code != http.StatusOK {
			return
		}
		// The body decoded once already; decode it the same way to count.
		var req BatchRequest
		var resp BatchResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted batch %q does not decode: %v", body, err)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("batch reply %q: %v", w.Body.String(), err)
		}
		inserts := 0
		for _, op := range req.Ops {
			if op.Op == "insert" {
				inserts++
			}
		}
		if resp.Applied != len(req.Ops) || eng.Len() != before+inserts-resp.Found {
			t.Fatalf("batch %q: applied %d of %d ops, found %d; Len %d -> %d", body, resp.Applied, len(req.Ops), resp.Found, before, eng.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("after batch %q: %v", body, err)
		}
	})
}
