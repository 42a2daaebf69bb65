package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"cbb/internal/datasets"
	"cbb/internal/querygen"
	"cbb/internal/server"
)

// TestBuildSchedule checks the open-loop plan cbbload replays: one request
// per 1/qps of the run, the read share the mix asks for, reads that are
// valid /search bodies of every profile, writes that insert dataset objects
// at consecutive ids from the base, the same plan for the same seed, and
// refusal of a plan past the cap or an unknown profile.
func TestBuildSchedule(t *testing.T) {
	objects, err := datasets.Generate("par02", 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	universe, err := datasets.Universe("par02")
	if err != nil {
		t.Fatal(err)
	}
	inDataset := map[string]bool{}
	for _, o := range objects {
		inDataset[o.String()] = true
	}
	for _, c := range []struct {
		profile string
		mix     float64
	}{{"qr0", 1}, {"qr1", 0.9}, {"QR2", 0.5}, {"qr1", 0}} {
		prof, err := parseProfile(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		cfg := scheduleConfig{qps: 400, duration: 5 * time.Second, mix: c.mix, profile: prof, seed: 4, idBase: 1000, countOnly: true}
		jobs, err := buildSchedule(objects, universe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 2000 {
			t.Fatalf("%s mix %.1f: %d jobs, want 2000", c.profile, c.mix, len(jobs))
		}
		writes := 0
		for i, j := range jobs {
			if j.at != time.Duration(i)*2500*time.Microsecond {
				t.Fatalf("job %d due at %v", i, j.at)
			}
			if !j.write {
				var req server.SearchRequest
				if err := json.Unmarshal(j.body, &req); err != nil || !req.CountOnly {
					t.Fatalf("read %d: %s (%v)", i, j.body, err)
				}
				if _, err := req.Query.ToRect(); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				continue
			}
			var req server.InsertRequest
			if err := json.Unmarshal(j.body, &req); err != nil {
				t.Fatalf("write %d: %s (%v)", i, j.body, err)
			}
			r, err := req.Rect.ToRect()
			if err != nil || !inDataset[r.String()] || req.ID != cfg.idBase+int64(writes) {
				t.Fatalf("write %d inserts %s at id %d (%v)", i, j.body, req.ID, err)
			}
			writes++
		}
		if share := float64(writes) / float64(len(jobs)); math.Abs(share-(1-c.mix)) > 0.03 {
			t.Errorf("%s mix %.1f: write share %.3f", c.profile, c.mix, share)
		}
		again, err := buildSchedule(objects, universe, cfg)
		if err != nil || !reflect.DeepEqual(again, jobs) {
			t.Errorf("%s mix %.1f: the same seed planned differently (%v)", c.profile, c.mix, err)
		}
	}
	if _, err := buildSchedule(objects, universe, scheduleConfig{qps: 1e6, duration: time.Hour, profile: querygen.QR1}); err == nil {
		t.Error("a plan past the cap was accepted")
	}
	if _, err := parseProfile("qr9"); err == nil {
		t.Error("profile qr9 was accepted")
	}
}
