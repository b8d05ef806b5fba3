package serve

// Fuzz targets for the two request decoders a daemon exposes: a /v1/run
// body and a shard lease offer. Each decodes and validates the input as
// its handler does; for an accepted input, the values the handler then
// computes from it must be in range.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
)

func FuzzRunRequest(f *testing.F) {
	for _, tc := range runStatusCases {
		b, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"n":500,"d":10,"graph_seed":1,"seed":7}`))
	f.Add([]byte(`{"n":300,"d":10,"algo":"centralized","timeout_ms":1}`))
	f.Add([]byte(`{"n":1e3,"d":-0,"timeout_ms":-1}`))
	f.Add([]byte(`{"n":9223372036854775807,"d":1e308}`))
	f.Add([]byte("{nope"))
	cfg := (&Config{}).withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		var r RunRequest
		if decodeJSON(bytes.NewReader(data), &r) != nil || r.validate(&cfg) != nil {
			return
		}
		if d := r.timeout(&cfg); d <= 0 || d > cfg.MaxTimeout {
			t.Fatalf("accepted request %q runs under timeout %v, want in (0, %v]", data, d, cfg.MaxTimeout)
		}
		if k := r.graphKey(); checkGraphSize(&cfg, k.N, k.D) != nil {
			t.Fatalf("accepted request %q keys an over-size graph %+v", data, k)
		}
	})
}

func FuzzLeaseOffer(f *testing.F) {
	seed := func(o cluster.LeaseOffer) {
		b, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(offerFor(shardSpec(), "http://coordinator", 1000))
	seed(offerFor(shardSpec(), "http://coordinator", 1))
	for _, mutate := range malformedOffers {
		o := offerFor(shardSpec(), "http://coordinator", 1000)
		mutate(&o)
		seed(o)
	}
	f.Add([]byte("{nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var o cluster.LeaseOffer
		if decodeJSON(bytes.NewReader(data), &o) != nil || validateOffer(&o) != nil {
			return
		}
		if o.PointLo < 0 || o.PointLo >= o.PointHi || o.PointHi > len(o.Spec.Points) {
			t.Fatalf("accepted offer %q has point range [%d, %d) outside %d points", data, o.PointLo, o.PointHi, len(o.Spec.Points))
		}
		// A third of the TTL, at least 10ms: a wrapped Duration would not be.
		if d := heartbeatInterval(&o); d <= 0 || d.Milliseconds() != max(int64(o.TTLMs)/3, 10) {
			t.Fatalf("accepted offer with TTL %dms heartbeats every %v", o.TTLMs, d)
		}
	})
}
