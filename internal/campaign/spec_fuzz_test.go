package campaign

// Fuzz target for the spec parser. radiosimd and cmd/campaign hand it
// untrusted bodies, so the properties are: never panic, accept only
// specs that validate, and accept the canonical re-encoding of an
// accepted spec as the same spec (same Hash, so checkpoints resume).

import (
	"encoding/json"
	"testing"
)

func FuzzParseSpec(f *testing.F) {
	for _, name := range Presets() {
		spec, err := Preset(name, "small", 1, 0)
		if err != nil {
			f.Fatalf("preset %s: %v", name, err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"name":"x","trials":0,"points":[]}`))
	f.Add([]byte(`{"name":"x","trials":2,"points":[{"id":"a","trial":{"kind":"nope","n":10,"d":2}}]}`))
	f.Add([]byte(`{"name":"x","trials":2,"points":[{"id":"a","trial":{"kind":"decay","n":10,"d":2}},{"id":"a","trial":{"kind":"decay","n":10,"d":2}}]}`))
	f.Add([]byte(`{"name":"x","trials":2,"stop":{"min_trials":1,"half_width":-1},"points":[{"id":"a","trial":{"kind":"aloha","n":10,"d":2}}]}`))
	f.Add([]byte(`{"name":"\xff","seed":18446744073709551615,"trials":1,"points":[{"id":"\xfe","x":1e308,"trial":{"kind":"distributed","n":1,"d":5e-324,"fixed_graph":true}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput %q", err, data)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\ninput %q\nre-encoded %q", err, data, b)
		}
		if s.Hash() != s2.Hash() {
			t.Fatalf("re-parse changed the hash: %s -> %s\ninput %q\nre-encoded %q", s.Hash(), s2.Hash(), data, b)
		}
	})
}
