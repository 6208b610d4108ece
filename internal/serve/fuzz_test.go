package serve

import (
	"encoding/json"
	"testing"
)

// FuzzRequest feeds arbitrary bytes through the admission path's decode and
// normalization. It must never panic, and normalization must be a fixed
// point: a request that normalizes without error normalizes again to an
// identical value with an identical cache key.
func FuzzRequest(f *testing.F) {
	const c17 = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
	for _, r := range []Request{
		{Circuit: "s27"},
		{Circuit: "c17", NoCache: true},
		{Circuit: "s27", TimeoutMS: 50, NoCache: true},
		{Circuit: "s27", Mode: "joint", FcHz: 300e6},
		{Circuit: "s27", FcHz: 200e6},
		{Circuit: "s27", Mode: "multivt"},
		{Kind: KindSweep, Circuit: "s27"},
		{Kind: KindSweep, Circuit: "s27", FromHz: 100e6, ToHz: 300e6, Points: 3, Format: "csv"},
		{Bench: c17, FcHz: 100e6},
		{NetlistSHA256: HashNetlist(c17), FcHz: 100e6},
		{Circuit: "s27", Tech: "vdd0=3.3\n"},
		{},
		{Circuit: "s27", Bench: "INPUT(a)"},
		{Kind: "frobnicate", Circuit: "s27"},
		{Circuit: "s27", Mode: "joint", NV: 3},
		{Circuit: "s27", Points: 4},
		{Kind: KindSweep, Circuit: "s27", FcHz: 1e8},
		{Kind: KindSweep, Bench: "INPUT(a)"},
		{Kind: KindSweep, Circuit: "s27", FromHz: 2e8, ToHz: 1e8},
		{Circuit: "s27", TimeoutMS: -5},
		{Circuit: "s27", Skew: 1.5},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"circuit":"s27","skew":-0,"activity":1e308,"m":64}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if r.normalize() != nil {
			return
		}
		once, key := r, r.cacheKey()
		if err := r.normalize(); err != nil {
			t.Fatalf("normalized request %+v rejected on the second pass: %v", once, err)
		}
		if r != once {
			t.Fatalf("normalize is not a fixed point:\nfirst  %+v\nsecond %+v", once, r)
		}
		if k := r.cacheKey(); k != key {
			t.Fatalf("cache key moved on re-normalization: %s then %s", key, k)
		}
	})
}
