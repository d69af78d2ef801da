package service

import (
	"strings"
	"testing"

	"repro/internal/mats"
	"repro/internal/sparse"
)

// TestFingerprintGolden pins the fingerprint bytes of generated matrices
// and of parsed Matrix Market payloads. Plan-cache keys and the fleet
// gateway's ring placement are these bytes, so a change to Fingerprint or
// to the parser that moves one of them re-keys every cache and moves
// operators between nodes. Each payload repeats one position twice, so the
// parser's duplicate summation is pinned too.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"Trefethen_2000", "4715772cb4172906ef3a0506f4976eff"},
		{"fv1", "9f3968ad0c548a60d443f3de86536f0b"},
		{"Chem97ZtZ", "04ecfecd559e269026567bb7e8ed7a46"},
		{"fv2", "39acf3bf1c3b374452f0d768b9c681c9"},
		{"fv3", "37f4e45cb4be2a98609a37856d8e6ca1"},
		{"s1rmt3m1", "2fae1ced865c2e1783bc3b19e467f976"},
		{"Trefethen_20000", "5250a37ca3409ef38ea759111d972ed7"},
		{"poisson2d_31", "a72480780b0065094e20b3388617d006"},
	} {
		tm, err := mats.Generate(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(tm.A); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct{ name, payload, want string }{
		{"general", `%%MatrixMarket matrix coordinate real general
% (2,1) appears twice and is summed; row 1 arrives out of column order
4 4 8
1 2 -0.5
2 1 -1.25
1 1 4.5

2 2 4.0
3 3 5
2 1 0.375
4 4 6e0
3 4 -2.5e-3
`, "a3caf6445d3dd9de7bd8f3a810bb0f8a"},
		{"symmetric", `%%MatrixMarket matrix coordinate real symmetric
% (2,1) and its mirror (1,2) are both given: each position sums two entries
3 3 5
1 1 2.5
2 1 -0.75
3 3 3.0
1 2 -0.1
2 2 4
`, "627cac03689deda900d36fb51b7cf474"},
		{"pattern", `%%MatrixMarket matrix coordinate pattern general
3 3 5
1 1
3 2
2 2
3 2
3 3
`, "43577d6d3c6ab5decf26b1bc93d665dd"},
	} {
		a, err := sparse.ReadMatrixMarket(strings.NewReader(tc.payload))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := Fingerprint(a); got != tc.want {
			t.Errorf("%s payload: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
