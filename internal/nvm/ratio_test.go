package nvm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// ratioPairs encodes (ratio, count) pairs as GobEncode lays them out.
func ratioPairs(pairs ...float64) []byte {
	var b []byte
	for i := 0; i < len(pairs); i += 2 {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(pairs[i]))
		b = binary.BigEndian.AppendUint64(b, uint64(pairs[i+1]))
	}
	return b
}

// TestRatioCountsDecode: GobDecode takes ascending pairs and rejects a
// NaN, repeated or descending ratio and a truncated pair.
func TestRatioCountsDecode(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want RatioCounts // nil: an error
	}{
		{"empty", nil, RatioCounts{}},
		{"ascending", ratioPairs(1, 7, 2.5, 3, 4, 0), RatioCounts{1: 7, 2.5: 3, 4: 0}},
		{"NaN", ratioPairs(1, 7, math.NaN(), 3), nil},
		{"repeated", ratioPairs(1, 7, 1, 3), nil},
		{"descending", ratioPairs(2, 7, 1, 3), nil},
		{"truncated", ratioPairs(1, 7, 2, 3)[:31], nil},
		{"half a pair", ratioPairs(1, 7)[:8], nil},
	} {
		var got RatioCounts
		err := got.GobDecode(tc.in)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: decoded %v, want an error", tc.name, got)
		case tc.want != nil && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("%s: got %v (%v), want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestRatioCountsGobRoundTrip: a gob round trip keeps nil, empty and
// non-empty values apart, and one value always encodes to the same bytes.
func TestRatioCountsGobRoundTrip(t *testing.T) {
	type holder struct{ R RatioCounts }
	many := RatioCounts{}
	for i := 0; i < 40; i++ {
		many[1+float64(i)/8] = uint64(i * i)
	}
	for _, in := range []RatioCounts{nil, {}, {1: 2, 4: 5}, many} {
		var first []byte
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(holder{in}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%v: encoding %d differs from the first", in, i)
			}
			var out holder
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.R, in) { // DeepEqual tells nil from empty
				t.Fatalf("round trip of %#v gave %#v", in, out.R)
			}
		}
	}
}
