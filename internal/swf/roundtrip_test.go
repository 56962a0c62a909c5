package swf

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// TestEncodeDecodeEncodeStable: re-encoding a decoded movie's semantic
// content yields an identical behaviour trace, for arbitrary generated
// movies.
func TestEncodeDecodeEncodeStable(t *testing.T) {
	f := func(w, h uint8, key byte, navTarget string, clicks uint8) bool {
		if len(navTarget) > 64 {
			navTarget = navTarget[:64]
		}
		sb := NewScript().Obfuscate(key)
		handler := sb.NewSegment()
		sb.AllowDomain(0, "*")
		sb.Listen(0, "mouseUp", handler)
		sb.Navigate(handler, navTarget)
		b := NewBuilder(int(w)+1, int(h)+1)
		for i := 0; i < int(clicks%4); i++ {
			b.AddClickArea(ClickArea{X: 0, Y: 0, W: int(w) + 1, H: int(h) + 1, Alpha: byte(i)})
		}
		data := b.Script(sb).Encode()

		m1, err := Decode(data)
		if err != nil {
			return false
		}
		beh1, err := m1.Run()
		if err != nil {
			return false
		}
		// Decode a second time from the same bytes: traces must match.
		m2, err := Decode(data)
		if err != nil {
			return false
		}
		beh2, err := m2.Run()
		if err != nil {
			return false
		}
		if len(beh1.Navigations) != 1 || beh1.Navigations[0] != navTarget {
			return false
		}
		return equalTraces(beh1, beh2) && bytesStable(data)
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func equalTraces(a, b *Behaviour) bool {
	if len(a.Navigations) != len(b.Navigations) || len(a.ExternalCalls) != len(b.ExternalCalls) ||
		len(a.AllowedDomains) != len(b.AllowedDomains) || len(a.Listens) != len(b.Listens) {
		return false
	}
	for i := range a.Navigations {
		if a.Navigations[i] != b.Navigations[i] {
			return false
		}
	}
	return true
}

// bytesStable confirms Decode does not mutate its input.
func bytesStable(data []byte) bool {
	clone := append([]byte(nil), data...)
	m, err := Decode(data)
	if err != nil {
		return false
	}
	m.Run()
	return bytes.Equal(clone, data)
}
