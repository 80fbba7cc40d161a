package corpus

import (
	"fmt"
	"strings"
	"testing"

	"offnetscope/internal/certmodel"
)

// TestIssuerMemoProbe pins the memo's probe: an element of any length,
// short, long or with no ',' or '}' in its first maxProbeKey bytes, is
// recognized where the line continues with all of its bytes and nowhere
// else. A probe key holds at most maxCandidates elements, and elements
// past that still share one certificate per distinct bytes.
func TestIssuerMemoProbe(t *testing.T) {
	m := issuerMemo{exact: make(map[string]*certmodel.Certificate), probe: make(map[string][]memoized)}
	long := `{"subject_org":"` + strings.Repeat("x", 2*maxProbeKey) + `","key":1}`
	for _, raw := range []string{`{}`, testRoot, testIssuer, long} {
		c := m.add([]byte(raw), &wireCert{})
		for _, tail := range []string{"", "]}", `,{"serial":1}]}`} {
			if got, n := m.lookup([]byte(raw + tail)); got != c || n != len(raw) {
				t.Errorf("%.40s followed by %q: got %p, %d bytes; want %p, %d", raw, tail, got, n, c, len(raw))
			}
		}
		if got, _ := m.lookup([]byte(raw[:len(raw)-1])); got != nil {
			t.Errorf("%.40s cut short: got %p, want no hit", raw, got)
		}
	}
	for i := 0; i < maxCandidates+2; i++ {
		raw := fmt.Sprintf(`{"serial":7,"key":%d}`, i)
		c := m.add([]byte(raw), &wireCert{Key: uint64(i)})
		if again := m.add([]byte(raw), &wireCert{}); again != c {
			t.Errorf("%s added twice: two certificates", raw)
		}
		if got, _ := m.lookup([]byte(raw)); (got == c) != (i < maxCandidates) {
			t.Errorf("%s, element %d under its probe key: hit %v", raw, i+1, got == c)
		}
	}
	if n := len(m.probe[`{"serial":7,`]); n != maxCandidates {
		t.Errorf("probe key holds %d elements, want %d", n, maxCandidates)
	}
}
