package certmodel

import (
	"testing"
	"time"

	"offnetscope/internal/rng"
)

func benchChain(b *testing.B) (Chain, *TrustStore, time.Time) {
	b.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	a := NewAuthority("BenchCA", 4, from, to, rng.New(1))
	store := NewTrustStore()
	if err := store.AddRoot(a.Root); err != nil {
		b.Fatal(err)
	}
	ch := a.IssueLeaf(LeafSpec{
		Organization: "Google LLC", CommonName: "*.google.com",
		DNSNames:  []string{"*.google.com", "*.googlevideo.com", "*.gstatic.com"},
		NotBefore: from, NotAfter: to,
	})
	return ch, store, time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
}

// verifySink keeps the compiler from discarding the benchmarked call.
var verifySink error

// BenchmarkVerify measures §4.1 chain validation — executed once per
// corpus record, hundreds of thousands of times per snapshot — for a
// valid chain and for the three failures that make up nearly every
// invalid chain in a scan: about a third of all chains fail.
func BenchmarkVerify(b *testing.B) {
	ch, store, at := benchChain(b)
	expired := Chain{ch[0].Clone(), ch[1], ch[2]}
	expired[0].NotAfter = at.AddDate(0, -1, 0)
	selfSigned := Chain{ch[0].Clone()}
	selfSigned[0].SignedBy = selfSigned[0].Key
	for _, bc := range []struct {
		name   string
		ch     Chain
		store  *TrustStore
		reason string
	}{
		{"valid", ch, store, ""},
		{"expired", expired, store, ReasonExpired},
		{"self-signed", selfSigned, store, ReasonSelfSigned},
		{"untrusted-root", ch, NewTrustStore(), ReasonUntrusted},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if got := Reason(Verify(bc.ch, at, bc.store)); got != bc.reason {
				b.Fatalf("reason = %q, want %q", got, bc.reason)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verifySink = Verify(bc.ch, at, bc.store)
			}
		})
	}
}

func BenchmarkFingerprint(b *testing.B) {
	ch, _, _ := benchChain(b)
	leaf := ch.Leaf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone defeats the cache so the hash itself is measured.
		if i%64 == 0 {
			leaf = ch.Leaf().Clone()
		}
		_ = leaf.Fingerprint()
	}
}

func BenchmarkMatchesOrganization(b *testing.B) {
	ch, _, _ := benchChain(b)
	leaf := ch.Leaf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !leaf.MatchesOrganization("google") {
			b.Fatal("no match")
		}
	}
}
