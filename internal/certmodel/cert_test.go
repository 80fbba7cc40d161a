package certmodel

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"offnetscope/internal/rng"
)

var (
	epoch = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	far   = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	mid   = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
)

func testAuthority(t *testing.T) (*Authority, *TrustStore) {
	t.Helper()
	a := NewAuthority("TestPKI", 2, epoch, far, rng.New(1))
	store := NewTrustStore()
	if err := store.AddRoot(a.Root); err != nil {
		t.Fatal(err)
	}
	return a, store
}

func leafSpec(org string, names ...string) LeafSpec {
	return LeafSpec{
		Organization: org,
		CommonName:   names[0],
		DNSNames:     names,
		NotBefore:    epoch,
		NotAfter:     far,
	}
}

func TestVerifyValidChain(t *testing.T) {
	a, store := testAuthority(t)
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com", "*.googlevideo.com"))
	if err := Verify(ch, mid, store); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestVerifyEmptyChain(t *testing.T) {
	_, store := testAuthority(t)
	err := Verify(nil, mid, store)
	if Reason(err) != ReasonEmptyChain {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyExpiredLeaf(t *testing.T) {
	a, store := testAuthority(t)
	spec := leafSpec("Netflix, Inc.", "*.nflxvideo.net")
	spec.NotAfter = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	ch := a.IssueLeaf(spec)
	if err := Verify(ch, mid, store); Reason(err) != ReasonExpired {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
	// But valid when evaluated inside the window: the paper checks
	// validity at scan time, not at analysis time.
	if err := Verify(ch, time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC), store); err != nil {
		t.Fatalf("chain should verify at scan time: %v", err)
	}
}

func TestVerifyNotYetValidLeaf(t *testing.T) {
	a, store := testAuthority(t)
	spec := leafSpec("Google LLC", "*.google.com")
	spec.NotBefore = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	ch := a.IssueLeaf(spec)
	if err := Verify(ch, mid, store); Reason(err) != ReasonNotYetValid {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifySelfSignedLeafRejected(t *testing.T) {
	a, store := testAuthority(t)
	ch := a.IssueSelfSigned(leafSpec("Google LLC", "*.google.com"))
	if err := Verify(ch, mid, store); Reason(err) != ReasonSelfSigned {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyForgedSignature(t *testing.T) {
	a, store := testAuthority(t)
	ch := a.IssueLeaf(leafSpec("Facebook, Inc.", "*.facebook.com"))
	forged := Chain{ch[0].Clone(), ch[1], ch[2]}
	forged[0].Forged = true
	if err := Verify(forged, mid, store); Reason(err) != ReasonForged {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyBrokenChain(t *testing.T) {
	a, store := testAuthority(t)
	b := NewAuthority("OtherPKI", 1, epoch, far, rng.New(2))
	ch := a.IssueLeaf(leafSpec("Akamai Technologies", "a248.e.akamai.net"))
	// Splice in an unrelated intermediate: issuer linkage must fail.
	broken := Chain{ch[0], b.Intermediates[0], b.Root}
	if err := Verify(broken, mid, store); Reason(err) != ReasonBrokenChain {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyUntrustedRoot(t *testing.T) {
	a, _ := testAuthority(t)
	emptyStore := NewTrustStore()
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	if err := Verify(ch, mid, emptyStore); Reason(err) != ReasonUntrusted {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyIntermediateNotCA(t *testing.T) {
	a, store := testAuthority(t)
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	notCA := ch[1].Clone()
	notCA.IsCA = false
	bad := Chain{ch[0], notCA, ch[2]}
	if err := Verify(bad, mid, store); Reason(err) != ReasonNotCA {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestVerifyExpiredIntermediate(t *testing.T) {
	a, store := testAuthority(t)
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	old := ch[1].Clone()
	old.NotAfter = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	// Re-link the leaf to the cloned intermediate's key so only the
	// expiry differs.
	leaf := ch[0].Clone()
	leaf.SignedBy = old.Key
	old.SignedBy = ch[2].Key
	bad := Chain{leaf, old, ch[2]}
	if err := Verify(bad, mid, store); Reason(err) != ReasonExpiredChain {
		t.Fatalf("reason = %q, err = %v", Reason(err), err)
	}
}

func TestTrustStoreRejectsNonCARoot(t *testing.T) {
	a, _ := testAuthority(t)
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	store := NewTrustStore()
	if err := store.AddRoot(ch.Leaf()); err == nil {
		t.Fatal("leaf accepted as trust root")
	}
	if len(store.Roots()) != 0 {
		t.Fatal("failed AddRoot must not modify the store")
	}
}

func TestMatchesOrganization(t *testing.T) {
	c := &Certificate{Subject: Name{Organization: "Google LLC"}}
	for _, kw := range []string{"google", "GOOGLE", "Google LLC", "oogle"} {
		if !c.MatchesOrganization(kw) {
			t.Errorf("keyword %q should match", kw)
		}
	}
	if c.MatchesOrganization("netflix") {
		t.Error("netflix should not match Google LLC")
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a, _ := testAuthority(t)
	c1 := a.IssueLeaf(leafSpec("Google LLC", "*.google.com")).Leaf()
	c2 := a.IssueLeaf(leafSpec("Google LLC", "*.google.com")).Leaf()
	if c1.Fingerprint() != c1.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	if c1.Fingerprint() == c2.Fingerprint() {
		t.Error("distinct certificates (serials) share a fingerprint")
	}
	dup := c1.Clone()
	if dup.Fingerprint() != c1.Fingerprint() {
		t.Error("clone changed fingerprint")
	}
}

// fmtFingerprint is Fingerprint as it was first written, with
// fmt.Fprintf; every fingerprint value must stay the same.
func fmtFingerprint(c *Certificate) Fingerprint {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s|%d|%d|%v|%d|%d|%v",
		c.SerialNumber,
		c.Subject.Organization, c.Subject.CommonName,
		c.Issuer.Organization, c.Issuer.CommonName,
		strings.Join(c.DNSNames, ","),
		c.NotBefore.Unix(), c.NotAfter.Unix(), c.IsCA,
		c.Key, c.SignedBy, c.Forged)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return Fingerprint(fp)
}

// TestFingerprintMatchesFmtForm compares Fingerprint with the fmt form
// over randomized certificates: nil and empty dNSNames, negative Unix
// times, extreme serials and keys, separators inside fields, and fields
// long enough to outgrow the stack buffer.
func TestFingerprintMatchesFmtForm(t *testing.T) {
	r := rng.New(7)
	pieces := []string{"", "Google LLC", "a|b", "x,y", "|", ",", "*.google.com", "ü", strings.Repeat("long", 80)}
	pick := func() string { return pieces[r.Intn(len(pieces))] }
	extremes := []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	num := func() uint64 {
		if r.Bool(0.5) {
			return extremes[r.Intn(len(extremes))]
		}
		return r.Uint64()
	}
	unix := func() time.Time {
		secs := []int64{0, -1, -62135596800, 1 << 40, -(1 << 40)}
		if r.Bool(0.5) {
			return time.Unix(secs[r.Intn(len(secs))], 0).UTC()
		}
		return time.Unix(r.Int63n(1<<41)-(1<<40), 0).UTC()
	}
	for i := 0; i < 5000; i++ {
		c := &Certificate{
			SerialNumber: num(),
			Subject:      Name{Organization: pick(), CommonName: pick()},
			Issuer:       Name{Organization: pick(), CommonName: pick()},
			NotBefore:    unix(),
			NotAfter:     unix(),
			IsCA:         r.Bool(0.5),
			Key:          KeyID(num()),
			SignedBy:     KeyID(num()),
			Forged:       r.Bool(0.5),
		}
		switch n := r.Intn(5); n {
		case 0: // nil
		case 1:
			c.DNSNames = []string{}
		default:
			for j := 0; j < n; j++ {
				c.DNSNames = append(c.DNSNames, pick())
			}
		}
		if i == 0 {
			c.NotBefore, c.NotAfter = time.Time{}, time.Time{}
		}
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Fatalf("certificate %+v: Fingerprint %x, fmt form %x", c, got, want)
		}
	}
}

func TestValidAtBoundaries(t *testing.T) {
	c := &Certificate{NotBefore: epoch, NotAfter: far}
	if !c.ValidAt(epoch) || !c.ValidAt(far) {
		t.Error("validity boundaries are inclusive")
	}
	if c.ValidAt(epoch.Add(-time.Second)) || c.ValidAt(far.Add(time.Second)) {
		t.Error("outside boundaries must be invalid")
	}
}

func TestChainLeaf(t *testing.T) {
	if (Chain{}).Leaf() != nil {
		t.Error("empty chain leaf should be nil")
	}
}

func TestAuthorityDeterminism(t *testing.T) {
	a1 := NewAuthority("PKI", 3, epoch, far, rng.New(99))
	a2 := NewAuthority("PKI", 3, epoch, far, rng.New(99))
	c1 := a1.IssueLeaf(leafSpec("Google LLC", "*.google.com")).Leaf()
	c2 := a2.IssueLeaf(leafSpec("Google LLC", "*.google.com")).Leaf()
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("same seed should mint identical certificates")
	}
}

func TestVerifyNeverPanicsQuick(t *testing.T) {
	a, store := testAuthority(t)
	base := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	f := func(forge bool, dropRoot bool, offsetDays int16) bool {
		ch := Chain{base[0].Clone(), base[1], base[2]}
		ch[0].Forged = forge
		if dropRoot {
			ch = ch[:2]
		}
		at := mid.AddDate(0, 0, int(offsetDays))
		err := Verify(ch, at, store)
		// Either valid or a classified reason; never an unclassified error.
		return err == nil || Reason(err) != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintConcurrent(t *testing.T) {
	a, _ := testAuthority(t)
	c := a.IssueLeaf(leafSpec("Google LLC", "*.google.com")).Leaf()
	want := c.Clone().Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if c.Fingerprint() != want {
					panic("fingerprint mismatch")
				}
			}
		}()
	}
	wg.Wait()
}

func TestTrustStoreRoots(t *testing.T) {
	a, store := testAuthority(t)
	b := NewAuthority("SecondPKI", 1, epoch, far, rng.New(3))
	if err := store.AddRoot(b.Root); err != nil {
		t.Fatal(err)
	}
	roots := store.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %d", len(roots))
	}
	if roots[0].Key >= roots[1].Key {
		t.Error("Roots() not sorted by key")
	}
	if !store.Trusted(a.Root.Key) || !store.Trusted(b.Root.Key) {
		t.Error("registered roots must be trusted")
	}
	if store.Trusted(KeyID(12345)) {
		t.Error("random key must not be trusted")
	}
}

func TestVerifyErrorMessage(t *testing.T) {
	_, store := testAuthority(t)
	err := Verify(nil, mid, store)
	if err == nil || err.Error() == "" {
		t.Fatal("error should have a message")
	}
	if Reason(nil) != "" {
		t.Error("Reason(nil) should be empty")
	}
}
