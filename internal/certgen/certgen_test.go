package certgen

import (
	"crypto/x509"
	"testing"
	"time"
)

func TestCAIssuesVerifiableLeaf(t *testing.T) {
	ca, err := NewCA("Test WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueLeaf(LeafSpec{
		Organization: "Google LLC",
		DNSNames:     []string{"*.google.com", "*.googlevideo.com"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Leaf == nil {
		t.Fatal("leaf not parsed")
	}
	if got := cert.Leaf.Subject.Organization[0]; got != "Google LLC" {
		t.Errorf("org = %q", got)
	}
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: poolOf(ca), DNSName: "www.google.com"}); err != nil {
		t.Errorf("leaf should verify for www.google.com: %v", err)
	}
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: poolOf(ca), DNSName: "www.netflix.com"}); err == nil {
		t.Error("leaf must not verify for a foreign domain")
	}
}

func TestSelfSignedDoesNotVerify(t *testing.T) {
	ca, err := NewCA("Test WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := SelfSigned(LeafSpec{Organization: "Google LLC", DNSNames: []string{"*.google.com"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: poolOf(ca)}); err == nil {
		t.Error("self-signed leaf must not verify against the CA pool")
	}
}

func TestExpiredLeafRejected(t *testing.T) {
	ca, err := NewCA("Test WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	// The leaf's window sits inside the CA's validity but ends just
	// before now, so it is expired at verification time.
	cert, err := ca.IssueLeaf(LeafSpec{
		Organization: "Netflix, Inc.",
		DNSNames:     []string{"*.nflxvideo.net"},
		NotBefore:    time.Now().Add(-50 * time.Minute),
		NotAfter:     time.Now().Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{Roots: poolOf(ca)}); err == nil {
		t.Error("expired leaf must not verify")
	}
	// But it verifies at a time inside its window.
	if _, err := cert.Leaf.Verify(x509.VerifyOptions{
		Roots:       poolOf(ca),
		CurrentTime: time.Now().Add(-10 * time.Minute),
	}); err != nil {
		t.Errorf("leaf should verify inside its window: %v", err)
	}
}

func TestDistinctSerials(t *testing.T) {
	ca, err := NewCA("Test WebPKI")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ca.IssueLeaf(LeafSpec{Organization: "X", DNSNames: []string{"a.example"}})
	b, _ := ca.IssueLeaf(LeafSpec{Organization: "X", DNSNames: []string{"a.example"}})
	if a.Leaf.SerialNumber.Cmp(b.Leaf.SerialNumber) == 0 {
		t.Error("serial numbers must be distinct")
	}
}

// poolOf is an x509 pool trusting ca.
func poolOf(ca *CA) *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.Cert)
	return pool
}
